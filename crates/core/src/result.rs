//! Run results and statistics.

use std::time::Duration;

use sns_graph::NodeId;

use crate::bounds::certificate::StopCondition;

/// Output of one SSA/D-SSA (or baseline) run, with the statistics the
/// paper's evaluation reports: running time (Figs. 4–5), RR-set counts
/// (Table 3) and pool memory (Figs. 6–7).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Selected seed set (size k).
    pub seeds: Vec<NodeId>,
    /// The algorithm's own influence estimate `Î(Ŝ_k) = Γ·Cov_R(Ŝ_k)/|R|`.
    pub influence_estimate: f64,
    /// RR sets in the main (find) pool at termination.
    pub rr_sets_main: u64,
    /// RR sets consumed by verification (SSA's Estimate-Inf; zero for
    /// D-SSA, whose verify half lives inside the main stream).
    pub rr_sets_verify: u64,
    /// Stop-and-stare iterations executed.
    pub iterations: u32,
    /// Whether the nominal cap `Nmax` terminated the run instead of the
    /// statistical stopping conditions (rare by design).
    pub hit_cap: bool,
    /// Which check was binding at termination: [`StopCondition::Coverage`]
    /// when D1/S1 fired at the stopping iteration itself,
    /// [`StopCondition::Precision`] when coverage had been met earlier
    /// and D2/S2 lagged, [`StopCondition::Cap`] when `Nmax` (or a
    /// timeout) cut the run short, [`StopCondition::Schedule`] for
    /// fixed-schedule algorithms.
    pub binding: StopCondition,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
    /// Peak byte footprint of the RR pool(s) — the Figs. 6–7 quantity.
    pub peak_pool_bytes: u64,
    /// Total in-edges examined while sampling (machine-independent cost).
    pub total_edges_examined: u64,
}

impl RunResult {
    /// Total RR sets generated (main + verification).
    pub fn rr_sets_total(&self) -> u64 {
        self.rr_sets_main + self.rr_sets_verify
    }
}

impl std::fmt::Display for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} seeds, Î = {:.1}, {} RR sets ({} verify), {} iterations{}, {:.3}s, {:.1} MB pool",
            self.seeds.len(),
            self.influence_estimate,
            self.rr_sets_total(),
            self.rr_sets_verify,
            self.iterations,
            if self.hit_cap { " (hit cap)" } else { "" },
            self.wall_time.as_secs_f64(),
            self.peak_pool_bytes as f64 / (1024.0 * 1024.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_display() {
        let r = RunResult {
            seeds: vec![1, 2],
            influence_estimate: 12.5,
            rr_sets_main: 100,
            rr_sets_verify: 20,
            iterations: 3,
            hit_cap: false,
            binding: StopCondition::Precision,
            wall_time: Duration::from_millis(1500),
            peak_pool_bytes: 2 * 1024 * 1024,
            total_edges_examined: 999,
        };
        assert_eq!(r.rr_sets_total(), 120);
        let s = r.to_string();
        assert!(s.contains("2 seeds"));
        assert!(s.contains("120 RR sets"));
        assert!(!s.contains("hit cap"));
        let capped = RunResult { hit_cap: true, ..r }.to_string();
        assert!(capped.contains("3 iterations (hit cap)"), "{capped}");
    }
}

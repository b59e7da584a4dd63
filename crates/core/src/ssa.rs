//! The Stop-and-Stare Algorithm — Algorithm 1 of the paper.

// Sanctioned wall-clock read: report-only elapsed-time stat (see lint-allow.toml).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use sns_rrset::{max_coverage_with, GreedyScratch, RrCollection};

use crate::bounds::certificate::{Certificate, StopCondition};
use crate::bounds::{self, upsilon};
use crate::estimate_inf::EstimateScratch;
use crate::{CoreError, Params, RunResult, SamplingContext, SsaEpsilons};

/// Algorithm 1's verification cap `Tmax` at pool size `|R_t|`:
///
/// ```text
/// Tmax = 2·|R_t| · (1+ε₂)/(1−ε₂) · ε₃²/ε₂²
/// ```
///
/// — proportional to the pool so a hopeless early candidate (tiny
/// influence, which the plain stopping rule would chase for `Ω(n)`
/// samples) costs at most a constant factor of the find work.
pub(crate) fn t_max_samples(pool_size: u64, e: SsaEpsilons) -> u64 {
    (2.0 * pool_size as f64 * (1.0 + e.e2) / (1.0 - e.e2) * (e.e3 * e.e3) / (e.e2 * e.e2)).ceil()
        as u64
}

/// Stop-and-Stare: generate RR sets, stop at exponential checkpoints, and
/// *stare* — verify statistically whether the current greedy solution is
/// already `(1 − 1/e − ε)`-optimal.
///
/// Per iteration `t` the pool holds `Λ·2^(t−1)` RR sets (clamped at
/// `⌈Nmax⌉` on the final doubling). After running Max-Coverage the
/// algorithm stops only when both hold (evaluated by the shared
/// [`crate::bounds::certificate::Certificate`]; the
/// [`crate::StoppingRule`] selection is recorded but cannot change
/// SSA's behavior, since its ε-split is static):
///
/// * **C1** `Cov_R(Ŝ_k) ≥ Λ₁` — enough coverage mass that the optimum's
///   influence is estimated within relative error ε₃ (Lemmas 5–6);
/// * **C2** `Î(Ŝ_k) ≤ (1+ε₁)·I_c(Ŝ_k)` — the pool estimate agrees with an
///   *independent* [`crate::estimate_inf`] validation of relative error
///   ε₂.
///
/// A nominal cap `Nmax` (never binding in expectation) bounds the worst
/// case. SSA meets a type-1 minimum RIS threshold within a constant
/// factor (Theorem 3).
#[derive(Debug, Clone)]
pub struct Ssa {
    params: Params,
    epsilons: SsaEpsilons,
    recycle_verification: bool,
}

impl Ssa {
    /// SSA with the paper's recommended ε-split (Eqs. 19–20).
    pub fn new(params: Params) -> Self {
        Ssa {
            params,
            epsilons: SsaEpsilons::recommended(params.epsilon),
            recycle_verification: false,
        }
    }

    /// SSA with a custom ε-split; the split must satisfy Eq. 18 for the
    /// target ε.
    pub fn with_epsilons(params: Params, epsilons: SsaEpsilons) -> Result<Self, CoreError> {
        epsilons.validate(params.epsilon)?;
        Ok(Ssa { params, epsilons, recycle_verification: false })
    }

    /// Enables the §5.2 future-work heuristic: RR sets generated by
    /// Estimate-Inf are recycled into the find pool instead of being
    /// discarded, reducing total samples at the cost of the formal
    /// independence between pool and verification (the guarantee becomes
    /// heuristic — D-SSA is the principled way to get sample reuse).
    pub fn with_verification_recycling(mut self, on: bool) -> Self {
        self.recycle_verification = on;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The ε-split in effect.
    pub fn epsilons(&self) -> SsaEpsilons {
        self.epsilons
    }

    /// Runs SSA and returns the seed set with run statistics.
    pub fn run(&self, ctx: &SamplingContext<'_>) -> Result<RunResult, CoreError> {
        let start = Instant::now();
        let n = ctx.graph().num_nodes() as u64;
        let k = self.params.k.min(n as usize);
        let eps = self.params.epsilon;
        let delta = self.params.delta;
        let e2 = self.epsilons.e2;
        let gamma = ctx.gamma();

        let n_max = bounds::nmax(n, k as u64, eps, delta, ctx.cap_ratio(k));
        let i_max = bounds::max_iterations(n_max, eps, delta);
        let delta_iter = delta / (3.0 * f64::from(i_max));
        // Λ: initial pool size. The C1 threshold Λ₁ and the C2 agreement
        // check live in the shared stopping-rule certificate (the
        // StoppingRule selection is recorded but cannot change SSA's
        // behavior — its ε-split is static, so both readings coincide).
        let lambda = upsilon(eps, delta_iter).ceil().max(1.0) as u64;
        let cert = Certificate::ssa(self.params.rule, eps, self.epsilons, delta_iter, gamma);
        // Clamp the schedule at ⌈Nmax⌉: the final doubling must not
        // overshoot the nominal cap (same fix as D-SSA's).
        let cap_sets = (n_max.ceil() as u64).max(1);

        let mut pool = RrCollection::new(ctx.graph().num_nodes());
        let main_sampler = ctx.sampler(0);
        // One selection scratch for the whole run: the per-round coverage
        // view's gain/heap/stamp buffers stay at high-water capacity.
        let mut cover_scratch = GreedyScratch::new();
        // Likewise one verification scratch: Estimate-Inf's seed table
        // stays allocated instead of costing O(n) per checkpoint.
        let mut verify_scratch = EstimateScratch::new();
        let mut verify_samples = 0u64;
        let mut verify_edges = 0u64;
        let mut peak_bytes = 0u64;
        let mut coverage_first_met = None;
        let mut last = None;

        for t in 1..=i_max {
            // SSA's pool at iteration t: Λ·2^(t−1) sets, saturating.
            let scheduled = bounds::schedule_target(lambda, t - 1, u64::MAX);
            let target = scheduled.min(cap_sets);
            let have = pool.len() as u64;
            if target > have {
                pool.extend_parallel(&main_sampler, have, target - have, ctx.threads());
            }
            // Unconditional: recycled verification sets were pushed after
            // the last seal and must be indexed before selection too.
            let _ = pool.seal_parallel(ctx.threads());
            peak_bytes = peak_bytes.max(pool.memory_bytes());
            // with verification recycling the pool can exceed the
            // schedule's target; estimates always use the real size
            let pool_size = pool.len() as u64;

            let cover = max_coverage_with(&pool, k, pool.id_range(), &mut cover_scratch);
            let i_hat = cover.influence_estimate(gamma, pool_size);

            let mut stop = false;
            if cert.coverage_met(cover.covered) {
                // Condition C1 met: validate with an independent stream.
                coverage_first_met.get_or_insert(t);
                let t_max = t_max_samples(pool_size, self.epsilons);
                let mut verifier = ctx.sampler(u64::from(t));
                let outcome = crate::estimate_inf::estimate_inf_with_sink(
                    &mut verifier,
                    &cover.seeds,
                    e2,
                    delta_iter,
                    t_max,
                    gamma,
                    if self.recycle_verification { Some(&mut pool) } else { None },
                    &mut verify_scratch,
                );
                verify_samples += outcome.samples_used;
                verify_edges += outcome.edges_examined;
                if let Some(i_c) = outcome.influence {
                    // Condition C2: pool and validation estimates agree.
                    stop = cert.agreement(i_hat, i_c);
                }
            }

            // The cap is on *real* samples: with verification recycling
            // the pool can outgrow the schedule `target`, and comparing
            // the target would keep looping past Nmax. A schedule the
            // clamp trimmed counts as capped too.
            let hit_cap = target < scheduled || pool.len() as f64 >= n_max;
            let binding = if stop {
                if coverage_first_met == Some(t) {
                    StopCondition::Coverage
                } else {
                    StopCondition::Precision
                }
            } else {
                StopCondition::Cap
            };
            last = Some(RunResult {
                seeds: cover.seeds,
                influence_estimate: i_hat,
                rr_sets_main: pool_size,
                // recycled verification sets already live in the pool;
                // counting them again would double-count total samples
                rr_sets_verify: if self.recycle_verification { 0 } else { verify_samples },
                iterations: t,
                hit_cap: hit_cap && !stop,
                stopping_rule: Some(cert.rule()),
                binding,
                wall_time: start.elapsed(),
                peak_pool_bytes: peak_bytes,
                total_edges_examined: pool.total_edges_examined() + verify_edges,
            });
            if stop || hit_cap {
                break;
            }
        }

        last.ok_or_else(|| CoreError::InvalidParams("no iterations executed".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::schedule_target;
    use sns_diffusion::Model;
    use sns_graph::{gen, Graph, GraphBuilder, WeightModel};

    #[test]
    fn schedule_saturates_instead_of_panicking() {
        // SSA's iteration t pool is Λ·2^(t−1): the shared helper at
        // doublings = t − 1.
        let cap = 1 << 40;
        assert_eq!(schedule_target(3, 0, cap), 3);
        assert_eq!(schedule_target(3, 3, cap), 24);
        // t − 1 ∈ {63, 64, 65}: a bare shift would drop high bits (63)
        // or panic (≥ 64); the schedule reads as the cap, and the
        // uncapped value saturates so `hit_cap` sees it exceed the cap.
        for doublings in [63, 64, 65] {
            assert_eq!(schedule_target(3, doublings, cap), cap, "t − 1 = {doublings}");
            assert_eq!(schedule_target(3, doublings, u64::MAX), u64::MAX);
        }
        for lambda in [u64::MAX - 1, u64::MAX] {
            for doublings in [0, 1, 63, 64, 65] {
                assert_eq!(schedule_target(lambda, doublings, cap), cap, "λ = {lambda}");
            }
            assert_eq!(schedule_target(lambda, 1, u64::MAX), u64::MAX);
        }
    }

    /// A graph where node 0 trivially dominates: 0 reaches a large clique
    /// tail with certainty.
    fn dominated_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for v in 1..60 {
            b.add_edge(0, v, 1.0);
        }
        // noise edges so other nodes exist in RR sets
        for v in 1..59 {
            b.add_edge(v, v + 1, 0.05);
        }
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn finds_the_dominating_seed() {
        let g = dominated_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
        let params = Params::new(1, 0.3, 0.1).unwrap();
        let r = Ssa::new(params).run(&ctx).unwrap();
        assert_eq!(r.seeds, vec![0]);
        assert!(!r.hit_cap, "stopping conditions should fire before the cap");
        // I({0}) = 60 exactly (all edges from 0 deterministic)
        assert!((r.influence_estimate - 60.0).abs() < 10.0, "Î = {}", r.influence_estimate);
        assert!(r.rr_sets_verify > 0, "C2 must have consumed verification samples");
    }

    #[test]
    fn deterministic_under_fixed_seed_and_any_threads() {
        let g = gen::erdos_renyi(400, 2400, 3).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let r1 = Ssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9).with_threads(1))
            .unwrap();
        let r2 = Ssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9).with_threads(4))
            .unwrap();
        assert_eq!(r1.seeds, r2.seeds);
        assert_eq!(r1.rr_sets_main, r2.rr_sets_main);
        assert_eq!(r1.influence_estimate, r2.influence_estimate);
    }

    #[test]
    fn k_clamped_to_n() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.5);
        let g = b.build(WeightModel::Provided).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(2);
        let params = Params::new(50, 0.3, 0.2).unwrap();
        let r = Ssa::new(params).run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 3);
    }

    #[test]
    fn custom_epsilon_split_respected() {
        let params = Params::new(2, 0.3, 0.1).unwrap();
        let ok = SsaEpsilons { e1: 0.05, e2: 0.15, e3: 0.15 };
        assert!(ok.validate(0.3).is_ok());
        let g = gen::erdos_renyi(100, 500, 1).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(4);
        let r = Ssa::with_epsilons(params, ok).unwrap().run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 2);

        let bad = SsaEpsilons { e1: 1.0, e2: 0.9, e3: 0.9 };
        assert!(Ssa::with_epsilons(params, bad).is_err());
    }

    #[test]
    fn verification_recycling_reduces_total_samples() {
        let g = gen::rmat(1500, 9000, gen::RmatParams::GRAPH500, 7)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let params = Params::new(10, 0.25, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(3);
        let plain = Ssa::new(params).run(&ctx).unwrap();
        let recycled = Ssa::new(params).with_verification_recycling(true).run(&ctx).unwrap();
        assert_eq!(recycled.rr_sets_verify, 0);
        assert!(
            recycled.rr_sets_total() <= plain.rr_sets_total(),
            "recycling used {} sets vs plain {}",
            recycled.rr_sets_total(),
            plain.rr_sets_total()
        );
        // quality stays comparable (heuristic mode, but empirically fine)
        assert_eq!(recycled.seeds.len(), 10);
    }

    #[test]
    fn t_max_closed_form_matches_algorithm_1() {
        // Algorithm 1, line 8: Tmax = 2|R_t|·(1+ε₂)/(1−ε₂)·ε₃²/ε₂².
        // With the recommended split ε₂ = ε₃ the ratio collapses to
        // 2|R_t|(1+ε₂)/(1−ε₂) — pin both shapes by hand.
        let rec = SsaEpsilons::recommended(0.1);
        assert_eq!(rec.e2, rec.e3);
        let want = (2.0 * 1000.0 * (1.0 + rec.e2) / (1.0 - rec.e2)).ceil() as u64;
        assert_eq!(t_max_samples(1000, rec), want);

        // An asymmetric split exercises the ε₃²/ε₂² factor.
        let custom = SsaEpsilons { e1: 0.05, e2: 0.1, e3: 0.2 };
        let want = (2.0f64 * 500.0 * 1.1 / 0.9 * (0.2 * 0.2) / (0.1 * 0.1)).ceil() as u64;
        assert_eq!(t_max_samples(500, custom), want);
        // a looser ε₃ (cheaper C1) buys a larger verification budget
        assert!(t_max_samples(500, custom) > t_max_samples(500, SsaEpsilons { e3: 0.1, ..custom }));
    }

    #[test]
    fn stats_are_coherent() {
        let g = gen::erdos_renyi(200, 1200, 5).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(11);
        let r = Ssa::new(Params::new(3, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        assert!(r.rr_sets_main > 0);
        assert!(r.iterations >= 1);
        assert!(r.peak_pool_bytes > 0);
        assert!(r.total_edges_examined > 0);
        assert_eq!(r.rr_sets_total(), r.rr_sets_main + r.rr_sets_verify);
    }
}

//! The Dynamic Stop-and-Stare Algorithm — Algorithm 4 of the paper.

// Sanctioned wall-clock read: report-only elapsed-time stat (see lint-allow.toml).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use sns_rrset::{max_coverage_with, GreedyScratch, RrCollection};

use crate::bounds::certificate::{DssaCertificate, PrecisionCheck, StopCondition};
use crate::bounds::{self, upsilon};
use crate::{CoreError, Params, RunResult, SamplingContext};

/// Dynamic Stop-and-Stare: like [`crate::Ssa`] but with the precision
/// split `(ε₁, ε₂, ε₃)` computed *from the data* at every checkpoint, and
/// a single sample stream whose verification half is recycled into the
/// next iteration's find half.
///
/// At iteration `t` the stream's first `Λ·2^(t−1)` sets (`R_t`) feed
/// Max-Coverage and the next `Λ·2^(t−1)` sets (`R^c_t`) verify the
/// candidate. Both stopping checks are evaluated by the run's
/// [`DssaCertificate`] (`bounds::certificate`, beside SSA's):
///
/// * **D1** `Cov_{R^c_t}(Ŝ_k) ≥ Λ₁` — the verify half carries enough
///   coverage for an (ε, δ/3tmax)-estimate of `I(Ŝ_k)` (stopping-rule
///   condition of Dagum et al.);
/// * **D2** `ε_t = (ε₁ + ε₂ + ε₁ε₂)(1 − 1/e − ε) + (1 − 1/e)ε₃ ≤ ε` with
///   `ε₁ = max(0, Î_t/Î^c_t − 1)`, ε₂ the smallest precision the verify
///   coverage certifies under the stopping-rule count
///   `Cov_{R^c_t} ≥ (1+ε₂)·Υ(ε₂, δ/3tmax)`, and the gap-adjusted
///   `ε₃ = ε₂·√((1−1/e−ε)/(1+ε₂/3))` — the D-SSA-Fix anchor, which
///   carries the `(1 − 1/e − ε, 1 − δ)` guarantee
///   (`docs/DERIVATIONS.md` §4).
///
/// The final pool extension is clamped at `⌈Nmax⌉` — the doubling
/// schedule is not allowed to overshoot the nominal cap by up to 2× as
/// an earlier revision did.
///
/// D-SSA achieves the **type-2 minimum threshold** — the fewest samples
/// any RIS-framework algorithm can use — within a constant factor
/// (Theorem 6); empirically it needs no parameter tuning, which is why it
/// dominates SSA on every network in the paper's §7.
#[derive(Debug, Clone)]
pub struct Dssa {
    params: Params,
}

/// One stop-and-stare checkpoint of a D-SSA run, as recorded by
/// [`Dssa::run_traced`]: the dynamically derived precision split and the
/// realized `ε_t` that condition D2 compares against ε.
#[derive(Debug, Clone, PartialEq)]
pub struct DssaIteration {
    /// Iteration index `t` (1-based).
    pub t: u32,
    /// Pool size `|R_t| + |R^c_t| = Λ·2^t` at this checkpoint (clamped
    /// at `⌈Nmax⌉` on a cap-hitting final iteration).
    pub pool_size: u64,
    /// Influence estimate from the find half.
    pub influence_find: f64,
    /// The precision check D2 made at this checkpoint — the verify-half
    /// estimate, the dynamic `(ε₁, ε₂, ε₃)` (ε₁ clamped at 0) and the
    /// realized `ε_t` — or `None` while condition D1 (enough verify
    /// coverage) has not fired yet.
    pub check: Option<PrecisionCheck>,
}

impl Dssa {
    /// D-SSA for the given `(k, ε, δ)` — no further tuning exists, by
    /// design.
    pub fn new(params: Params) -> Self {
        Dssa { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Runs D-SSA and returns the seed set with run statistics.
    pub fn run(&self, ctx: &SamplingContext<'_>) -> Result<RunResult, CoreError> {
        self.run_inner(ctx, None)
    }

    /// Like [`Dssa::run`], additionally recording every checkpoint's
    /// dynamic ε-split and realized `ε_t` — the §6 story made visible
    /// (see `examples/convergence.rs` in the repository root).
    pub fn run_traced(
        &self,
        ctx: &SamplingContext<'_>,
    ) -> Result<(RunResult, Vec<DssaIteration>), CoreError> {
        let mut trace = Vec::new();
        let result = self.run_inner(ctx, Some(&mut trace))?;
        Ok((result, trace))
    }

    fn run_inner(
        &self,
        ctx: &SamplingContext<'_>,
        mut trace: Option<&mut Vec<DssaIteration>>,
    ) -> Result<RunResult, CoreError> {
        let start = Instant::now();
        let n = ctx.graph().num_nodes() as u64;
        let k = self.params.k.min(n as usize);
        let eps = self.params.epsilon;
        let delta = self.params.delta;
        let gamma = ctx.gamma();

        let n_max = bounds::nmax(n, k as u64, eps, delta, ctx.cap_ratio(k));
        let t_max = bounds::max_iterations(n_max, eps, delta);
        let delta_iter = delta / (3.0 * f64::from(t_max));
        let lambda = upsilon(eps, delta_iter).ceil().max(1.0) as u64;
        // D1's Λ₁ threshold and D2's certified ε-split.
        let cert = DssaCertificate::new(eps, delta_iter, gamma);
        // The last extension must not overshoot the nominal cap: the
        // schedule is clamped at ⌈Nmax⌉ sets (kept even so the find and
        // verify halves stay equal-sized). `as` saturates for the huge
        // Nmax of large instances, where the clamp never binds.
        let cap_sets = (n_max.ceil() as u64).max(2) & !1;

        let mut pool = RrCollection::new(ctx.graph().num_nodes());
        let sampler = ctx.sampler(0);
        // One selection scratch for the whole run: the per-round coverage
        // view's gain/heap/stamp buffers stay at high-water capacity.
        let mut cover_scratch = GreedyScratch::new();
        let mut scratch = Vec::new();
        let mut peak_bytes = 0u64;
        let mut coverage_first_met = None;
        let mut last = None;

        for t in 1..=t_max {
            // D-SSA's pool at iteration t: 2Λ·2^(t−1) = Λ·2^t sets.
            let full = bounds::schedule_target(lambda, t, cap_sets);
            let half = full / 2;
            let have = pool.len() as u64;
            if full > have {
                pool.extend_parallel(&sampler, have, full - have, ctx.threads());
            }
            peak_bytes = peak_bytes.max(pool.memory_bytes());

            // Find on the first half, verify on the second.
            let cover = max_coverage_with(&pool, k, 0..half as u32, &mut cover_scratch);
            let i_t = cover.influence_estimate(gamma, half);
            let cov_c =
                pool.coverage_of_range(&cover.seeds, half as u32..full as u32, &mut scratch);

            // Once condition D1 holds, derive the dynamic ε-split and
            // check condition D2.
            let check = cert.coverage_met(cov_c).then(|| cert.dssa_precision(i_t, cov_c, half));
            if check.is_some() {
                coverage_first_met.get_or_insert(t);
            }
            let stop = check.is_some_and(|c| c.satisfied);
            if let Some(sink) = trace.as_deref_mut() {
                sink.push(DssaIteration { t, pool_size: full, influence_find: i_t, check });
            }

            // Capped once the pool reaches the clamp bound (it can never
            // grow past `cap_sets`, so `full == cap_sets` means every
            // later iteration would rescan an unchanged pool) or Nmax.
            let hit_cap = full >= cap_sets || full as f64 >= n_max;
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
                influence_estimate: i_t,
                rr_sets_main: full,
                rr_sets_verify: 0, // the verify half is recycled, not extra
                iterations: t,
                hit_cap: hit_cap && !stop,
                binding,
                wall_time: start.elapsed(),
                peak_pool_bytes: peak_bytes,
                total_edges_examined: pool.total_edges_examined(),
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
    use crate::bounds::certificate::certified_precision;
    use crate::bounds::{schedule_target, ONE_MINUS_INV_E};

    #[test]
    fn schedule_doubles_and_saturates_at_the_cap() {
        let cap = 1 << 40;
        assert_eq!(schedule_target(3, 1, cap), 6);
        assert_eq!(schedule_target(3, 4, cap), 48);
        assert_eq!(schedule_target(3, 4, 40), 40);
        // Shifts of 64 or more and products past u64 read as the cap.
        for t in [63, 64, 65, u32::MAX] {
            assert_eq!(schedule_target(1, t, cap), cap, "t = {t}");
        }
        for lambda in [1 << 62, (1 << 62) + 1, u64::MAX] {
            for t in [1, 2, 3, 64] {
                assert_eq!(schedule_target(lambda, t, cap), cap, "λ = {lambda}, t = {t}");
            }
            // Λ·2^t ≥ 2^64 from t = 2 on: saturated, not wrapped.
            assert_eq!(schedule_target(lambda, 2, u64::MAX), u64::MAX);
        }
    }
    use sns_diffusion::Model;
    use sns_graph::{gen, Graph, GraphBuilder, WeightModel};

    fn dominated_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for v in 1..60 {
            b.add_edge(0, v, 1.0);
        }
        for v in 1..59 {
            b.add_edge(v, v + 1, 0.05);
        }
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn finds_the_dominating_seed() {
        let g = dominated_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
        let r = Dssa::new(Params::new(1, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        assert_eq!(r.seeds, vec![0]);
        assert!(!r.hit_cap);
        assert!((r.influence_estimate - 60.0).abs() < 10.0, "Î = {}", r.influence_estimate);
        assert_eq!(r.rr_sets_verify, 0, "D-SSA recycles its verify half");
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let g = gen::erdos_renyi(400, 2400, 3).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let r1 = Dssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9).with_threads(1))
            .unwrap();
        let r2 = Dssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9).with_threads(4))
            .unwrap();
        assert_eq!(r1.seeds, r2.seeds);
        assert_eq!(r1.rr_sets_main, r2.rr_sets_main);
    }

    #[test]
    fn uses_fewer_or_similar_samples_than_ssa() {
        // The headline claim (type-2 vs type-1 threshold): D-SSA's total
        // sample count should not exceed SSA's by more than a small
        // factor, and usually beats it.
        let g = gen::rmat(2000, 12_000, gen::RmatParams::GRAPH500, 7)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let params = Params::new(10, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(5);
        let d = Dssa::new(params).run(&ctx).unwrap();
        let s = crate::Ssa::new(params).run(&ctx).unwrap();
        assert!(
            d.rr_sets_total() <= 2 * s.rr_sets_total(),
            "D-SSA used {} sets vs SSA {}",
            d.rr_sets_total(),
            s.rr_sets_total()
        );
    }

    #[test]
    fn weighted_universe_supported() {
        // TVM through the same code path: weight only nodes 0..10.
        let g = gen::erdos_renyi(200, 1000, 2).build(WeightModel::WeightedCascade).unwrap();
        let mut w = vec![0.0f64; 200];
        for slot in w.iter_mut().take(10) {
            *slot = 1.0;
        }
        let ctx = SamplingContext::new(&g, Model::IndependentCascade)
            .with_seed(3)
            .with_weighted_roots(&w)
            .unwrap();
        let r = Dssa::new(Params::new(3, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 3);
        // targeted influence can be at most Γ = 10
        assert!(r.influence_estimate <= 10.0 * 1.3);
    }

    #[test]
    fn traced_run_matches_plain_run_and_exposes_epsilons() {
        let g = gen::erdos_renyi(400, 2400, 3).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(9);
        let plain = Dssa::new(params).run(&ctx).unwrap();
        let (traced, trace) = Dssa::new(params).run_traced(&ctx).unwrap();
        // identical up to wall-clock time
        assert_eq!(plain.seeds, traced.seeds);
        assert_eq!(plain.influence_estimate, traced.influence_estimate);
        assert_eq!(plain.rr_sets_main, traced.rr_sets_main);
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(plain.total_edges_examined, traced.total_edges_examined);
        assert_eq!(trace.len() as u32, traced.iterations);
        // the final checkpoint must have fired D1 + D2 (no cap hit here)
        let last = trace.last().unwrap();
        assert!(!traced.hit_cap);
        let eps_t = last.check.expect("D1 fired at the stopping iteration").eps_t;
        assert!(eps_t <= 0.3, "stopping eps_t = {eps_t}");
        // Pin the certified Algorithm-4 split: each passing checkpoint's
        // ε₂ is what its verify coverage certifies at δ′ = δ/(3·tmax), and
        // ε₃ the gap-adjusted anchor of that ε₂.
        let (gamma, eps, delta) = (400.0, 0.3, 0.1);
        let gap = ONE_MINUS_INV_E - eps;
        let t_max =
            bounds::max_iterations(bounds::nmax(400, 5, eps, delta, ctx.cap_ratio(5)), eps, delta);
        let delta_iter = delta / (3.0 * f64::from(t_max));
        for r in &trace {
            let Some(PrecisionCheck { e2, e3, i_verify, .. }) = r.check else { continue };
            let half = r.pool_size as f64 / 2.0;
            let cov = (i_verify * half / gamma).round();
            let want_e2 = certified_precision(cov, delta_iter);
            assert_eq!(e2, want_e2, "t = {}", r.t);
            assert_eq!(e3, want_e2 * (gap / (1.0 + want_e2 / 3.0)).sqrt(), "t = {}", r.t);
            assert!(e2 < eps, "D1 coverage certifies better than ε, got {e2}");
        }
        // ε₂, ε₃ must shrink monotonically across D1-passing checkpoints
        let passing: Vec<f64> = trace.iter().filter_map(|r| r.check).map(|c| c.e2).collect();
        for w in passing.windows(2) {
            assert!(w[1] <= w[0] * 1.5, "e2 did not trend down: {passing:?}");
        }
        // pool sizes double
        for w in trace.windows(2) {
            assert_eq!(w[1].pool_size, 2 * w[0].pool_size);
        }
    }

    #[test]
    fn k_equals_n_selects_everyone() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.5);
        let g = b.build(WeightModel::Provided).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(2);
        let r = Dssa::new(Params::new(3, 0.3, 0.2).unwrap()).run(&ctx).unwrap();
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2]);
    }
}

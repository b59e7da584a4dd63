//! TIM and TIM+ — "Influence Maximization: Near-Optimal Time Complexity
//! Meets Practical Efficiency" (Tang, Xiao, Shi — SIGMOD'14).
//!
//! TIM was the first practical RIS algorithm. It estimates `KPT* ≤ OPT_k`
//! (the expected influence of a size-k node sample) from the *width* of
//! random RR sets, then draws `θ = λ/KPT` sets. TIM+ adds an intermediate
//! refinement: a greedy solution on the estimation pool is re-measured to
//! tighten KPT* into KPT+, often cutting θ substantially.
//!
//! The Stop-and-Stare paper's critique (§3.2): `OPT_k/KPT+` is not upper
//! bounded, so TIM can oversample arbitrarily — the experiments in §7
//! confirm both TIM variants trail IMM, which trails SSA/D-SSA.

// Sanctioned wall-clock read: report-only elapsed-time stat (see lint-allow.toml).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use sns_core::bounds::certificate::StopCondition;
use sns_core::bounds::ln_choose;
use sns_core::{CoreError, Params, RunResult, SamplingContext};
use sns_rrset::{max_coverage_with, GreedyScratch, RrCollection};

/// Which TIM variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimVariant {
    /// Plain TIM: `θ = λ/KPT*`.
    Plain,
    /// TIM+: refine KPT* into KPT+ with an intermediate greedy pass
    /// before computing θ.
    Plus,
}

/// The TIM / TIM+ algorithm.
#[derive(Debug, Clone)]
pub struct Tim {
    params: Params,
    variant: TimVariant,
}

impl Tim {
    /// Plain TIM for the given `(k, ε, δ)`.
    pub fn new(params: Params) -> Self {
        Tim { params, variant: TimVariant::Plain }
    }

    /// TIM+ for the given `(k, ε, δ)`.
    pub fn plus(params: Params) -> Self {
        Tim { params, variant: TimVariant::Plus }
    }

    /// The configured parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The configured variant.
    pub fn variant(&self) -> TimVariant {
        self.variant
    }

    /// Runs TIM/TIM+ and returns the seed set with run statistics.
    pub fn run(&self, ctx: &SamplingContext<'_>) -> Result<RunResult, CoreError> {
        let start = Instant::now();
        let g = ctx.graph();
        let n = g.num_nodes() as u64;
        let nf = n as f64;
        let m = g.num_arcs().max(1) as f64;
        let k = self.params.k.min(n as usize);
        let eps = self.params.epsilon;
        let gamma = ctx.gamma();

        let ln_n = nf.max(2.0).ln();
        let l = ((1.0 / self.params.delta).ln() / ln_n) * (1.0 + 2f64.ln() / ln_n);
        let log2n = nf.log2().max(2.0);

        // ---- KPT estimation (TIM Algorithm 2) -------------------------
        // κ(R) = 1 − (1 − w(R)/m)^k with w(R) the number of arcs into R;
        // E[κ] relates to the influence of a random size-k seed sample.
        let mut pool = RrCollection::new(g.num_nodes());
        let mut sampler = ctx.sampler(0);
        // Selection scratch shared by the TIM+ refinement and phase 2.
        let mut cover_scratch = GreedyScratch::new();
        let mut rr = Vec::new();
        let mut iterations = 0u32;
        let mut kpt_star = 1.0f64;
        let mut peak_bytes = 0u64;

        'estimate: for i in 1..(log2n.floor() as i32) {
            iterations += 1;
            let c_i = ((6.0 * l * ln_n + 6.0 * log2n.ln()) * 2f64.powi(i)).ceil() as u64;
            let mut sum = 0.0f64;
            let from = pool.len() as u64;
            for j in 0..c_i {
                let meta = sampler.sample(from + j, &mut rr);
                let width = g.width_of(&rr) as f64;
                let kappa = 1.0 - (1.0 - width / m).powi(k as i32);
                sum += kappa;
                pool.push(&rr, meta);
            }
            if sum / c_i as f64 > 1.0 / 2f64.powi(i) {
                kpt_star = nf * sum / (2.0 * c_i as f64);
                break 'estimate;
            }
        }

        // The KPT sets stay in the pool: index them before any selection.
        let _ = pool.seal_parallel(ctx.threads());
        peak_bytes = peak_bytes.max(pool.memory_bytes());

        // ---- KPT refinement (TIM+ Algorithm 3) ------------------------
        let kpt = match self.variant {
            TimVariant::Plain => kpt_star,
            TimVariant::Plus => {
                iterations += 1;
                // ε' = 5·∛(l·ε²/(k+l)) — the paper's recommended balance.
                let eps_ref = 5.0 * (l * eps * eps / (k as f64 + l)).cbrt();
                let eps_ref = eps_ref.min(0.9); // keep the estimator sane
                let cover = max_coverage_with(&pool, k, pool.id_range(), &mut cover_scratch);
                let lambda_ref = (2.0 + eps_ref) * l * nf * ln_n / (eps_ref * eps_ref);
                let theta_ref = (lambda_ref / kpt_star).ceil() as u64;
                // Fresh, independent sets measure the greedy candidate.
                let mut verifier = ctx.sampler(1);
                let mut is_seed = vec![false; n as usize];
                for &s in &cover.seeds {
                    is_seed[s as usize] = true;
                }
                let mut covered = 0u64;
                for j in 0..theta_ref {
                    verifier.sample(j, &mut rr);
                    if rr.iter().any(|&v| is_seed[v as usize]) {
                        covered += 1;
                    }
                }
                let kpt_prime = gamma * covered as f64 / theta_ref.max(1) as f64 / (1.0 + eps_ref);
                kpt_star.max(kpt_prime)
            }
        };

        // ---- Main sampling: θ = λ/KPT ---------------------------------
        let lambda =
            (8.0 + 2.0 * eps) * nf * (l * ln_n + ln_choose(n, k as u64) + 2f64.ln()) / (eps * eps);
        let theta = (lambda / kpt).ceil() as u64;
        let have = pool.len() as u64;
        if theta > have {
            pool.extend_parallel(&sampler, have, theta - have, ctx.threads());
        }
        let _ = pool.seal_parallel(ctx.threads());
        peak_bytes = peak_bytes.max(pool.memory_bytes());
        iterations += 1;

        let cover = max_coverage_with(&pool, k, pool.id_range(), &mut cover_scratch);
        let pool_size = pool.len() as u64;
        let i_hat = cover.influence_estimate(gamma, pool_size);

        Ok(RunResult {
            seeds: cover.seeds,
            influence_estimate: i_hat,
            rr_sets_main: pool_size,
            rr_sets_verify: 0,
            iterations,
            hit_cap: false,
            binding: StopCondition::Schedule,
            wall_time: start.elapsed(),
            peak_pool_bytes: peak_bytes,
            total_edges_examined: pool.total_edges_examined(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_diffusion::Model;
    use sns_graph::{gen, GraphBuilder, WeightModel};

    #[test]
    fn finds_the_dominating_seed() {
        let mut b = GraphBuilder::new();
        for v in 1..40 {
            b.add_edge(0, v, 1.0);
        }
        for v in 1..39 {
            b.add_edge(v, v + 1, 0.05);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
        for algo in [
            Tim::new(Params::new(1, 0.3, 0.1).unwrap()),
            Tim::plus(Params::new(1, 0.3, 0.1).unwrap()),
        ] {
            let r = algo.run(&ctx).unwrap();
            assert_eq!(r.seeds, vec![0], "{:?}", algo.variant());
        }
    }

    #[test]
    fn plus_never_uses_more_sets_than_plain() {
        // KPT+ ≥ KPT* ⇒ θ(TIM+) ≤ θ(TIM).
        let g = gen::rmat(1500, 9000, gen::RmatParams::GRAPH500, 3)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let params = Params::new(20, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(4);
        let plain = Tim::new(params).run(&ctx).unwrap();
        let plus = Tim::plus(params).run(&ctx).unwrap();
        assert!(
            plus.rr_sets_main <= plain.rr_sets_main,
            "TIM+ {} vs TIM {}",
            plus.rr_sets_main,
            plain.rr_sets_main
        );
    }

    #[test]
    fn uses_more_samples_than_imm() {
        // Figures 4–5 pattern: TIM+ ≥ IMM ≥ D-SSA in sampling effort.
        let g = gen::rmat(1200, 7000, gen::RmatParams::GRAPH500, 9)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let params = Params::new(20, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(8);
        let tim = Tim::plus(params).run(&ctx).unwrap();
        let imm = crate::Imm::new(params).run(&ctx).unwrap();
        // allow slack — both are concentration bounds — but TIM+ should
        // not beat IMM by more than a small factor
        assert!(
            tim.rr_sets_main as f64 > 0.5 * imm.rr_sets_main as f64,
            "TIM+ {} vs IMM {}",
            tim.rr_sets_main,
            imm.rr_sets_main
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::erdos_renyi(300, 1800, 4).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let a = Tim::plus(params)
            .run(&SamplingContext::new(&g, Model::IndependentCascade).with_seed(6))
            .unwrap();
        let b = Tim::plus(params)
            .run(&SamplingContext::new(&g, Model::IndependentCascade).with_seed(6))
            .unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.rr_sets_main, b.rr_sets_main);
    }
}

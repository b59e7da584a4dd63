//! Estimate-Inf — Algorithm 3 of the paper.
//!
//! A capped variant of the Stopping-Rule estimator of Dagum, Karp, Luby &
//! Ross ("An optimal algorithm for Monte Carlo estimation", SIAM J.
//! Comput. 2000): generate RR sets one at a time, count "successes" (sets
//! intersecting the candidate seed set), and stop as soon as the success
//! count reaches `Λ₂ = 1 + (1+ε')·Υ(ε', δ')`. The estimate `Γ·Λ₂/T` then
//! satisfies the one-sided guarantee `Pr[I_c(S) ≤ (1+ε')·I(S)] ≥ 1 − δ'`
//! (Lemma 3).
//!
//! The cap `Tmax` is the paper's innovation over the plain stopping rule:
//! early SSA candidates can have tiny influence and would need `Ω(n)`
//! samples to verify; capping proportional to the pool size keeps the
//! total work linear in the final pool.
//!
//! Only the indicator "`R_j ∩ S ≠ ∅`" of each set enters the estimator,
//! so each set is grown with [`RrSampler::sample_until`] and stops at the
//! first seed it reaches. Set `j` has its own RNG stream
//! (`Xoshiro256pp::for_sample(master, j)`), and the growth up to that
//! seed draws exactly the bits the full growth draws; the stopped set
//! meets `S` iff the full set does, and no other set changes. The success
//! count after each sample, hence the stopping time `T` and the estimate
//! `Γ·Λ₂/T`, are therefore those of the full-set estimator, bit for bit.
//! Only the work falls: `edges_examined` of a stopped set counts the
//! in-degree of every node scanned before the stop, the node being
//! scanned when the seed was reached counted fully (a root that is a seed
//! examines nothing).

use sns_diffusion::RrSampler;
use sns_graph::NodeId;

use crate::bounds::upsilon;

/// Outcome of one Estimate-Inf invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateInfOutcome {
    /// The influence estimate `Γ·Λ₂/T`, or `None` if `Tmax` samples were
    /// exhausted first (the paper's `-1` return).
    pub influence: Option<f64>,
    /// RR sets generated by this invocation.
    pub samples_used: u64,
    /// In-edges examined while generating them (cost accounting).
    pub edges_examined: u64,
}

/// Reusable working state for [`estimate_inf`]: the O(1) seed-membership
/// table, *generation-stamped* like `sns_rrset::GreedyScratch` — node `v`
/// counts as a seed only when `stamp[v]` equals the current invocation's
/// generation, so starting a new invocation is a counter bump instead of
/// an `O(n)` re-allocation + clear. SSA calls Estimate-Inf once per
/// checkpoint; one scratch held across the run removes the per-checkpoint
/// `vec![false; n]` allocation the seed implementation paid.
#[derive(Debug, Clone, Default)]
pub struct EstimateScratch {
    /// Per-node seed mark: seed iff `== generation`.
    stamp: Vec<u32>,
    /// Current invocation's stamp; bumped by [`EstimateScratch::begin_run`].
    generation: u32,
}

impl EstimateScratch {
    /// Creates an empty scratch; the table is sized on first use.
    pub fn new() -> Self {
        EstimateScratch::default()
    }

    /// Starts a new invocation: bumps the generation and grows the stamp
    /// table to `n` nodes. Fresh (zeroed) entries can never equal a live
    /// generation because generations start at 1.
    fn begin_run(&mut self, n: usize) -> u32 {
        if self.generation == u32::MAX {
            // Wrapped after 2³² invocations: zero the stamps so stale
            // marks cannot alias generation numbers handed out again.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 0;
        }
        self.generation += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.generation
    }
}

/// Runs Estimate-Inf for `seeds` with relative error `eps_prime`,
/// failure probability `delta_prime` and sample cap `t_max`, consuming
/// sample indices `0..samples_used` from `sampler`'s stream.
///
/// `gamma` is the universe mass (`n` for IM, `Σ b(v)` for TVM).
pub fn estimate_inf(
    sampler: &mut RrSampler<'_>,
    seeds: &[NodeId],
    eps_prime: f64,
    delta_prime: f64,
    t_max: u64,
    gamma: f64,
) -> EstimateInfOutcome {
    estimate_inf_with_sink(
        sampler,
        seeds,
        eps_prime,
        delta_prime,
        t_max,
        gamma,
        None,
        &mut EstimateScratch::new(),
    )
}

/// [`estimate_inf`] with a caller-held `scratch` for the seed-membership
/// table; callers that verify round after round (SSA) hold one scratch
/// for the whole run.
///
/// The `_sink` parameter is ignored. It remains only for the benchmark
/// that passes `None`: the generated RR sets are always discarded, since
/// recycling them into the find pool would void Lemma 5's independence
/// between pool and validation.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 3's parameter list
pub fn estimate_inf_with_sink(
    sampler: &mut RrSampler<'_>,
    seeds: &[NodeId],
    eps_prime: f64,
    delta_prime: f64,
    t_max: u64,
    gamma: f64,
    _sink: Option<&mut sns_rrset::RrCollection>,
    scratch: &mut EstimateScratch,
) -> EstimateInfOutcome {
    let lambda2 = 1.0 + (1.0 + eps_prime) * upsilon(eps_prime, delta_prime);
    let needed = lambda2.ceil() as u64;

    // O(1) membership tests for |R ∩ S| without sorting RR sets.
    let n = sampler.graph().num_nodes() as usize;
    let generation = scratch.begin_run(n);
    for &s in seeds {
        // A seed id outside the graph is in no RR set: nothing to mark.
        if let Some(slot) = scratch.stamp.get_mut(s as usize) {
            *slot = generation;
        }
    }
    let is_seed = |v: NodeId| scratch.stamp.get(v as usize) == Some(&generation);

    let mut covered = 0u64;
    let mut edges = 0u64;
    let mut rr: Vec<NodeId> = Vec::new();
    for t in 1..=t_max {
        let (meta, hit) = sampler.sample_until(t - 1, &mut rr, is_seed);
        edges += meta.edges_examined;
        if hit {
            covered += 1;
            if covered >= needed {
                // Return with the real-valued Λ₂ as in the stopping-rule
                // analysis (the count crossed ⌈Λ₂⌉ ≥ Λ₂).
                return EstimateInfOutcome {
                    influence: Some(gamma * lambda2 / t as f64),
                    samples_used: t,
                    edges_examined: edges,
                };
            }
        }
    }
    EstimateInfOutcome { influence: None, samples_used: t_max, edges_examined: edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_diffusion::{Model, RootDist, RrSampler};
    use sns_graph::{Graph, GraphBuilder, WeightModel};

    fn isolated(n: u32) -> Graph {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(n);
        b.add_edge(0, 1, 0.0); // keep at least one (dead) edge
        b.build(WeightModel::Provided).unwrap()
    }

    /// On an edgeless graph every RR set is a uniform singleton, so
    /// I({v}) = 1 exactly, and Estimate-Inf must return ≈ 1 well within
    /// its (1+ε') guarantee.
    #[test]
    fn estimates_singleton_influence() {
        let g = isolated(10);
        let mut s = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 3);
        let out = estimate_inf(&mut s, &[4], 0.1, 0.01, 2_000_000, 10.0);
        let est = out.influence.expect("must converge");
        // one-sided guarantee: rarely above (1+ε)·I; two-sided in practice
        assert!(est <= 1.1 * 1.05, "estimate {est}");
        assert!(est > 0.75, "estimate {est}");
        assert!(out.samples_used > 100);
    }

    /// Seeding every node makes every sample a success: the estimator
    /// stops after exactly ⌈Λ₂⌉ samples with estimate ≈ Γ.
    #[test]
    fn full_seed_set_stops_at_lambda2() {
        let g = isolated(6);
        let mut s = RrSampler::with_config(&g, Model::LinearThreshold, RootDist::Uniform, 1);
        let seeds: Vec<u32> = (0..6).collect();
        let out = estimate_inf(&mut s, &seeds, 0.2, 0.05, 100_000, 6.0);
        let lambda2 = 1.0 + 1.2 * upsilon(0.2, 0.05);
        assert_eq!(out.samples_used, lambda2.ceil() as u64);
        let est = out.influence.unwrap();
        assert!((est - 6.0).abs() / 6.0 < 0.01, "estimate {est} should be ~Γ");
    }

    /// A cap smaller than the required successes forces the -1 path.
    #[test]
    fn cap_returns_none() {
        let g = isolated(10);
        let mut s = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 7);
        let out = estimate_inf(&mut s, &[0], 0.1, 0.01, 50, 10.0);
        assert!(out.influence.is_none());
        assert_eq!(out.samples_used, 50);
    }

    /// A seed id outside the graph is in no RR set, so it changes
    /// nothing — and must not index past the scratch's `n` stamps.
    #[test]
    fn seed_ids_outside_the_graph_are_ignored() {
        let n = 10;
        let g = isolated(n);
        let sampler = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 4);
        let want = estimate_inf(&mut sampler.clone(), &[0], 0.2, 0.05, 50_000, 10.0);
        let got = estimate_inf(&mut sampler.clone(), &[0, n + 5], 0.2, 0.05, 50_000, 10.0);
        assert_eq!(got, want);
        let none = estimate_inf(&mut sampler.clone(), &[n], 0.2, 0.05, 500, 10.0);
        assert_eq!(none.influence, None);
    }

    /// Full-set reference: samples every set whole and then scans it for
    /// a seed.
    fn full_set_reference(
        sampler: &mut RrSampler<'_>,
        seeds: &[NodeId],
        eps_prime: f64,
        delta_prime: f64,
        t_max: u64,
        gamma: f64,
    ) -> EstimateInfOutcome {
        let lambda2 = 1.0 + (1.0 + eps_prime) * upsilon(eps_prime, delta_prime);
        let (mut covered, mut edges, mut rr) = (0u64, 0u64, Vec::new());
        for t in 1..=t_max {
            edges += sampler.sample(t - 1, &mut rr).edges_examined;
            if rr.iter().any(|v| seeds.contains(v)) {
                covered += 1;
                if covered >= lambda2.ceil() as u64 {
                    let influence = Some(gamma * lambda2 / t as f64);
                    return EstimateInfOutcome {
                        influence,
                        samples_used: t,
                        edges_examined: edges,
                    };
                }
            }
        }
        EstimateInfOutcome { influence: None, samples_used: t_max, edges_examined: edges }
    }

    /// Stopping each set at its first seed leaves `(influence,
    /// samples_used)` bit-equal to the full-set estimator and never
    /// examines more edges, under IC and LT, for converging and capped
    /// runs alike.
    #[test]
    fn early_stop_matches_the_full_set_estimator() {
        let g =
            sns_graph::gen::erdos_renyi(300, 1500, 4).build(WeightModel::WeightedCascade).unwrap();
        let mut saved = 0;
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            for (seeds, t_max) in
                [(vec![0u32], 200_000), (vec![5, 17, 42, 99, 250], 200_000), (vec![7, 8], 300)]
            {
                let sampler = RrSampler::with_config(&g, model, RootDist::Uniform, 11);
                let got = estimate_inf(&mut sampler.clone(), &seeds, 0.2, 0.05, t_max, 300.0);
                let want =
                    full_set_reference(&mut sampler.clone(), &seeds, 0.2, 0.05, t_max, 300.0);
                let bits = |o: &EstimateInfOutcome| (o.influence.map(f64::to_bits), o.samples_used);
                assert_eq!(bits(&got), bits(&want), "{model}, seeds {seeds:?}");
                assert!(got.edges_examined <= want.edges_examined, "{model}, seeds {seeds:?}");
                saved += want.edges_examined - got.edges_examined;
            }
        }
        assert!(saved > 0, "no set ever stopped early");
    }

    /// A reused scratch must behave exactly like a fresh one: no stale
    /// seed marks from a previous (larger) seed set, even right at the
    /// generation wrap.
    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let g = isolated(8);
        let mut scratch = EstimateScratch::new();
        // Invocation 1 marks every node as a seed…
        let all: Vec<u32> = (0..8).collect();
        let mut s = RrSampler::with_config(&g, Model::LinearThreshold, RootDist::Uniform, 1);
        estimate_inf_with_sink(&mut s, &all, 0.2, 0.05, 100_000, 8.0, None, &mut scratch);
        // …later single-seed invocations must not see those marks.
        scratch.generation = u32::MAX; // also cross the wrap boundary
        for seed in [2u64, 5, 9] {
            let mut reused =
                RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, seed);
            let mut fresh = reused.clone();
            let got = estimate_inf_with_sink(
                &mut reused,
                &[3],
                0.2,
                0.05,
                50_000,
                8.0,
                None,
                &mut scratch,
            );
            let want = estimate_inf(&mut fresh, &[3], 0.2, 0.05, 50_000, 8.0);
            assert_eq!(got, want, "stream seed {seed}");
        }
    }

    /// The one-sided guarantee Pr[I_c > (1+ε')I] ≤ δ' holds empirically:
    /// across many independent runs, overshoots beyond (1+ε') are rare.
    #[test]
    fn one_sided_error_guarantee() {
        let g = isolated(8); // I({v}) = 1
        let (eps, delta) = (0.25, 0.1);
        let mut overshoots = 0;
        let runs = 200;
        for seed in 0..runs {
            let mut s =
                RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, seed);
            let out = estimate_inf(&mut s, &[3], eps, delta, 1_000_000, 8.0);
            if out.influence.unwrap() > (1.0 + eps) * 1.0 + 1e-9 {
                overshoots += 1;
            }
        }
        // expected ≤ δ·runs = 20; allow generous slack for test stability
        assert!(overshoots <= 40, "{overshoots}/{runs} overshoots");
    }
}

//! Property-based tests for the diffusion layer, centred on the paper's
//! Lemma 1 — the identity every RIS algorithm stands on:
//!
//! ```text
//! I(S) = n · Pr[S ∩ R ≠ ∅]       (uniform-root RR sets)
//! ```

use proptest::collection::vec;
use proptest::prelude::*;

use sns_diffusion::{CascadeSimulator, Model, RrSampler, SpreadEstimator};
use sns_graph::{Graph, GraphBuilder, InArc, WeightModel};

const N: u32 = 8;

/// Arbitrary small weighted digraph over 8 nodes.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    vec(((0u32..N, 0u32..N), 0.05f32..=1.0), 1..20).prop_map(|edges| {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(N);
        for ((u, v), w) in edges {
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        b.normalize_for_lt(true);
        b.build(WeightModel::Provided).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lemma 1: RR-coverage probability times n equals the forward
    /// influence, for every node, under both models.
    #[test]
    fn lemma1_holds_on_random_graphs(g in graph_strategy(), node in 0u32..N, seed in 0u64..50) {
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let samples = 40_000u64;
            let mut sampler = RrSampler::with_config(
                &g, model, sns_diffusion::RootDist::Uniform, seed);
            let mut rr = Vec::new();
            let mut hits = 0u64;
            for i in 0..samples {
                sampler.sample(i, &mut rr);
                if rr.contains(&node) {
                    hits += 1;
                }
            }
            let via_rr = f64::from(N) * hits as f64 / samples as f64;
            let via_fwd = SpreadEstimator::new(&g, model)
                .with_threads(1)
                .estimate(&[node], samples, seed ^ 0xABCD);
            // both are Monte Carlo with ~1/sqrt(40k) noise on means in [1, 8]
            prop_assert!(
                (via_rr - via_fwd).abs() < 0.12,
                "{model}: RR {via_rr:.3} vs forward {via_fwd:.3} for node {node}"
            );
        }
    }

    /// Spread is monotone under seed-set inclusion (submodular monotone
    /// objective), measured with common random numbers.
    #[test]
    fn spread_monotone_under_inclusion(g in graph_strategy(), a in 0u32..N, b in 0u32..N) {
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let est = SpreadEstimator::new(&g, model).with_threads(1);
            let single = est.estimate(&[a], 4000, 7);
            let pair = est.estimate(&[a, b], 4000, 7);
            prop_assert!(pair >= single - 1e-9, "{model}: adding {b} decreased spread");
        }
    }

    /// Cascades never activate more nodes than exist and always include
    /// the seeds.
    #[test]
    fn cascade_size_bounds(g in graph_strategy(), seeds in vec(0u32..N, 1..4), idx in 0u64..100) {
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut sim = CascadeSimulator::new(&g, model);
            let activated = sim.run(&seeds, 3, idx);
            let mut unique = seeds.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert!(activated.len() >= unique.len());
            prop_assert!(activated.len() <= N as usize);
            prop_assert!(unique.iter().all(|s| activated[..unique.len()].contains(s)));
        }
    }

    /// RR sets only ever contain ancestors of the root: removing all
    /// edges ending anywhere near the root yields singletons.
    #[test]
    fn rr_sets_are_ancestor_sets(g in graph_strategy(), idx in 0u64..200) {
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut sampler = RrSampler::new(&g, model);
            let mut rr = Vec::new();
            let meta = sampler.sample(idx, &mut rr);
            // every non-root member must have a path to the root in the
            // full graph (necessary condition of reverse reachability)
            let reachable = reverse_closure(&g, meta.root);
            for &v in &rr {
                prop_assert!(
                    reachable[v as usize],
                    "{model}: node {v} in RR set of {} but cannot reach it",
                    meta.root
                );
            }
        }
    }
}

/// Nodes with any directed path to `root`.
fn reverse_closure(g: &Graph, root: u32) -> Vec<bool> {
    let mut seen = vec![false; g.num_nodes() as usize];
    let mut stack = vec![root];
    seen[root as usize] = true;
    while let Some(v) = stack.pop() {
        for &InArc { source: u, .. } in g.in_arcs(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                stack.push(u);
            }
        }
    }
    seen
}

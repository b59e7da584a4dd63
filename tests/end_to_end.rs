//! End-to-end integration tests: every algorithm against ground truth on
//! instances small enough to verify exhaustively or in closed form.

use stop_and_stare::baselines::{monte_carlo_greedy, CelfPlusPlus, Imm, Tim};
use stop_and_stare::graph::{GraphBuilder, WeightModel};
use stop_and_stare::{Dssa, Graph, Model, Params, SamplingContext, SpreadEstimator, Ssa};

/// Exhaustively computes OPT_k by brute-force search over all size-k
/// seed sets, with exact spread from long Monte Carlo runs.
fn brute_force_opt(graph: &Graph, model: Model, k: usize, sims: u64) -> (Vec<u32>, f64) {
    let n = graph.num_nodes();
    let est = SpreadEstimator::new(graph, model);
    let mut best: (Vec<u32>, f64) = (Vec::new(), -1.0);
    let mut current = Vec::with_capacity(k);
    fn rec(
        n: u32,
        k: usize,
        start: u32,
        current: &mut Vec<u32>,
        est: &SpreadEstimator<'_>,
        sims: u64,
        best: &mut (Vec<u32>, f64),
    ) {
        if current.len() == k {
            let s = est.estimate(current, sims, 1234);
            if s > best.1 {
                *best = (current.clone(), s);
            }
            return;
        }
        for v in start..n {
            current.push(v);
            rec(n, k, v + 1, current, est, sims, best);
            current.pop();
        }
    }
    rec(n, k, 0, &mut current, &est, sims, &mut best);
    best
}

/// A 12-node graph with asymmetric influence structure.
fn testbed() -> Graph {
    let mut b = GraphBuilder::new();
    // hub 0 with strong fan-out
    for v in 1..5 {
        b.add_edge(0, v, 0.8);
    }
    // chain with moderate probabilities
    b.add_edge(5, 6, 0.6);
    b.add_edge(6, 7, 0.6);
    b.add_edge(7, 8, 0.6);
    // second hub, weaker
    for v in 9..12 {
        b.add_edge(8, v, 0.5);
    }
    b.add_edge(4, 5, 0.3);
    b.build(WeightModel::Provided).unwrap()
}

/// Every algorithm must land within the (1 − 1/e − ε) guarantee of the
/// brute-force optimum on the testbed (they typically match it exactly).
#[test]
fn all_algorithms_meet_guarantee_against_brute_force() {
    let g = testbed();
    let k = 2;
    for model in [Model::IndependentCascade, Model::LinearThreshold] {
        let (_, opt) = brute_force_opt(&g, model, k, 4_000);
        let params = Params::new(k, 0.2, 0.05).unwrap();
        let ctx = SamplingContext::new(&g, model).with_seed(5);
        let est = SpreadEstimator::new(&g, model);

        let runs: Vec<(&str, Vec<u32>)> = vec![
            ("D-SSA", Dssa::new(params).run(&ctx).unwrap().seeds),
            ("SSA", Ssa::new(params).run(&ctx).unwrap().seeds),
            ("IMM", Imm::new(params).run(&ctx).unwrap().seeds),
            ("TIM", Tim::new(params).run(&ctx).unwrap().seeds),
            ("TIM+", Tim::plus(params).run(&ctx).unwrap().seeds),
            ("CELF++", CelfPlusPlus::new(k).with_simulations(3000).run(&ctx).unwrap().seeds),
            ("MC-greedy", monte_carlo_greedy(&ctx, k, 3000).unwrap().seeds),
        ];
        // ε = 0.2 guarantee plus Monte Carlo slack
        let floor = (1.0 - 1.0 / std::f64::consts::E - 0.2) * opt * 0.95;
        for (name, seeds) in runs {
            let spread = est.estimate(&seeds, 4_000, 1234);
            assert!(
                spread >= floor,
                "{name} under {model}: spread {spread:.2} below floor {floor:.2} (opt {opt:.2})"
            );
        }
    }
}

/// The RIS estimate each algorithm reports must agree with ground-truth
/// forward simulation of its own seeds within the ε it promises.
#[test]
fn reported_estimates_match_forward_simulation() {
    let g = testbed();
    let params = Params::new(2, 0.2, 0.05).unwrap();
    for model in [Model::IndependentCascade, Model::LinearThreshold] {
        let ctx = SamplingContext::new(&g, model).with_seed(9);
        let est = SpreadEstimator::new(&g, model);
        for (name, r) in [
            ("D-SSA", Dssa::new(params).run(&ctx).unwrap()),
            ("SSA", Ssa::new(params).run(&ctx).unwrap()),
            ("IMM", Imm::new(params).run(&ctx).unwrap()),
        ] {
            let truth = est.estimate(&r.seeds, 30_000, 4321);
            let rel = (r.influence_estimate - truth).abs() / truth;
            assert!(
                rel < 0.25,
                "{name} under {model}: reported {:.2} vs simulated {truth:.2} (rel {rel:.3})",
                r.influence_estimate
            );
        }
    }
}

/// Seed sets must be exactly k distinct valid nodes for every algorithm.
#[test]
fn seed_sets_are_wellformed() {
    let g = testbed();
    let n = g.num_nodes();
    let params = Params::new(3, 0.25, 0.1).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(2);
    for (name, seeds) in [
        ("D-SSA", Dssa::new(params).run(&ctx).unwrap().seeds),
        ("SSA", Ssa::new(params).run(&ctx).unwrap().seeds),
        ("IMM", Imm::new(params).run(&ctx).unwrap().seeds),
        ("TIM+", Tim::plus(params).run(&ctx).unwrap().seeds),
    ] {
        assert_eq!(seeds.len(), 3, "{name}");
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "{name}: duplicate seeds {seeds:?}");
        assert!(sorted.iter().all(|&v| v < n), "{name}: out-of-range seed");
    }
}

/// Identical configuration implies identical output — across the whole
/// stack, including parallel pool growth.
#[test]
fn full_stack_determinism() {
    let g = testbed();
    let params = Params::new(2, 0.2, 0.05).unwrap();
    for threads in [1usize, 4] {
        let ctx =
            SamplingContext::new(&g, Model::LinearThreshold).with_seed(31).with_threads(threads);
        let a = Dssa::new(params).run(&ctx).unwrap();
        let b = Dssa::new(params).run(&ctx).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.influence_estimate, b.influence_estimate);
        assert_eq!(a.rr_sets_main, b.rr_sets_main);
    }
}

/// Different master seeds explore different sample streams but the
/// returned quality must stay within the guarantee band.
#[test]
fn quality_stable_across_seeds() {
    let g = testbed();
    let params = Params::new(2, 0.2, 0.05).unwrap();
    let est = SpreadEstimator::new(&g, Model::IndependentCascade);
    let mut spreads = Vec::new();
    for seed in 0..5 {
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(seed);
        let r = Dssa::new(params).run(&ctx).unwrap();
        spreads.push(est.estimate(&r.seeds, 10_000, 77));
    }
    let max = spreads.iter().cloned().fold(f64::MIN, f64::max);
    let min = spreads.iter().cloned().fold(f64::MAX, f64::min);
    assert!((max - min) / max < 0.15, "seed-to-seed spread varies too much: {spreads:?}");
}

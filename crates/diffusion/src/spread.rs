//! Monte Carlo influence-spread estimation.
//!
//! `I(S)` is a #P-hard expectation (Chen et al.); every evaluation number
//! in the paper's Figures 2–3 is a sample mean over forward cascades. The
//! same mean with each activated node scored by a relevance weight `b(v)`
//! is the targeted influence `I_T(S) = Σ_v b(v)·Pr[v activated]` of TVM
//! (§7.3). The estimator is embarrassingly parallel and — because each
//! simulation index owns its RNG stream and its score slot, and partial
//! sums are combined in a fixed order — returns bit-identical results
//! for any thread count.

use sns_graph::{Graph, GraphError, NodeId};

use crate::forward::CascadeSimulator;
use crate::Model;

/// Cascades per partial sum. Each block of per-cascade scores is summed
/// sequentially and the blocks are added in block order, so the float
/// rounding, and with it the estimate, does not depend on how the
/// cascades are spread over threads.
const BLOCK: usize = 1024;

/// Monte Carlo estimator of the influence spread `I(S)`, or of the
/// targeted spread `I_T(S)` under [`SpreadEstimator::with_weights`].
pub struct SpreadEstimator<'g> {
    graph: &'g Graph,
    model: Model,
    threads: usize,
    weights: Option<&'g [f64]>,
}

impl<'g> SpreadEstimator<'g> {
    /// Creates an estimator that uses all available parallelism.
    pub fn new(graph: &'g Graph, model: Model) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        SpreadEstimator { graph, model, threads, weights: None }
    }

    /// Overrides the worker-thread count (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Scores each activated node `v` by `weights[v]` instead of 1, so
    /// the estimate is the targeted influence `I_T(S)`. The slice length
    /// must equal the node count, else [`GraphError::LengthMismatch`].
    pub fn with_weights(mut self, weights: &'g [f64]) -> Result<Self, GraphError> {
        let expected = self.graph.num_nodes() as usize;
        if weights.len() != expected {
            return Err(GraphError::LengthMismatch { expected, found: weights.len() });
        }
        self.weights = Some(weights);
        Ok(self)
    }

    /// Estimates `I(seeds)` (or `I_T(seeds)`) as the mean score of the
    /// activated nodes over `simulations` cascades, deterministic in
    /// `master_seed`. With zero simulations the estimate is the score of
    /// the distinct seeds, the activations every cascade starts from.
    pub fn estimate(&self, seeds: &[NodeId], simulations: u64, master_seed: u64) -> f64 {
        if simulations == 0 || seeds.is_empty() {
            let mut distinct = seeds.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            return self.score(&distinct);
        }
        // Workers own contiguous simulation ranges and write each
        // cascade's score into its own slot.
        let mut scores = vec![0.0f64; simulations as usize];
        let workers = self.threads.min(scores.len());
        if workers <= 1 {
            self.run_range(seeds, master_seed, 0, &mut scores);
        } else {
            let per_worker = scores.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (w, chunk) in scores.chunks_mut(per_worker).enumerate() {
                    let first = (w * per_worker) as u64;
                    scope.spawn(move || self.run_range(seeds, master_seed, first, chunk));
                }
            });
        }
        let total: f64 = scores.chunks(BLOCK).map(|block| block.iter().sum::<f64>()).sum();
        total / simulations as f64
    }

    /// Fills `scores[i]` with the score of cascade `first + i`.
    fn run_range(&self, seeds: &[NodeId], master_seed: u64, first: u64, scores: &mut [f64]) {
        let mut sim = CascadeSimulator::new(self.graph, self.model);
        for (i, slot) in (first..).zip(scores) {
            *slot = self.score(sim.run(seeds, master_seed, i));
        }
    }

    /// The activated count, or the activated nodes' total weight.
    fn score(&self, activated: &[NodeId]) -> f64 {
        match self.weights {
            None => activated.len() as f64,
            Some(w) => activated.iter().map(|&v| w[v as usize]).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_graph::{GraphBuilder, WeightModel};

    fn fanout(p: f32, leaves: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for v in 1..=leaves {
            b.add_edge(0, v, p);
        }
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let g = fanout(0.5, 50);
        let seq = SpreadEstimator::new(&g, Model::IndependentCascade).with_threads(1).estimate(
            &[0],
            2000,
            7,
        );
        let par = SpreadEstimator::new(&g, Model::IndependentCascade).with_threads(8).estimate(
            &[0],
            2000,
            7,
        );
        assert_eq!(seq, par, "per-index RNG must make threading invisible");
    }

    #[test]
    fn converges_to_closed_form() {
        let g = fanout(0.2, 100);
        let est = SpreadEstimator::new(&g, Model::IndependentCascade).estimate(&[0], 30_000, 3);
        // E = 1 + 100 * 0.2 = 21
        assert!((est - 21.0).abs() < 0.5, "estimate {est}");
    }

    #[test]
    fn empty_seed_set_spreads_nothing() {
        let g = fanout(0.5, 5);
        let est = SpreadEstimator::new(&g, Model::LinearThreshold).estimate(&[], 100, 1);
        assert_eq!(est, 0.0);
    }

    #[test]
    fn zero_simulations_defensible() {
        let g = fanout(0.5, 5);
        let e = SpreadEstimator::new(&g, Model::LinearThreshold);
        // seeds are always active; a duplicate seed is one activation,
        // as in every cascade
        assert_eq!(e.estimate(&[0], 0, 1), 1.0);
        assert_eq!(e.estimate(&[0, 0], 0, 1), 1.0);
        // weighted: the seeds' total weight, a duplicate counted once
        let w = [0.0, 2.5, 0.0, 0.0, 0.0, 1.0];
        let e = e.with_weights(&w).unwrap();
        assert_eq!(e.estimate(&[1, 1], 0, 1), 2.5);
        assert_eq!(e.estimate(&[1, 5, 1], 0, 1), 3.5);
        assert_eq!(e.estimate(&[], 0, 1), 0.0);
    }

    #[test]
    fn spread_monotone_in_seed_count() {
        let g = fanout(0.3, 30);
        let e = SpreadEstimator::new(&g, Model::IndependentCascade);
        let one = e.estimate(&[1], 4000, 5);
        let two = e.estimate(&[1, 2, 3], 4000, 5);
        assert!(two > one);
    }

    #[test]
    fn only_targeted_nodes_count() {
        // 0 -> 1 -> 2 deterministic; only node 2 is targeted.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build(WeightModel::Provided).unwrap();
        let w = [0.0, 0.0, 5.0];
        let est = SpreadEstimator::new(&g, Model::IndependentCascade).with_weights(&w).unwrap();
        let v = est.estimate(&[0], 200, 1);
        assert!((v - 5.0).abs() < 1e-9, "got {v}");
        // seeding the target directly scores the same
        assert!((est.estimate(&[2], 200, 1) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_weights_match_plain_spread() {
        let g =
            sns_graph::gen::erdos_renyi(150, 900, 4).build(WeightModel::WeightedCascade).unwrap();
        let w = vec![1.0; 150];
        let targeted = SpreadEstimator::new(&g, Model::LinearThreshold)
            .with_weights(&w)
            .unwrap()
            .estimate(&[0, 1], 20_000, 9);
        let plain = SpreadEstimator::new(&g, Model::LinearThreshold).estimate(&[0, 1], 20_000, 9);
        assert_eq!(targeted, plain, "uniform TVM must equal IM on identical streams");
    }

    #[test]
    fn parallel_matches_sequential() {
        let g =
            sns_graph::gen::erdos_renyi(100, 600, 4).build(WeightModel::WeightedCascade).unwrap();
        // irregular non-integer weights, so block order matters for rounding
        let w: Vec<f64> = (0..100u32).map(|v| f64::from(v * 37 % 11) / 7.0).collect();
        let est = |threads| {
            SpreadEstimator::new(&g, Model::IndependentCascade)
                .with_threads(threads)
                .with_weights(&w)
                .unwrap()
                .estimate(&[3, 4], 2000, 11)
        };
        assert_eq!(est(1), est(8));
    }

    #[test]
    fn unweighted_estimate_is_the_per_index_cascade_mean() {
        // The block reduction must not move a bit: integer-valued f64
        // partial sums are exact, so the estimate equals the mean of the
        // per-index cascade sizes computed in integers.
        let er = sns_graph::gen::erdos_renyi(120, 700, 3).build(WeightModel::WeightedCascade);
        for g in [fanout(0.5, 50), er.unwrap()] {
            for model in [Model::IndependentCascade, Model::LinearThreshold] {
                let simulations = 2500; // three blocks, the last one partial
                let mut sim = CascadeSimulator::new(&g, model);
                let total: u64 =
                    (0..simulations).map(|i| sim.run(&[0, 7], 13, i).len() as u64).sum();
                let reference = total as f64 / simulations as f64;
                for threads in [1, 8] {
                    let est = SpreadEstimator::new(&g, model).with_threads(threads).estimate(
                        &[0, 7],
                        simulations,
                        13,
                    );
                    assert_eq!(est.to_bits(), reference.to_bits(), "{model}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn estimates_are_pinned_and_thread_count_invariant() {
        // Pinned one-thread bits: per-simulation score slots summed in
        // 1024-slot blocks must reproduce them at every thread count,
        // also below one block (1000 simulations).
        let er = |n, m, seed| {
            sns_graph::gen::erdos_renyi(n, m, seed).build(WeightModel::WeightedCascade).unwrap()
        };
        let (fan, er120, er100) = (fanout(0.5, 50), er(120, 700, 3), er(100, 600, 4));
        let w: Vec<f64> = (0..100u32).map(|v| f64::from(v * 37 % 11) / 7.0).collect();
        let pins: [(u64, Model, [u64; 3]); 4] = [
            (
                1000,
                Model::IndependentCascade,
                [0x4039fbe76c8b4396, 0x4034cd4fdf3b645a, 0x40278ccccccccccd],
            ),
            (
                1000,
                Model::LinearThreshold,
                [0x4039fbe76c8b4396, 0x4042ecac083126e9, 0x4033e58f1142ffb1],
            ),
            (
                5000,
                Model::IndependentCascade,
                [0x4039eee631f8a090, 0x4035181d7dbf4880, 0x4027b28330642d2f],
            ),
            (
                5000,
                Model::LinearThreshold,
                [0x4039eee631f8a090, 0x404333dd97f62b6b, 0x40342e631f8a0905],
            ),
        ];
        for (sims, model, [fan_bits, er_bits, weighted_bits]) in pins {
            for threads in [1, 2, 8] {
                let est = |g| SpreadEstimator::new(g, model).with_threads(threads);
                let case = format!("{sims} {model} at {threads} threads");
                assert_eq!(est(&fan).estimate(&[0], sims, 7).to_bits(), fan_bits, "fan {case}");
                assert_eq!(est(&er120).estimate(&[0, 7], sims, 13).to_bits(), er_bits, "{case}");
                let weighted = est(&er100).with_weights(&w).unwrap().estimate(&[3, 4], sims, 11);
                assert_eq!(weighted.to_bits(), weighted_bits, "weighted {case}");
            }
        }
    }

    #[test]
    fn weights_for_another_graph_are_rejected() {
        let g = fanout(0.5, 71); // 72 nodes
        let foreign = vec![1.0; 50];
        let err = SpreadEstimator::new(&g, Model::IndependentCascade)
            .with_weights(&foreign)
            .err()
            .expect("a 50-entry weight vector on a 72-node graph");
        assert!(matches!(err, GraphError::LengthMismatch { expected: 72, found: 50 }), "{err}");
    }
}

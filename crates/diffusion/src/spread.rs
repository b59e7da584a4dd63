//! Monte Carlo influence-spread estimation.
//!
//! `I(S)` is a #P-hard expectation (Chen et al.); every evaluation number
//! in the paper's Figures 2–3 is a sample mean over forward cascades. The
//! estimator here is embarrassingly parallel and — because each simulation
//! index owns its RNG stream — returns bit-identical results for any
//! thread count.

use sns_graph::{Graph, NodeId};

use crate::forward::CascadeSimulator;
use crate::Model;

/// Monte Carlo estimator of the influence spread `I(S)`.
pub struct SpreadEstimator<'g> {
    graph: &'g Graph,
    model: Model,
    threads: usize,
}

impl<'g> SpreadEstimator<'g> {
    /// Creates an estimator that uses all available parallelism.
    pub fn new(graph: &'g Graph, model: Model) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        SpreadEstimator { graph, model, threads }
    }

    /// Overrides the worker-thread count (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Estimates `I(seeds)` as the mean activated-node count over
    /// `simulations` cascades (deterministic in `master_seed`). With zero
    /// simulations the estimate is the number of distinct seeds, the
    /// activations every cascade starts from.
    pub fn estimate(&self, seeds: &[NodeId], simulations: u64, master_seed: u64) -> f64 {
        if simulations == 0 || seeds.is_empty() {
            let mut distinct = seeds.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            return distinct.len() as f64;
        }
        let total = if self.threads <= 1 || simulations < 64 {
            self.run_range(seeds, master_seed, 0, simulations)
        } else {
            self.run_parallel(seeds, simulations, master_seed)
        };
        total as f64 / simulations as f64
    }

    fn run_range(&self, seeds: &[NodeId], master_seed: u64, start: u64, end: u64) -> u64 {
        let mut sim = CascadeSimulator::new(self.graph, self.model);
        (start..end).map(|i| sim.run(seeds, master_seed, i)).sum()
    }

    fn run_parallel(&self, seeds: &[NodeId], simulations: u64, master_seed: u64) -> u64 {
        let workers = self.threads.min(simulations as usize).max(1);
        let chunk = simulations.div_ceil(workers as u64);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers as u64)
                .map(|w| {
                    let start = w * chunk;
                    let end = ((w + 1) * chunk).min(simulations);
                    scope.spawn(move || {
                        if start >= end {
                            0
                        } else {
                            self.run_range(seeds, master_seed, start, end)
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("spread worker panicked")).sum()
        })
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
    }

    #[test]
    fn spread_monotone_in_seed_count() {
        let g = fanout(0.3, 30);
        let e = SpreadEstimator::new(&g, Model::IndependentCascade);
        let one = e.estimate(&[1], 4000, 5);
        let two = e.estimate(&[1, 2, 3], 4000, 5);
        assert!(two > one);
    }
}

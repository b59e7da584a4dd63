//! Forward cascade simulation under IC and LT.
//!
//! A [`CascadeSimulator`] owns reusable per-node scratch arrays so
//! consecutive simulations perform zero allocations: activation marks use
//! an epoch counter instead of clearing, and the BFS queue is recycled.
//! The queue doubles as the cascade's result — every activated node once,
//! in activation order.

mod ic;
mod lt;

use sns_graph::{Graph, NodeId};

use crate::rng::Xoshiro256pp;
use crate::Model;

/// Reusable scratch space for cascade simulation over a graph with `n`
/// nodes.
#[derive(Debug, Clone)]
pub(crate) struct CascadeBuffers {
    /// Epoch stamp marking active nodes (`active[v] == epoch`).
    pub(crate) active: Vec<u32>,
    /// Epoch stamp marking nodes whose LT threshold has been drawn.
    pub(crate) touched: Vec<u32>,
    /// Lazily drawn LT thresholds.
    pub(crate) threshold: Vec<f32>,
    /// Accumulated active in-weight per node (LT).
    pub(crate) incoming: Vec<f32>,
    /// BFS queue; after a run, the activated nodes in activation order.
    pub(crate) queue: Vec<NodeId>,
    /// Current epoch; bumped per simulation.
    pub(crate) epoch: u32,
}

impl CascadeBuffers {
    /// Allocates buffers for an `n`-node graph.
    pub(crate) fn new(n: u32) -> Self {
        let n = n as usize;
        CascadeBuffers {
            active: vec![0; n],
            touched: vec![0; n],
            threshold: vec![0.0; n],
            incoming: vec![0.0; n],
            queue: Vec::with_capacity(1024),
            epoch: 0,
        }
    }

    /// Advances the epoch, logically clearing all marks in O(1). On (the
    /// practically unreachable) wrap-around the arrays are hard-cleared.
    pub(crate) fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.active.fill(0);
            self.touched.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    pub(crate) fn is_active(&self, v: NodeId) -> bool {
        self.active[v as usize] == self.epoch
    }

    #[inline]
    pub(crate) fn activate(&mut self, v: NodeId) {
        self.active[v as usize] = self.epoch;
    }
}

/// Runs single forward cascades; see [`crate::SpreadEstimator`] for the
/// Monte Carlo average.
pub struct CascadeSimulator<'g> {
    graph: &'g Graph,
    model: Model,
    buffers: CascadeBuffers,
}

impl<'g> CascadeSimulator<'g> {
    /// Creates a simulator with fresh buffers.
    pub fn new(graph: &'g Graph, model: Model) -> Self {
        CascadeSimulator { graph, model, buffers: CascadeBuffers::new(graph.num_nodes()) }
    }

    /// The diffusion model this simulator runs.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Runs one cascade from `seeds` using the RNG for logical sample
    /// `index` under `master_seed`, returning the activated nodes in
    /// activation (BFS) order: the distinct seeds first, each node once.
    /// The cascade's spread is the slice's `len()`; the slice lives in
    /// the simulator's buffers until the next run.
    pub fn run(&mut self, seeds: &[NodeId], master_seed: u64, index: u64) -> &[NodeId] {
        let mut rng = Xoshiro256pp::for_sample(master_seed, index);
        self.buffers.next_epoch();
        match self.model {
            Model::IndependentCascade => {
                ic::simulate(self.graph, seeds, &mut rng, &mut self.buffers)
            }
            Model::LinearThreshold => lt::simulate(self.graph, seeds, &mut rng, &mut self.buffers),
        }
        &self.buffers.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_graph::{GraphBuilder, WeightModel};

    fn line(p: f32) -> Graph {
        // 0 -> 1 -> 2 -> 3, each with probability p
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, p);
        b.add_edge(1, 2, p);
        b.add_edge(2, 3, p);
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn deterministic_edges_activate_everything() {
        let g = line(1.0);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut sim = CascadeSimulator::new(&g, model);
            for i in 0..20 {
                assert_eq!(sim.run(&[0], 7, i).len(), 4, "{model}");
            }
        }
    }

    #[test]
    fn zero_probability_stops_at_seeds() {
        let g = line(0.0);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut sim = CascadeSimulator::new(&g, model);
            assert_eq!(sim.run(&[0], 7, 0), [0], "{model}");
            assert_eq!(sim.run(&[0, 2], 7, 1), [0, 2], "{model}");
        }
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = line(0.0);
        let mut sim = CascadeSimulator::new(&g, Model::IndependentCascade);
        assert_eq!(sim.run(&[1, 1, 1], 7, 0), [1]);
    }

    #[test]
    fn collect_matches_count() {
        let g = line(1.0);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut sim = CascadeSimulator::new(&g, model);
            // BFS order along the line, seeds first
            assert_eq!(sim.run(&[0], 3, 0), [0, 1, 2, 3], "{model}");
            assert_eq!(sim.run(&[2, 0], 3, 1), [2, 0, 3, 1], "{model}");
        }
    }

    #[test]
    fn buffers_reused_across_runs() {
        // 200 runs on the same simulator must not interfere.
        let g = line(1.0);
        let mut sim = CascadeSimulator::new(&g, Model::IndependentCascade);
        for i in 0..200 {
            assert_eq!(sim.run(&[3], 9, i), [3]); // sink node: nothing downstream
        }
    }
}

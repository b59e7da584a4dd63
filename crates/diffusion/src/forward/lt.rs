//! Forward Linear Threshold simulation.

use rand::{Rng, RngCore};

use sns_graph::{Graph, NodeId};

use super::CascadeBuffers;

/// Runs one LT cascade, leaving the activated nodes in
/// `buf.queue` in activation order (distinct seeds first).
///
/// Thresholds `λ_v` are drawn lazily the first time a node receives active
/// in-weight, which is equivalent to drawing all thresholds upfront but
/// touches only the cascade's neighborhood. A node activates when its
/// accumulated active in-weight reaches `λ_v`; because weights sum to at
/// most 1 per node, each in-neighbor contributes once.
pub(super) fn simulate<R: RngCore>(
    graph: &Graph,
    seeds: &[NodeId],
    rng: &mut R,
    buf: &mut CascadeBuffers,
) {
    for &s in seeds {
        if !buf.is_active(s) {
            buf.activate(s);
            buf.queue.push(s);
        }
    }
    let mut head = 0usize;
    while head < buf.queue.len() {
        let u = buf.queue[head];
        head += 1;
        for (v, w) in graph.out_edges(u) {
            if buf.is_active(v) {
                continue;
            }
            let vi = v as usize;
            if buf.touched[vi] != buf.epoch {
                buf.touched[vi] = buf.epoch;
                buf.incoming[vi] = 0.0;
                // Draw in [0, 1); a threshold of exactly 0 would activate
                // nodes with no incoming weight, gen::<f32>() excludes 1.0
                // which is measure-zero anyway.
                buf.threshold[vi] = rng.gen::<f32>();
            }
            buf.incoming[vi] += w;
            if buf.incoming[vi] >= buf.threshold[vi] {
                buf.activate(v);
                buf.queue.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CascadeSimulator, Model};
    use sns_graph::{GraphBuilder, WeightModel};

    /// Single edge with weight w: under LT, P(activate) = P(λ ≤ w) = w,
    /// so E[spread from {0}] = 1 + w.
    #[test]
    fn single_edge_activation_probability() {
        let w = 0.3f32;
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, w);
        let g = b.build(WeightModel::Provided).unwrap();
        let mut sim = CascadeSimulator::new(&g, Model::LinearThreshold);
        let runs = 40_000u64;
        let total: u64 = (0..runs).map(|i| sim.run(&[0], 21, i).len() as u64).sum();
        let mean = total as f64 / runs as f64;
        assert!((mean - 1.3).abs() < 0.02, "mean {mean}, expected ~1.3");
    }

    /// Under weighted cascade (all in-weights sum to 1), seeding *all*
    /// in-neighbors of v guarantees v activates.
    #[test]
    fn full_in_neighborhood_forces_activation() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 3);
        b.add_arc(1, 3);
        b.add_arc(2, 3);
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        let mut sim = CascadeSimulator::new(&g, Model::LinearThreshold);
        for i in 0..50 {
            assert_eq!(sim.run(&[0, 1, 2], 4, i).len(), 4);
        }
    }

    /// Two in-neighbors with weights 0.5 each: seeding one activates v
    /// with probability 0.5 (λ ≤ 0.5).
    #[test]
    fn partial_in_weight_partial_activation() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 2);
        b.add_arc(1, 2);
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        let mut sim = CascadeSimulator::new(&g, Model::LinearThreshold);
        let runs = 40_000u64;
        let total: u64 = (0..runs).map(|i| sim.run(&[0], 33, i).len() as u64).sum();
        let mean = total as f64 / runs as f64;
        assert!((mean - 1.5).abs() < 0.02, "mean {mean}, expected ~1.5");
    }

    /// LT expected spread on a weighted-cascade line graph: each hop
    /// passes with probability equal to the edge weight 1 (single
    /// in-neighbor) — the whole line activates.
    #[test]
    fn weighted_cascade_line_fully_activates() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(2, 3);
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        let mut sim = CascadeSimulator::new(&g, Model::LinearThreshold);
        for i in 0..20 {
            assert_eq!(sim.run(&[0], 8, i).len(), 4);
        }
    }
}

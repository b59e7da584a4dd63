//! Forward Independent Cascade simulation.

use rand::{Rng, RngCore};

use sns_graph::{Graph, NodeId};

use super::CascadeBuffers;

/// Runs one IC cascade, leaving the activated nodes in
/// `buf.queue` in activation order (distinct seeds first).
///
/// Standard BFS over live edges: when `u` activates it flips one coin per
/// out-edge `(u, v)` with success probability `w(u, v)`. The coin order is
/// the CSR edge order, so a given RNG stream reproduces the exact cascade.
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
            if !buf.is_active(v) && rng.gen::<f32>() < w {
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

    /// Fan-out graph: seed 0 points at 1..=100 with p = 0.5. The expected
    /// spread is 1 + 100·0.5 = 51; the Monte Carlo mean over many runs
    /// must converge to it.
    #[test]
    fn fanout_mean_matches_closed_form() {
        let mut b = GraphBuilder::new();
        for v in 1..=100 {
            b.add_edge(0, v, 0.5);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let mut sim = CascadeSimulator::new(&g, Model::IndependentCascade);
        let runs = 20_000u64;
        let total: u64 = (0..runs).map(|i| sim.run(&[0], 11, i).len() as u64).sum();
        let mean = total as f64 / runs as f64;
        assert!((mean - 51.0).abs() < 0.5, "mean {mean}, expected ~51");
    }

    /// Two-hop path with p = 0.5 each: P(reach node 2) = 0.25, so
    /// E[spread] = 1 + 0.5 + 0.25 = 1.75.
    #[test]
    fn path_mean_matches_closed_form() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.5);
        let g = b.build(WeightModel::Provided).unwrap();
        let mut sim = CascadeSimulator::new(&g, Model::IndependentCascade);
        let runs = 40_000u64;
        let total: u64 = (0..runs).map(|i| sim.run(&[0], 5, i).len() as u64).sum();
        let mean = total as f64 / runs as f64;
        assert!((mean - 1.75).abs() < 0.03, "mean {mean}, expected ~1.75");
    }

    /// Activation is monotone in the seed set.
    #[test]
    fn monotone_in_seeds() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.3);
        b.add_edge(2, 3, 0.3);
        let g = b.build(WeightModel::Provided).unwrap();
        let mut sim = CascadeSimulator::new(&g, Model::IndependentCascade);
        // same RNG stream: adding a disconnected seed adds exactly 1..=2
        let a = sim.run(&[0], 1, 0).len();
        let b2 = sim.run(&[0, 2], 1, 0).len();
        assert!(b2 > a);
    }
}

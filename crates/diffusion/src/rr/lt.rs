//! LT reverse reachable set growth: reverse random walk.

use rand::{Rng, RngCore};

use sns_graph::{Graph, NodeId};

/// Grows the RR set whose root is `out[0]` by the LT reverse walk: at
/// the current node `v`, pick in-neighbor `u` with probability `w(u, v)`
/// and stop with the residual probability `1 − Σ_u w(u, v)`; the walk also
/// stops when it would revisit a node (a cycle in the live-edge graph
/// cannot extend the reachable set).
///
/// This is the standard LT live-edge equivalence (Chen et al.): each node
/// selects at most one live in-edge, so reverse reachability is a path.
///
/// Returns the walk steps (one live-edge decision each) and whether a
/// newly reached node satisfied `stop`, which ends the walk at once.
pub(super) fn grow<R: RngCore>(
    graph: &Graph,
    rng: &mut R,
    visited: &mut [u32],
    epoch: u32,
    out: &mut Vec<NodeId>,
    stop: impl Fn(NodeId) -> bool,
) -> (u64, bool) {
    let mut steps = 0u64;
    let mut current = out[0];
    loop {
        steps += 1;
        match graph.sample_in_neighbor_lt(current, rng.gen::<f32>()) {
            None => break,
            Some(u) => {
                if visited[u as usize] == epoch {
                    break;
                }
                visited[u as usize] = epoch;
                out.push(u);
                if stop(u) {
                    return (steps, true);
                }
                current = u;
            }
        }
    }
    (steps, false)
}

#[cfg(test)]
mod tests {
    use crate::{Model, RrSampler};
    use sns_graph::{GraphBuilder, WeightModel};

    /// Under weighted cascade a node with one in-neighbor continues the
    /// walk with probability 1 — on a cycle the RR set is the whole cycle
    /// (walk stops on revisit).
    #[test]
    fn cycle_walk_collects_cycle() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        b.add_arc(2, 0);
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        let mut s = RrSampler::new(&g, Model::LinearThreshold);
        let mut rr = Vec::new();
        for i in 0..60 {
            s.sample(i, &mut rr);
            let mut sorted = rr.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
    }

    /// With in-weight 0.5 the walk continues with probability 1/2 per
    /// step: RR size follows Geometric(1/2) starting at 1 on a long line,
    /// so the mean size is 2.
    #[test]
    fn geometric_walk_length() {
        let n = 2000u32;
        let mut b = GraphBuilder::new();
        for v in 1..n {
            b.add_edge(v - 1, v, 0.5);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let mut s = RrSampler::new(&g, Model::LinearThreshold);
        let mut rr = Vec::new();
        let mut sizes = 0u64;
        let samples = 30_000u64;
        for i in 0..samples {
            s.sample(i, &mut rr);
            sizes += rr.len() as u64;
        }
        let mean = sizes as f64 / samples as f64;
        // Roots near the line start truncate the geometric slightly; with
        // n = 2000 the truncation effect is negligible.
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}, expected ~2");
    }

    /// The walk picks exactly one in-neighbor: RR sets under LT are paths,
    /// so their size is bounded by the walk length, never branching.
    #[test]
    fn walk_never_branches() {
        let mut b = GraphBuilder::new();
        // node 3 has three in-neighbors with total weight 1
        b.add_arc(0, 3);
        b.add_arc(1, 3);
        b.add_arc(2, 3);
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        let mut s = RrSampler::new(&g, Model::LinearThreshold);
        let mut rr = Vec::new();
        for i in 0..100 {
            let meta = s.sample(i, &mut rr);
            if meta.root == 3 {
                assert_eq!(rr.len(), 2, "root + exactly one in-neighbor");
            } else {
                assert_eq!(rr.len(), 1);
            }
        }
    }
}

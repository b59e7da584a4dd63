//! IC reverse reachable set growth: reverse BFS over live in-edges.

use rand::RngCore;

use sns_graph::{Graph, NodeId};

/// Grows the RR set whose root is `out[0]` by reverse BFS. Each in-edge
/// `(u, v)` of a reached node `v` is live independently with probability
/// `w(u, v)` — the deferred-decision equivalent of sampling the whole
/// live-edge graph upfront (Borgs et al., SODA'14). Unvisited tails flip
/// the integer coin (module docs); `out` is the BFS queue.
///
/// Returns the in-edges examined (the in-degree of every scanned node)
/// and whether a newly reached node satisfied `stop`, which ends the
/// growth at once.
pub(super) fn grow<R: RngCore>(
    graph: &Graph,
    rng: &mut R,
    visited: &mut [u32],
    epoch: u32,
    out: &mut Vec<NodeId>,
    stop: impl Fn(NodeId) -> bool,
) -> (u64, bool) {
    let mut edges = 0u64;
    let mut head = 0usize;
    while let Some(&v) = out.get(head) {
        head += 1;
        let arcs = graph.in_arcs(v);
        edges += arcs.len() as u64;
        for arc in arcs {
            let u = arc.source;
            if visited[u as usize] != epoch && rng.next_u32() >> 8 < arc.live_below {
                visited[u as usize] = epoch;
                out.push(u);
                if stop(u) {
                    return (edges, true);
                }
            }
        }
    }
    (edges, false)
}

#[cfg(test)]
mod tests {
    use crate::{Model, RrSampler};
    use rand::{Error, Rng, RngCore};
    use sns_graph::{GraphBuilder, InArc, WeightModel};

    /// An RNG whose every `u32` is one chosen value.
    struct Fixed(u32);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0
        }
        fn next_u64(&mut self) -> u64 {
            u64::from(self.0) << 32
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("the coins draw u32s only")
        }
        fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), Error> {
            unreachable!("the coins draw u32s only")
        }
    }

    /// The integer coin `(next_u32 >> 8) < ⌈w·2²⁴⌉` accepts exactly the
    /// draws the float coin `gen::<f32>() < w` accepts, at and around the
    /// threshold and at both ends of the 24-bit range, for weights that
    /// are zero, signed zero, subnormal, 1/d, above 1, infinite or NaN.
    #[test]
    fn integer_coin_agrees_with_the_float_coin() {
        let mut weights =
            vec![0.0f32, -0.0, f32::from_bits(1), 0.5, 1.0, 1.0 + f32::EPSILON, 2.0, f32::MAX];
        weights.extend([f32::INFINITY, f32::NAN, -0.25, f32::NEG_INFINITY]);
        weights.extend([1u32, 2, 3, 7, 1_000_000].map(|d| 1.0 / d as f32));
        for w in weights {
            let t = InArc::live_below(w);
            assert!(t <= 1 << 24, "w = {w:e}: threshold {t} above 2²⁴");
            for x in [0, t.wrapping_sub(2), t.wrapping_sub(1), t, t + 1, (1 << 24) - 1] {
                if x >= 1 << 24 {
                    continue; // not a 24-bit draw
                }
                // both rules discard the low 8 bits
                let draw = x << 8 | 0xA5;
                let float = Fixed(draw).gen::<f32>() < w;
                let integer = Fixed(draw).next_u32() >> 8 < t;
                assert_eq!(integer, float, "w = {w:e}, threshold {t}, x = {x}");
            }
        }
    }

    /// On a reversed star (all leaves point at the hub) with p = 0.5, an
    /// RR set rooted at the hub contains each leaf independently with
    /// probability 0.5.
    #[test]
    fn leaf_inclusion_probability() {
        let leaves = 40u32;
        let mut b = GraphBuilder::new();
        for u in 1..=leaves {
            b.add_edge(u, 0, 0.5);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let mut s = RrSampler::new(&g, Model::IndependentCascade);
        let mut rr = Vec::new();
        let mut size_sum = 0u64;
        let mut hub_rooted = 0u64;
        for i in 0..40_000u64 {
            let meta = s.sample(i, &mut rr);
            if meta.root == 0 {
                hub_rooted += 1;
                size_sum += rr.len() as u64;
            } else {
                // leaves have no in-edges: singleton RR set
                assert_eq!(rr.len(), 1);
            }
        }
        let mean = size_sum as f64 / hub_rooted as f64;
        // 1 (root) + 40 * 0.5 = 21
        assert!((mean - 21.0).abs() < 0.4, "mean RR size {mean}, expected ~21");
    }

    /// Edges-examined accounting: the hub's RR set always examines the
    /// hub's in-edges plus the in-edges of every included leaf (0 each).
    #[test]
    fn edge_examination_counts() {
        let mut b = GraphBuilder::new();
        b.add_edge(1, 0, 1.0);
        b.add_edge(2, 0, 1.0);
        let g = b.build(WeightModel::Provided).unwrap();
        let mut s = RrSampler::new(&g, Model::IndependentCascade);
        let mut rr = Vec::new();
        for i in 0..50 {
            let meta = s.sample(i, &mut rr);
            if meta.root == 0 {
                assert_eq!(meta.edges_examined, 2);
                assert_eq!(rr.len(), 3);
            } else {
                assert_eq!(meta.edges_examined, 0);
            }
        }
    }
}

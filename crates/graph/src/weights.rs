//! Edge-weight assignment conventions from the IM literature.

use crate::NodeId;

/// How edge weights `w(u, v) ∈ [0, 1]` are assigned when a
/// [`crate::GraphBuilder`] is materialized.
///
/// The paper (§7.1) uses the *weighted cascade* convention
/// `w(u,v) = 1/din(v)`, following Tang et al. and Chen et al.;
/// `Constant` is the classic IC setting and `Provided` keeps the weights
/// of a loaded edge list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightModel {
    /// Keep the weights passed to [`crate::GraphBuilder::add_edge`].
    /// Edges added without a weight (via `add_arc`) are rejected.
    Provided,
    /// `w(u, v) = 1 / din(v)` — the paper's setting. Guarantees the LT
    /// constraint `Σ_u w(u,v) = 1` holds for every node with in-edges.
    WeightedCascade,
    /// Every edge gets the same probability `p` (the classic IC setting,
    /// e.g. `p = 0.01` or `p = 0.1` in Kempe et al.).
    Constant(f32),
}

impl WeightModel {
    /// Assigns weights for the (deduplicated, sorted-by-source) edge list.
    ///
    /// `in_degree[v]` must hold the in-degree of each node in the final
    /// edge list. Weights for `Provided` are passed through unchanged (the
    /// builder has already validated them).
    pub(crate) fn assign(&self, edges: &mut [(NodeId, NodeId, f32)], in_degree: &[u32]) {
        match *self {
            WeightModel::Provided => {}
            WeightModel::WeightedCascade => {
                for e in edges.iter_mut() {
                    let d = in_degree[e.1 as usize];
                    debug_assert!(d > 0, "edge target must have in-degree >= 1");
                    e.2 = 1.0 / d as f32;
                }
            }
            WeightModel::Constant(p) => {
                for e in edges.iter_mut() {
                    e.2 = p;
                }
            }
        }
    }

    /// Whether this model requires weights supplied at `add_edge` time.
    pub fn requires_provided_weights(&self) -> bool {
        matches!(self, WeightModel::Provided)
    }
}

#[cfg(test)]
mod tests {

    use crate::{GraphBuilder, WeightModel};

    #[test]
    fn weighted_cascade_normalizes_in_weights() {
        let mut b = GraphBuilder::new();
        for u in 0..4 {
            b.add_arc(u, 4);
        }
        b.add_arc(4, 0);
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        assert!((g.in_weight_sum(4) - 1.0).abs() < 1e-6);
        for arc in g.in_arcs(4) {
            assert_eq!(arc.live_below, 1 << 22, "w = 1/4");
        }
        assert!(g.lt_compatible());
    }

    #[test]
    fn constant_assigns_everywhere() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.add_arc(1, 2);
        let g = b.build(WeightModel::Constant(0.3)).unwrap();
        for (_, _, w) in g.arcs() {
            assert!((w - 0.3).abs() < 1e-7);
        }
    }
}

//! Mutable edge-list builder that materializes an immutable CSR
//! [`Graph`].

use crate::{Graph, GraphError, InArc, NodeId, WeightModel};

/// Sentinel weight for arcs added without an explicit weight.
const UNWEIGHTED: f32 = f32::NAN;

/// Accumulates edges and builds a [`Graph`].
///
/// ```
/// use sns_graph::{GraphBuilder, WeightModel};
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 0.7);
/// b.add_edge(2, 1, 0.2);
/// let g = b.build(WeightModel::Provided).unwrap();
/// assert_eq!(g.in_degree(1), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId, f32)>,
    fixed_n: Option<u32>,
    max_node: Option<NodeId>,
    allow_self_loops: bool,
    normalize_lt: bool,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `edges` arcs.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder { edges: Vec::with_capacity(edges), ..Self::default() }
    }

    /// Fixes the node count. Any later edge touching a node `>= n` makes
    /// [`GraphBuilder::build`] fail; without this the node count is
    /// `max node id + 1`. Also the only way to include trailing isolated
    /// nodes.
    pub fn set_num_nodes(&mut self, n: u32) -> &mut Self {
        self.fixed_n = Some(n);
        self
    }

    /// Keeps self-loops instead of silently dropping them (default drops;
    /// a self-loop never changes influence semantics but inflates degree
    /// normalizations).
    pub fn allow_self_loops(&mut self, allow: bool) -> &mut Self {
        self.allow_self_loops = allow;
        self
    }

    /// Rescales each node's incoming weights at build time so their total
    /// never exceeds 1, making any weight model LT-compatible.
    pub fn normalize_for_lt(&mut self, on: bool) -> &mut Self {
        self.normalize_lt = on;
        self
    }

    /// Adds a weighted arc `from → to` with influence probability
    /// `weight`. Validation happens at build time.
    #[inline]
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f32) -> &mut Self {
        self.touch(from);
        self.touch(to);
        self.edges.push((from, to, weight));
        self
    }

    /// Adds an unweighted arc `from → to`; the weight comes from the
    /// [`WeightModel`] at build time. Incompatible with
    /// [`WeightModel::Provided`].
    #[inline]
    pub fn add_arc(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        self.add_edge(from, to, UNWEIGHTED)
    }

    /// Adds both arcs of an undirected edge (the paper's treatment of the
    /// undirected Orkut and Friendster networks).
    #[inline]
    pub fn add_undirected(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.add_arc(a, b);
        self.add_arc(b, a)
    }

    /// Bulk-adds unweighted arcs.
    pub fn extend_arcs<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> &mut Self {
        for (u, v) in iter {
            self.add_arc(u, v);
        }
        self
    }

    #[inline]
    fn touch(&mut self, v: NodeId) {
        self.max_node = Some(self.max_node.map_or(v, |m| m.max(v)));
    }

    /// Validates, deduplicates, assigns weights and freezes the graph.
    pub fn build(mut self, model: WeightModel) -> Result<Graph, GraphError> {
        let n = match (self.fixed_n, self.max_node) {
            (Some(n), _) => n,
            (None, Some(max)) => max + 1,
            (None, None) => return Err(GraphError::EmptyGraph),
        };
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(fixed) = self.fixed_n {
            if let Some(max) = self.max_node {
                if max >= fixed {
                    return Err(GraphError::NodeOutOfRange { node: max, num_nodes: fixed });
                }
            }
        }

        if !self.allow_self_loops {
            self.edges.retain(|&(u, v, _)| u != v);
        }

        if model.requires_provided_weights() {
            for &(u, v, w) in &self.edges {
                if !w.is_finite() || !(0.0..=1.0).contains(&w) {
                    return Err(GraphError::InvalidWeight { from: u, to: v, weight: w });
                }
            }
        }

        // Stable sort by (source, target) keeps insertion order within
        // duplicate groups; each group collapses to one arc carrying the
        // weight of its last row ("later rows override earlier rows", as
        // in an edge-list file).
        self.edges.sort_by_key(|&(u, v, _)| (u, v));
        self.edges.dedup_by(|later, kept| {
            let duplicate = (later.0, later.1) == (kept.0, kept.1);
            if duplicate {
                kept.2 = later.2;
            }
            duplicate
        });

        // In-degrees of the deduplicated list drive WeightedCascade.
        let mut in_degree = vec![0u32; n as usize];
        for &(_, v, _) in &self.edges {
            in_degree[v as usize] += 1;
        }
        model.assign(&mut self.edges, &in_degree);

        if self.normalize_lt {
            normalize_in_weights(&mut self.edges, n);
        }

        let m = self.edges.len();

        // Forward CSR straight from the (source-sorted) edge list.
        let mut out_offsets = vec![0u64; n as usize + 1];
        for &(u, _, _) in &self.edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = Vec::with_capacity(m);
        for &(_, v, w) in &self.edges {
            out_targets.push(v);
            out_weights.push(w);
        }

        // Reverse CSR via counting sort on the target.
        let mut in_offsets = vec![0u64; n as usize + 1];
        for &(_, v, _) in &self.edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u64> = in_offsets[..n as usize].to_vec();
        let mut in_arcs = vec![InArc { source: 0, live_below: 0 }; m];
        let mut in_weights = vec![0.0f32; m];
        for &(u, v, w) in &self.edges {
            let slot = cursor[v as usize] as usize;
            in_arcs[slot] = InArc { source: u, live_below: InArc::live_below(w) };
            in_weights[slot] = w;
            cursor[v as usize] += 1;
        }

        Ok(Graph::from_csr(
            n,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_arcs,
            in_weights,
        ))
    }
}

/// Rescales incoming weights per node so `Σ_u w(u,v) ≤ 1`.
fn normalize_in_weights(edges: &mut [(NodeId, NodeId, f32)], n: u32) {
    let mut sums = vec![0.0f64; n as usize];
    for &(_, v, w) in edges.iter() {
        sums[v as usize] += f64::from(w);
    }
    for e in edges.iter_mut() {
        let s = sums[e.1 as usize];
        if s > 1.0 {
            e.2 = (f64::from(e.2) / s) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_fails() {
        assert!(matches!(
            GraphBuilder::new().build(WeightModel::Provided),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn fixed_num_nodes_allows_isolated_tail() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.set_num_nodes(10);
        let g = b.build(WeightModel::Constant(0.5)).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn node_out_of_range_rejected() {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(2);
        b.add_arc(0, 5);
        assert!(matches!(
            b.build(WeightModel::Constant(0.5)),
            Err(GraphError::NodeOutOfRange { node: 5, num_nodes: 2 })
        ));
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 0);
        b.add_arc(0, 1);
        let g = b.build(WeightModel::Constant(0.1)).unwrap();
        assert_eq!(g.num_arcs(), 1);

        let mut b = GraphBuilder::new();
        b.allow_self_loops(true);
        b.add_arc(0, 0);
        b.add_arc(0, 1);
        let g = b.build(WeightModel::Constant(0.1)).unwrap();
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn provided_requires_valid_weights() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.5);
        assert!(matches!(b.build(WeightModel::Provided), Err(GraphError::InvalidWeight { .. })));

        let mut b = GraphBuilder::new();
        b.add_arc(0, 1); // NaN weight sentinel
        assert!(matches!(b.build(WeightModel::Provided), Err(GraphError::InvalidWeight { .. })));
    }

    #[test]
    fn duplicate_rows_keep_the_last_weight() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.1);
        b.add_edge(0, 1, 0.9);
        let g = b.build(WeightModel::Provided).unwrap();
        assert_eq!(g.num_arcs(), 1);
        assert!((g.out_weights(0)[0] - 0.9).abs() < 1e-7);
    }

    #[test]
    fn normalize_for_lt_rescales_overflowing_nodes() {
        let mut b = GraphBuilder::new();
        b.normalize_for_lt(true);
        b.add_edge(0, 2, 0.9);
        b.add_edge(1, 2, 0.9);
        let g = b.build(WeightModel::Provided).unwrap();
        assert!(g.lt_compatible());
        assert!((g.in_weight_sum(2) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new();
        b.add_undirected(0, 1);
        let g = b.build(WeightModel::Constant(0.2)).unwrap();
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(1), 1);
    }

    #[test]
    fn csr_is_sorted_and_consistent() {
        let mut b = GraphBuilder::new();
        // insertion order deliberately scrambled
        for (u, v) in [(3, 1), (0, 2), (2, 1), (0, 1), (3, 0), (1, 3)] {
            b.add_arc(u, v);
        }
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_arcs(), 6);
        // out-neighbors sorted per node
        for v in 0..4 {
            let ns = g.out_neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] <= w[1]));
        }
        // forward and reverse views agree on the arcs and their coins
        let mut fwd: Vec<_> = g.arcs().map(|(u, v, w)| (u, v, InArc::live_below(w))).collect();
        let mut rev: Vec<_> = (0..4)
            .flat_map(|v| g.in_arcs(v).iter().map(move |a| (a.source, v, a.live_below)))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }
}

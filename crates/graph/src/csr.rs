//! Immutable CSR (compressed sparse row) graph representation.
//!
//! Both adjacency directions are materialized:
//!
//! * forward (out-edges) — walked by the IC/LT *forward* cascade
//!   simulators;
//! * reverse (in-edges) — walked by the RIS samplers, which grow a reverse
//!   reachable set from a random root.
//!
//! The reverse CSR is one interleaved array of [`InArc`]s: an in-neighbour
//! and its integer IC coin threshold `live_below = ⌈w·2²⁴⌉`, clamped to
//! `[0, 2²⁴]`. A uniform `f32` is `x·2⁻²⁴` for a 24-bit integer `x`, an
//! exact scaling, so `x·2⁻²⁴ < w ⇔ x < ⌈w·2²⁴⌉`; clamping changes nothing
//! (`x < 2²⁴` always, and no NaN, negative or zero weight exceeds `x`).
//! The integer coin draws the same bits and answers as the float coin.
//!
//! For the LT reverse walk ("pick one in-neighbor `u` of `v` with
//! probability `w(u,v)`, or stop with probability `1 − Σ w`") the in-edge
//! weights of every node are additionally stored as a prefix-sum array so a
//! single uniform draw resolves to a neighbor with one binary search.

use crate::NodeId;

/// One reverse-CSR entry: an in-neighbour and the arc's IC coin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InArc {
    /// The arc's tail `u`.
    pub source: NodeId,
    /// The arc is live under a 24-bit uniform draw `x` iff `x < live_below`.
    pub live_below: u32,
}

impl InArc {
    /// The IC coin threshold of weight `w` (module docs). `w·2²⁴` is exact
    /// in f32; the saturating cast maps NaN and negatives to 0.
    pub fn live_below(w: f32) -> u32 {
        ((w * (1u32 << 24) as f32).ceil() as u32).min(1 << 24)
    }
}

/// An immutable directed, weighted graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`]; all arrays are laid out once and
/// never mutated, so a `Graph` is `Send + Sync` and can be shared freely
/// across sampling threads.
#[derive(Clone)]
pub struct Graph {
    n: u32,
    /// Forward CSR: out-edges of node `v` live at
    /// `out_targets[out_offsets[v] .. out_offsets[v+1]]`.
    out_offsets: Vec<u64>,
    out_targets: Vec<NodeId>,
    out_weights: Vec<f32>,
    /// Reverse CSR: in-arcs of node `v` live at
    /// `in_arcs[in_offsets[v] .. in_offsets[v+1]]`.
    in_offsets: Vec<u64>,
    in_arcs: Vec<InArc>,
    /// Per-segment inclusive prefix sums of the in-arc weights, used by
    /// [`Graph::sample_in_neighbor_lt`]. `in_cum[e]` is the sum of the
    /// weights of the node's in-edges up to and including position `e`.
    in_cum: Vec<f32>,
    /// Cached `Σ_u w(u, v)` per node (the last prefix sum of the segment).
    in_weight_sum: Vec<f32>,
    /// Lazily computed [`Graph::content_hash`] digest. The CSR arrays
    /// never mutate after construction, so the first hash is the hash.
    pub(crate) content_digest: std::sync::OnceLock<u64>,
}

impl Graph {
    /// Assembles a graph from already-sorted CSR arrays; `in_weights`
    /// (aligned with `in_arcs`) becomes the LT prefix sums in place.
    ///
    /// Invariants (checked with `debug_assert`s, guaranteed by the builder):
    /// offsets are monotone with `offsets[0] == 0`, `offsets[n]` equals the
    /// respective array length, and all node ids are `< n`.
    pub(crate) fn from_csr(
        n: u32,
        out_offsets: Vec<u64>,
        out_targets: Vec<NodeId>,
        out_weights: Vec<f32>,
        in_offsets: Vec<u64>,
        in_arcs: Vec<InArc>,
        in_weights: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n as usize + 1);
        debug_assert_eq!(in_offsets.len(), n as usize + 1);
        debug_assert_eq!(*out_offsets.last().unwrap() as usize, out_targets.len());
        debug_assert_eq!(*in_offsets.last().unwrap() as usize, in_arcs.len());
        debug_assert_eq!(out_targets.len(), out_weights.len());
        debug_assert_eq!(in_arcs.len(), in_weights.len());

        let mut in_cum = in_weights;
        let mut in_weight_sum = vec![0.0f32; n as usize];
        for v in 0..n as usize {
            let (s, e) = (in_offsets[v] as usize, in_offsets[v + 1] as usize);
            // f64 accumulator: a node can have millions of in-edges and the
            // LT stop-probability depends on the exact tail 1 − Σw.
            let mut acc = 0.0f64;
            for c in &mut in_cum[s..e] {
                acc += f64::from(*c);
                *c = acc as f32;
            }
            in_weight_sum[v] = acc as f32;
        }

        Graph {
            n,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_arcs,
            in_cum,
            in_weight_sum,
            content_digest: std::sync::OnceLock::new(),
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Number of directed arcs `m`.
    #[inline]
    pub fn num_arcs(&self) -> u64 {
        self.out_targets.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> u32 {
        let v = v as usize;
        (self.out_offsets[v + 1] - self.out_offsets[v]) as u32
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> u32 {
        let v = v as usize;
        (self.in_offsets[v + 1] - self.in_offsets[v]) as u32
    }

    /// Targets of the out-edges of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize]
    }

    /// Weights of the out-edges of `v`, aligned with
    /// [`Graph::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: NodeId) -> &[f32] {
        let v = v as usize;
        &self.out_weights[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize]
    }

    /// In-arcs of `v`: each in-neighbour with its IC coin threshold.
    #[inline]
    pub fn in_arcs(&self, v: NodeId) -> &[InArc] {
        let v = v as usize;
        &self.in_arcs[self.in_offsets[v] as usize..self.in_offsets[v + 1] as usize]
    }

    /// Iterator over `(target, weight)` pairs of the out-edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl ExactSizeIterator<Item = (NodeId, f32)> + '_ {
        self.out_neighbors(v).iter().copied().zip(self.out_weights(v).iter().copied())
    }

    /// Total incoming weight `Σ_u w(u, v)` of node `v`.
    ///
    /// Under the LT model this is the probability that the reverse random
    /// walk continues past `v` (it stops with probability `1 − Σ w`).
    #[inline]
    pub fn in_weight_sum(&self, v: NodeId) -> f32 {
        self.in_weight_sum[v as usize]
    }

    /// LT reverse-walk step: maps a uniform draw `r ∈ [0, 1)` to the
    /// in-neighbor `u` of `v` selected with probability `w(u, v)`, or
    /// `None` (walk stops) with the residual probability `1 − Σ_u w(u, v)`.
    ///
    /// Resolution is a binary search over the node's in-weight prefix sums,
    /// i.e. `O(log din(v))`.
    #[inline]
    pub fn sample_in_neighbor_lt(&self, v: NodeId, r: f32) -> Option<NodeId> {
        let vi = v as usize;
        let (s, e) = (self.in_offsets[vi] as usize, self.in_offsets[vi + 1] as usize);
        if s == e || r >= self.in_weight_sum[vi] {
            return None;
        }
        let seg = &self.in_cum[s..e];
        // First prefix sum strictly greater than r.
        let idx = seg.partition_point(|&c| c <= r);
        if idx >= seg.len() {
            // Float edge case: r < in_weight_sum but ≥ final prefix due to
            // rounding in the cached sum. Treat as the last neighbor.
            return Some(self.in_arcs[e - 1].source);
        }
        Some(self.in_arcs[s + idx].source)
    }

    /// Whether every node satisfies the LT constraint `Σ_u w(u,v) ≤ 1`
    /// (with a small tolerance for f32 accumulation error).
    pub fn lt_compatible(&self) -> bool {
        self.in_weight_sum.iter().all(|&s| s <= 1.0 + 1e-4)
    }

    /// Sum of in-degrees of the given nodes: the number of arcs in `G`
    /// pointing *into* the set. This is the "width" `w(R)` of an RR set
    /// used by TIM's KPT estimation (Tang et al., SIGMOD'14).
    pub fn width_of(&self, nodes: &[NodeId]) -> u64 {
        nodes.iter().map(|&v| u64::from(self.in_degree(v))).sum()
    }

    /// Approximate resident size of the graph's arrays, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        ((self.out_offsets.len() + self.in_offsets.len()) * size_of::<u64>()
            + self.out_targets.len() * size_of::<NodeId>()
            + self.in_arcs.len() * size_of::<InArc>()
            + (self.out_weights.len() + self.in_cum.len() + self.in_weight_sum.len())
                * size_of::<f32>()) as u64
    }

    /// Iterator over all arcs as `(from, to, weight)`, in CSR (source)
    /// order. Intended for export and tests, not hot paths.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.n).flat_map(move |u| self.out_edges(u).map(move |(v, w)| (u, v, w)))
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph").field("nodes", &self.n).field("arcs", &self.num_arcs()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::InArc;
    use crate::{GraphBuilder, WeightModel};

    fn triangle() -> crate::Graph {
        // 0 -> 1 (0.5), 1 -> 2 (0.25), 0 -> 2 (0.25)
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.25);
        b.add_edge(0, 2, 0.25);
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        let sources: Vec<_> = g.in_arcs(2).iter().map(|a| a.source).collect();
        assert_eq!(sources, vec![0, 1]);
    }

    #[test]
    fn edge_iterators_pair_weights() {
        let g = triangle();
        let out: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out, vec![(1, 0.5), (2, 0.25)]);
        assert_eq!(g.out_edges(0).len(), 2);
        // in-arcs carry ⌈w·2²⁴⌉: 0.25 → 2²²
        let quarter = 1 << 22;
        assert_eq!(
            g.in_arcs(2),
            &[InArc { source: 0, live_below: quarter }, InArc { source: 1, live_below: quarter }]
        );
    }

    #[test]
    fn in_weight_sums() {
        let g = triangle();
        assert!((g.in_weight_sum(1) - 0.5).abs() < 1e-7);
        assert!((g.in_weight_sum(2) - 0.5).abs() < 1e-7);
        assert_eq!(g.in_weight_sum(0), 0.0);
        assert!(g.lt_compatible());
    }

    #[test]
    fn lt_sampling_maps_intervals_to_neighbors() {
        let g = triangle();
        // node 2: in-edges (0, 0.25), (1, 0.25); cum = [0.25, 0.5]
        assert_eq!(g.sample_in_neighbor_lt(2, 0.0), Some(0));
        assert_eq!(g.sample_in_neighbor_lt(2, 0.2499), Some(0));
        assert_eq!(g.sample_in_neighbor_lt(2, 0.25), Some(1));
        assert_eq!(g.sample_in_neighbor_lt(2, 0.4999), Some(1));
        assert_eq!(g.sample_in_neighbor_lt(2, 0.5), None);
        assert_eq!(g.sample_in_neighbor_lt(2, 0.99), None);
        // node with no in-edges never yields a neighbor
        assert_eq!(g.sample_in_neighbor_lt(0, 0.0), None);
    }

    #[test]
    fn width_counts_incoming_arcs() {
        let g = triangle();
        assert_eq!(g.width_of(&[2]), 2);
        assert_eq!(g.width_of(&[0]), 0);
        assert_eq!(g.width_of(&[0, 1, 2]), 3);
    }

    #[test]
    fn arcs_roundtrip() {
        let g = triangle();
        let mut arcs: Vec<_> = g.arcs().collect();
        arcs.sort_by_key(|&(u, v, _)| (u, v));
        assert_eq!(arcs.len(), 3);
        assert_eq!(arcs[0].0, 0);
        assert_eq!(arcs[0].1, 1);
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
    }
}

//! Property-based tests for the graph substrate.

use proptest::collection::vec;
use proptest::prelude::*;

use sns_graph::{AliasTable, GraphBuilder, InArc, WeightModel};

/// Arbitrary small edge list over up to 32 nodes.
fn edge_list() -> impl Strategy<Value = Vec<(u32, u32)>> {
    vec((0u32..32, 0u32..32), 0..200)
}

proptest! {
    /// Forward and reverse CSR views always describe the same arc set,
    /// with the same coin per arc.
    #[test]
    fn forward_reverse_consistent(edges in edge_list()) {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(32);
        b.extend_arcs(edges.iter().copied());
        let g = b.build(WeightModel::Constant(0.5)).unwrap();

        let mut fwd: Vec<_> = g.arcs().map(|(u, v, w)| (u, v, InArc::live_below(w))).collect();
        let mut rev: Vec<_> = (0..g.num_nodes())
            .flat_map(|v| g.in_arcs(v).iter().map(move |a| (a.source, v, a.live_below)))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        prop_assert_eq!(fwd, rev);
    }

    /// Degree sums equal the arc count in both directions.
    #[test]
    fn degree_sums_match_arcs(edges in edge_list()) {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(32);
        b.extend_arcs(edges.iter().copied());
        let g = b.build(WeightModel::Constant(0.5)).unwrap();

        let dout: u64 = (0..g.num_nodes()).map(|v| u64::from(g.out_degree(v))).sum();
        let din: u64 = (0..g.num_nodes()).map(|v| u64::from(g.in_degree(v))).sum();
        prop_assert_eq!(dout, g.num_arcs());
        prop_assert_eq!(din, g.num_arcs());
    }

    /// Building is insensitive to edge insertion order (dedup keeps the last
    /// row, which differs per order on duplicate weights, so use distinct
    /// arcs).
    #[test]
    fn insertion_order_irrelevant(mut edges in edge_list(), seed in 0u64..1000) {
        edges.sort_unstable();
        edges.dedup();

        let mut b1 = GraphBuilder::new();
        b1.set_num_nodes(32);
        b1.extend_arcs(edges.iter().copied());
        let g1 = b1.build(WeightModel::WeightedCascade).unwrap();

        // pseudo-shuffle deterministically from the seed
        let mut shuffled = edges.clone();
        let len = shuffled.len();
        if len > 1 {
            let mut s = seed;
            for i in (1..len).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
        }
        let mut b2 = GraphBuilder::new();
        b2.set_num_nodes(32);
        b2.extend_arcs(shuffled.iter().copied());
        let g2 = b2.build(WeightModel::WeightedCascade).unwrap();

        let a1: Vec<_> = g1.arcs().collect();
        let a2: Vec<_> = g2.arcs().collect();
        prop_assert_eq!(a1, a2);
    }

    /// Weighted cascade always yields an LT-compatible graph with
    /// in-weight sums of exactly 1 for nodes with in-edges.
    #[test]
    fn weighted_cascade_lt_invariant(edges in edge_list()) {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(32);
        b.extend_arcs(edges.iter().copied());
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        prop_assert!(g.lt_compatible());
        for v in 0..g.num_nodes() {
            if g.in_degree(v) > 0 {
                prop_assert!((g.in_weight_sum(v) - 1.0).abs() < 1e-4);
            } else {
                prop_assert_eq!(g.in_weight_sum(v), 0.0);
            }
        }
    }

    /// The LT in-neighbor sampler partitions [0,1): every draw lands on a
    /// real in-neighbor or on None, and the neighbor frequencies respect
    /// the weights (checked structurally: returned node must be an
    /// in-neighbor).
    #[test]
    fn lt_sampler_returns_in_neighbors(edges in edge_list(), r in 0.0f32..1.0) {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(32);
        b.extend_arcs(edges.iter().copied());
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        for v in 0..g.num_nodes() {
            match g.sample_in_neighbor_lt(v, r) {
                Some(u) => prop_assert!(g.in_arcs(v).iter().any(|a| a.source == u)),
                None => prop_assert!(r >= g.in_weight_sum(v) - 1e-5),
            }
        }
    }

    /// Binary IO round-trips arbitrary graphs bit-exactly.
    #[test]
    fn binary_roundtrip(edges in edge_list(), weights in vec(0.0f32..=1.0, 200)) {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(32);
        for (i, &(u, v)) in edges.iter().enumerate() {
            b.add_edge(u, v, weights[i % weights.len()]);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let mut buf = Vec::new();
        sns_graph::io::write_binary(&g, &mut buf).unwrap();
        let g2 = sns_graph::io::read_binary(&buf[..]).unwrap();
        let a1: Vec<_> = g.arcs().collect();
        let a2: Vec<_> = g2.arcs().collect();
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(g.num_nodes(), g2.num_nodes());
    }

    /// Alias tables never return a zero-weight category.
    #[test]
    fn alias_skips_zero_weights(weights in vec(0.0f64..10.0, 1..50), seed in 0u64..100) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let t = AliasTable::new(&weights).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = t.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "drew zero-weight category {}", i);
        }
    }
}

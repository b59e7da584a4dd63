//! Root selection for RR-set sampling.
//!
//! Standard RIS picks the RR-set root uniformly from all nodes (Lemma 1:
//! `I(S) = n · Pr[S covers R]`). Targeted viral marketing (§7.3.1) uses
//! WRIS: the root is drawn proportional to per-node relevance weights
//! `b(v)`, giving `I_T(S) = Γ · Pr[S covers R]` with `Γ = Σ_v b(v)`.
//!
//! The weighted draw goes through an [`AliasTable`]: constant time, and
//! exactly one `f64` from the per-sample stream per root, so sample `i`
//! sees the same stream on any thread count. Per-node *benefits* of
//! cost-aware (CTVM-style) campaigns are the same `b(v)` and use the same
//! table.

use std::sync::Arc;

use rand::{Rng, RngCore};

use sns_graph::{AliasTable, Graph, GraphError, NodeId};

/// Distribution of RR-set roots.
#[derive(Debug, Clone)]
pub enum RootDist {
    /// Uniform over all `n` nodes — plain RIS for influence maximization.
    Uniform,
    /// Proportional to node weights — WRIS for targeted viral marketing.
    /// Wrapped in [`Arc`] so cloning a sampler for another thread shares
    /// the table.
    Weighted(Arc<AliasTable>),
}

impl RootDist {
    /// Builds a weighted distribution from per-node weights (length must
    /// equal the node count of the graph the sampler will run on).
    pub fn weighted(weights: &[f64]) -> Result<Self, GraphError> {
        Ok(RootDist::Weighted(Arc::new(AliasTable::new(weights)?)))
    }

    /// Draws a root.
    #[inline]
    pub fn sample<R: RngCore>(&self, n: u32, rng: &mut R) -> NodeId {
        match self {
            RootDist::Uniform => rng.gen_range(0..n),
            RootDist::Weighted(table) => table.sample(rng) as NodeId,
        }
    }

    /// The universe mass Γ scaling coverage into influence: `n` for
    /// uniform RIS, `Σ_v b(v)` for weighted RIS.
    #[inline]
    pub fn gamma(&self, graph: &Graph) -> f64 {
        match self {
            RootDist::Uniform => f64::from(graph.num_nodes()),
            RootDist::Weighted(table) => table.total_weight(),
        }
    }

    /// A content checksum of the weight vector behind this
    /// distribution, or `None` for the parameterless uniform case.
    /// Recorded in pool-store fingerprints: Γ alone cannot distinguish
    /// two different vectors with equal mass, this can (up to hash
    /// collision — it guards against operational mix-ups, not
    /// adversaries).
    pub fn content_checksum(&self) -> Option<u64> {
        match self {
            RootDist::Uniform => None,
            RootDist::Weighted(table) => Some(table.content_checksum()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use rand::SeedableRng;
    use sns_graph::{GraphBuilder, WeightModel};

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.set_num_nodes(4);
        b.build(WeightModel::Constant(0.1)).unwrap()
    }

    #[test]
    fn uniform_gamma_is_n() {
        let g = tiny_graph();
        assert_eq!(RootDist::Uniform.gamma(&g), 4.0);
    }

    #[test]
    fn weighted_gamma_is_total_weight() {
        let g = tiny_graph();
        let d = RootDist::weighted(&[1.0, 2.0, 0.0, 1.0]).unwrap();
        assert_eq!(d.gamma(&g), 4.0);
    }

    #[test]
    fn weighted_sampling_respects_zeros() {
        let d = RootDist::weighted(&[0.0, 1.0, 0.0, 1.0]).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..500 {
            let v = d.sample(4, &mut rng);
            assert!(v == 1 || v == 3);
        }
    }

    #[test]
    fn uniform_sampling_covers_range() {
        let d = RootDist::Uniform;
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[d.sample(4, &mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn degenerate_weights_rejected() {
        assert!(RootDist::weighted(&[0.0, 0.0]).is_err());
    }
}

//! Target-group weights and the synthetic topic model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sns_graph::{Graph, GraphError, NodeId};

/// One row of the paper's Table 4: a topic, its mined keywords, and the
/// size of the targeted user group on the 41.7M-node Twitter network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopicSpec {
    /// Topic label as in Table 4.
    pub name: &'static str,
    /// The keyword group whose tweet/retweet matches define the target
    /// users in the paper.
    pub keywords: &'static [&'static str],
    /// Targeted users mined from the tweet corpus (Table 4 "#Users").
    pub users: u64,
    /// Fraction of the Twitter network the group represents; used to
    /// scale the synthetic group to stand-in graphs.
    pub fraction: f64,
}

/// Table 4, topic 1 (997 034 of 41.7M users ≈ 2.39%).
pub const TOPIC_1: TopicSpec = TopicSpec {
    name: "Topic 1",
    keywords: &["bill clinton", "iran", "north korea", "president obama", "obama"],
    users: 997_034,
    fraction: 997_034.0 / 41_700_000.0,
};

/// Table 4, topic 2 (507 465 of 41.7M users ≈ 1.22%).
pub const TOPIC_2: TopicSpec = TopicSpec {
    name: "Topic 2",
    keywords: &["senator ted kenedy", "oprah", "kayne west", "marvel", "jackass"],
    users: 507_465,
    fraction: 507_465.0 / 41_700_000.0,
};

/// Source of the process-unique topic ids handed to
/// [`TargetWeights::topic_id`]. Minted from the upper half of the `u64`
/// space so ids never collide with the small integers callers naturally
/// pick for hand-managed `SeedQuery::with_topic` ids (a collision only
/// thrashes the weighted-snapshot cache — `Arc` identity keeps answers
/// correct — but disjoint namespaces avoid even that).
static NEXT_TOPIC_ID: AtomicU64 = AtomicU64::new(1 << 63);

/// Validated per-node relevance weights `b(v) ≥ 0` with `Γ = Σ b(v) > 0`.
///
/// The weight vector is stored behind an [`Arc`] and every instance
/// carries a process-unique [`TargetWeights::topic_id`], so queries
/// minted by [`TargetWeights::seed_query`] share the allocation (no
/// n-length clone per query) and `sns_core::SeedQueryEngine` can cache
/// one weighted gain snapshot per `(range, topic)` across repeated
/// queries. Clones share both the weights and the id — they *are* the
/// same topic.
#[derive(Debug, Clone)]
pub struct TargetWeights {
    weights: Arc<[f64]>,
    gamma: f64,
    num_targeted: u32,
    topic_id: u64,
}

impl TargetWeights {
    /// Wraps an explicit weight vector (one entry per node).
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, GraphError> {
        let mut gamma = 0.0f64;
        let mut num_targeted = 0u32;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight {
                    from: i as u32,
                    to: i as u32,
                    weight: w as f32,
                });
            }
            if w > 0.0 {
                num_targeted += 1;
            }
            gamma += w;
        }
        if weights.is_empty() || gamma <= 0.0 {
            return Err(GraphError::ZeroTotalWeight);
        }
        Ok(TargetWeights {
            weights: weights.into(),
            gamma,
            num_targeted,
            topic_id: NEXT_TOPIC_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Uniform weight 1 on every node — TVM degenerates to classic IM
    /// (`Γ = n`, roots effectively uniform).
    pub fn uniform_all(n: u32) -> Self {
        TargetWeights {
            weights: vec![1.0; n as usize].into(),
            gamma: f64::from(n),
            num_targeted: n,
            topic_id: NEXT_TOPIC_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Synthesizes a topic's target group on `graph` — the stand-in for
    /// the paper's tweet-keyword mining, which needs a tweet corpus this
    /// repository does not ship:
    ///
    /// * a `fraction` of nodes is targeted, selected with bias toward
    ///   high out-degree nodes (keyword activity correlates with account
    ///   activity);
    /// * relevance weights follow a Zipf law with exponent
    ///   `zipf_exponent` (tweet-frequency counts are heavy-tailed).
    ///
    /// Deterministic in `seed`.
    pub fn synthetic_topic(
        graph: &Graph,
        fraction: f64,
        zipf_exponent: f64,
        seed: u64,
    ) -> Result<Self, GraphError> {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        assert!(zipf_exponent >= 0.0, "zipf exponent must be non-negative");
        let n = graph.num_nodes();
        let group = ((f64::from(n) * fraction).round() as u32).clamp(1, n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // Degree-biased selection without replacement: shuffle candidates
        // weighted by (1 + out-degree) via exponential sort keys
        // (Efraimidis–Spirakis reservoir ordering).
        let mut keyed: Vec<(f64, NodeId)> = (0..n)
            .map(|v| {
                let w = 1.0 + f64::from(graph.out_degree(v));
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                (u.ln() / w, v) // larger key = more likely selected
            })
            .collect();
        keyed.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("keys finite"));
        let mut members: Vec<NodeId> = keyed[..group as usize].iter().map(|&(_, v)| v).collect();
        // Zipf ranks are assigned in random order within the group so the
        // heaviest users are not mechanically the highest-degree ones.
        members.shuffle(&mut rng);

        let mut weights = vec![0.0f64; n as usize];
        for (rank, &v) in members.iter().enumerate() {
            weights[v as usize] = 1.0 / ((rank + 1) as f64).powf(zipf_exponent);
        }
        Self::from_weights(weights)
    }

    /// Scales a Table 4 topic onto a stand-in graph (same fraction of the
    /// population, Zipf exponent 1).
    pub fn from_topic(graph: &Graph, topic: &TopicSpec, seed: u64) -> Result<Self, GraphError> {
        Self::synthetic_topic(graph, topic.fraction, 1.0, seed)
    }

    /// The per-node weights `b(v)`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The shared weight allocation — hand this to query constructors to
    /// avoid copying the n-length vector.
    pub fn shared_weights(&self) -> Arc<[f64]> {
        Arc::clone(&self.weights)
    }

    /// The process-unique id of this topic's weight vector (shared by
    /// clones), under which serving engines cache weighted snapshots.
    pub fn topic_id(&self) -> u64 {
        self.topic_id
    }

    /// `Γ = Σ_v b(v)`, the targeted universe mass.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of nodes with positive weight (the target group size,
    /// Table 4's "#Users").
    pub fn num_targeted(&self) -> u32 {
        self.num_targeted
    }

    /// The best-`k`-seeds question for this target group, ready for
    /// `sns_core::SeedQueryEngine` — one frozen uniform-root pool can
    /// answer it for every topic without resampling (the engine
    /// reweights each RR set by its root's `b(v)`; see
    /// `sns_rrset::snapshot` for the estimator and its caveat on sparse
    /// groups). The query shares this topic's weight `Arc` and carries
    /// its [`TargetWeights::topic_id`], so repeated queries on one topic
    /// hit the engine's weighted-snapshot cache instead of re-running
    /// the weighted gain pass. Refine further with the `SeedQuery`
    /// builders (ranges, forced/excluded seeds).
    pub fn seed_query(&self, k: usize) -> sns_core::SeedQuery {
        sns_core::SeedQuery::top_k(k)
            .with_root_weights(self.shared_weights())
            .with_topic(self.topic_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_graph::{gen, WeightModel};

    #[test]
    #[allow(clippy::assertions_on_constants)] // spec cross-check reads better inline
    fn topic_specs_match_table4() {
        assert_eq!(TOPIC_1.users, 997_034);
        assert_eq!(TOPIC_2.users, 507_465);
        assert_eq!(TOPIC_1.keywords.len(), 5);
        assert!(TOPIC_1.fraction > TOPIC_2.fraction);
    }

    #[test]
    fn from_weights_validates() {
        assert!(TargetWeights::from_weights(vec![]).is_err());
        assert!(TargetWeights::from_weights(vec![0.0, 0.0]).is_err());
        assert!(TargetWeights::from_weights(vec![1.0, -1.0]).is_err());
        assert!(TargetWeights::from_weights(vec![1.0, f64::NAN]).is_err());
        let t = TargetWeights::from_weights(vec![1.0, 0.0, 2.0]).unwrap();
        assert_eq!(t.gamma(), 3.0);
        assert_eq!(t.num_targeted(), 2);
        assert_eq!(t.weights()[1], 0.0);
    }

    #[test]
    fn uniform_reduces_to_im() {
        let t = TargetWeights::uniform_all(10);
        assert_eq!(t.gamma(), 10.0);
        assert_eq!(t.num_targeted(), 10);
    }

    #[test]
    fn synthetic_topic_hits_requested_fraction() {
        let g = gen::erdos_renyi(1000, 5000, 3).build(WeightModel::WeightedCascade).unwrap();
        let t = TargetWeights::synthetic_topic(&g, 0.05, 1.0, 7).unwrap();
        assert_eq!(t.num_targeted(), 50);
        assert!(t.gamma() > 0.0);
        // Zipf: heaviest weight is 1, total < harmonic bound
        let max = t.weights().iter().cloned().fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_topic_deterministic() {
        let g = gen::erdos_renyi(500, 2500, 3).build(WeightModel::WeightedCascade).unwrap();
        let a = TargetWeights::synthetic_topic(&g, 0.1, 1.0, 9).unwrap();
        let b = TargetWeights::synthetic_topic(&g, 0.1, 1.0, 9).unwrap();
        assert_eq!(a.weights(), b.weights());
        let c = TargetWeights::synthetic_topic(&g, 0.1, 1.0, 10).unwrap();
        assert_ne!(a.weights(), c.weights());
    }

    #[test]
    fn degree_bias_prefers_hubs() {
        // star graph: node 0 has degree 500, everyone else ~0
        let mut b = sns_graph::GraphBuilder::new();
        for v in 1..=500 {
            b.add_arc(0, v);
        }
        let g = b.build(WeightModel::WeightedCascade).unwrap();
        // tiny group: the hub should almost always be included
        let mut included = 0;
        for seed in 0..20 {
            let t = TargetWeights::synthetic_topic(&g, 0.01, 1.0, seed).unwrap();
            if t.weights()[0] > 0.0 {
                included += 1;
            }
        }
        assert!(included >= 18, "hub included only {included}/20 times");
    }
}

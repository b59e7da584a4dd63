//! The sampling context: everything an RIS algorithm needs besides its
//! `(k, ε, δ)` parameters.

use sns_diffusion::rng::seed_for;
use sns_diffusion::{Model, RootDist, RrSampler};
use sns_graph::{Graph, GraphError};

/// Bundles graph, diffusion model, root distribution, master seed and
/// parallelism for one algorithm run.
///
/// With [`RootDist::Uniform`] the algorithms solve classic influence
/// maximization; with weighted roots (WRIS) the identical code solves
/// targeted viral marketing — only the universe mass `Γ` and the
/// root-draw distribution change (§7.3.1 of the paper).
#[derive(Clone)]
pub struct SamplingContext<'g> {
    graph: &'g Graph,
    model: Model,
    roots: RootDist,
    /// Sum of the top-k weights is cached lazily per k; for uniform roots
    /// it is simply k. Stored descending.
    sorted_weights_desc: Option<Vec<f64>>,
    seed: u64,
    threads: usize,
}

impl<'g> SamplingContext<'g> {
    /// Context with uniform roots, seed 0 and sequential sampling (the
    /// paper's single-threaded setting).
    pub fn new(graph: &'g Graph, model: Model) -> Self {
        SamplingContext {
            graph,
            model,
            roots: RootDist::Uniform,
            sorted_weights_desc: None,
            seed: 0,
            threads: 1,
        }
    }

    /// Sets the master seed (all sampling derives from it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count used when growing RR pools.
    /// Parallelism never changes results (per-index RNG streams).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Switches to weighted (WRIS) root sampling for targeted viral
    /// marketing. `weights[v]` is the relevance `b(v) ≥ 0` of node `v`
    /// (or its benefit, for cost-aware campaigns); the slice length must
    /// equal the node count, else [`GraphError::LengthMismatch`].
    pub fn with_weighted_roots(mut self, weights: &[f64]) -> Result<Self, GraphError> {
        let expected = self.graph.num_nodes() as usize;
        if weights.len() != expected {
            return Err(GraphError::LengthMismatch { expected, found: weights.len() });
        }
        self.roots = RootDist::weighted(weights)?;
        let mut sorted: Vec<f64> = weights.to_vec();
        sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("weights validated finite"));
        self.sorted_weights_desc = Some(sorted);
        Ok(self)
    }

    /// The graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The diffusion model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The root distribution.
    pub fn roots(&self) -> &RootDist {
        &self.roots
    }

    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker threads for pool growth.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Universe mass Γ: `n` for uniform roots, `Σ_v b(v)` for WRIS.
    pub fn gamma(&self) -> f64 {
        self.roots.gamma(self.graph)
    }

    /// Content checksum of the root weight vector, `None` for
    /// uniform roots. Recorded in pool-store fingerprints so a persisted
    /// weighted pool refuses to reload under a different vector — even
    /// one whose total Γ happens to match.
    pub fn roots_checksum(&self) -> Option<u64> {
        self.roots.content_checksum()
    }

    /// Worst-case `Γ / OPT_k` used to cap sample counts (`Nmax`):
    /// `n/k` for IM (`OPT_k ≥ k`: seeds influence themselves), and
    /// `Γ / Σ(top-k weights)` for the weighted universe (seeding the k
    /// heaviest nodes secures their own weight).
    pub fn cap_ratio(&self, k: usize) -> f64 {
        let n = self.graph.num_nodes() as usize;
        let k = k.min(n).max(1);
        match &self.sorted_weights_desc {
            None => n as f64 / k as f64,
            Some(sorted) => {
                let topk: f64 = sorted[..k].iter().sum();
                if topk <= 0.0 {
                    // all-zero top weights cannot happen (RootDist::weighted
                    // rejects zero-total vectors), but stay defensive
                    n as f64 / k as f64
                } else {
                    self.gamma() / topk
                }
            }
        }
    }

    /// Derives an independent seed for a named sample stream. Stream 0 is
    /// the main pool; SSA's per-iteration Estimate-Inf validation uses
    /// streams `1, 2, …` so its samples are independent of the pool.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        seed_for(self.seed, stream)
    }

    /// Creates an RR sampler bound to the given stream.
    pub fn sampler(&self, stream: u64) -> RrSampler<'g> {
        RrSampler::with_config(self.graph, self.model, self.roots.clone(), self.stream_seed(stream))
    }
}

impl std::fmt::Debug for SamplingContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplingContext")
            .field("graph", &self.graph)
            .field("model", &self.model)
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_graph::{GraphBuilder, WeightModel};

    fn g4() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.set_num_nodes(4);
        b.build(WeightModel::Constant(0.5)).unwrap()
    }

    #[test]
    fn uniform_context_basics() {
        let g = g4();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(5);
        assert_eq!(ctx.gamma(), 4.0);
        assert_eq!(ctx.cap_ratio(2), 2.0);
        assert_eq!(ctx.cap_ratio(100), 1.0); // k clamped to n
        assert_eq!(ctx.seed(), 5);
    }

    #[test]
    fn weighted_context_gamma_and_cap() {
        let g = g4();
        let ctx = SamplingContext::new(&g, Model::LinearThreshold)
            .with_weighted_roots(&[4.0, 3.0, 2.0, 1.0])
            .unwrap();
        assert!(matches!(ctx.roots(), RootDist::Weighted(_)));
        assert_eq!(ctx.gamma(), 10.0);
        // top-2 = 7 → cap = 10/7
        assert!((ctx.cap_ratio(2) - 10.0 / 7.0).abs() < 1e-12);
        assert!((ctx.cap_ratio(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn streams_are_independent() {
        let g = g4();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
        assert_ne!(ctx.stream_seed(0), ctx.stream_seed(1));
        let mut a = ctx.sampler(0);
        let mut b = ctx.sampler(1);
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        let mut differs = false;
        for i in 0..50 {
            let ma = a.sample(i, &mut ra);
            let mb = b.sample(i, &mut rb);
            if ma.root != mb.root {
                differs = true;
            }
        }
        assert!(differs, "streams 0 and 1 produced identical roots");
    }

    #[test]
    fn weighted_roots_never_draw_zero_weight_nodes() {
        let g = g4();
        let mut sampler = SamplingContext::new(&g, Model::IndependentCascade)
            .with_weighted_roots(&[0.0, 1.0, 1.0, 0.0])
            .unwrap()
            .sampler(0);
        let mut rr = Vec::new();
        for i in 0..200 {
            let meta = sampler.sample(i, &mut rr);
            assert!(meta.root == 1 || meta.root == 2);
        }
    }

    #[test]
    fn weight_length_checked() {
        let g = g4();
        let err = SamplingContext::new(&g, Model::IndependentCascade)
            .with_weighted_roots(&[1.0])
            .unwrap_err();
        assert!(matches!(err, GraphError::LengthMismatch { expected: 4, found: 1 }), "{err}");
    }
}

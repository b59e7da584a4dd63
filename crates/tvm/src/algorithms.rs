//! The TVM algorithms: SSA-TVM, D-SSA-TVM and the KB-TIM baseline.
//!
//! All three are the IM algorithms run over the weighted (WRIS) sampling
//! context — exactly the paper's §7.3.1 construction: "In the same way,
//! we incorporate WRIS into D-SSA and SSA for solving TVM". The core
//! crate's algorithms are universe-generic (they consume `Γ` and a root
//! distribution through [`SamplingContext`]), so each wrapper here just
//! assembles the weighted context.

use sns_baselines::Tim;
use sns_core::{CoreError, Dssa, Params, RunResult, SamplingContext, Ssa};
use sns_diffusion::Model;
use sns_graph::Graph;

use crate::TargetWeights;

/// Builds the weighted sampling context shared by the TVM algorithms.
fn weighted_ctx<'g>(
    graph: &'g Graph,
    model: Model,
    weights: &TargetWeights,
    seed: u64,
    threads: usize,
) -> Result<SamplingContext<'g>, CoreError> {
    Ok(SamplingContext::new(graph, model)
        .with_seed(seed)
        .with_threads(threads)
        .with_weighted_roots(weights.weights())?)
}

/// SSA over weighted RIS — the paper's SSA-TVM.
#[derive(Debug, Clone)]
pub struct SsaTvm {
    inner: Ssa,
}

impl SsaTvm {
    /// SSA-TVM with the recommended ε-split.
    pub fn new(params: Params) -> Self {
        SsaTvm { inner: Ssa::new(params) }
    }

    /// Runs SSA-TVM; the returned influence estimates are targeted
    /// influences in `[0, Γ]`.
    pub fn run(
        &self,
        graph: &Graph,
        model: Model,
        weights: &TargetWeights,
        seed: u64,
        threads: usize,
    ) -> Result<RunResult, CoreError> {
        self.inner.run(&weighted_ctx(graph, model, weights, seed, threads)?)
    }
}

/// D-SSA over weighted RIS — the paper's D-SSA-TVM.
#[derive(Debug, Clone)]
pub struct DssaTvm {
    inner: Dssa,
}

impl DssaTvm {
    /// D-SSA-TVM for the given `(k, ε, δ)`.
    pub fn new(params: Params) -> Self {
        DssaTvm { inner: Dssa::new(params) }
    }

    /// Runs D-SSA-TVM.
    pub fn run(
        &self,
        graph: &Graph,
        model: Model,
        weights: &TargetWeights,
        seed: u64,
        threads: usize,
    ) -> Result<RunResult, CoreError> {
        self.inner.run(&weighted_ctx(graph, model, weights, seed, threads)?)
    }
}

/// KB-TIM (Li, Zhang, Tan — VLDB'15): the prior best TVM method, i.e.
/// TIM+ with weighted RIS sampling. (The original additionally maintains
/// disk-resident per-keyword sample indexes for real-time queries; the
/// sampling/guarantee core reproduced here is what the paper's Figure 8
/// measures against.)
#[derive(Debug, Clone)]
pub struct KbTim {
    inner: Tim,
}

impl KbTim {
    /// KB-TIM for the given `(k, ε, δ)`.
    pub fn new(params: Params) -> Self {
        KbTim { inner: Tim::plus(params) }
    }

    /// Runs KB-TIM.
    pub fn run(
        &self,
        graph: &Graph,
        model: Model,
        weights: &TargetWeights,
        seed: u64,
        threads: usize,
    ) -> Result<RunResult, CoreError> {
        self.inner.run(&weighted_ctx(graph, model, weights, seed, threads)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TargetedSpreadEstimator;
    use sns_graph::{gen, GraphBuilder, GraphError, WeightModel};

    /// Two communities; only community B is targeted. TVM must seed B's
    /// hub even though A's hub has higher raw influence.
    fn two_communities() -> (Graph, TargetWeights) {
        let mut b = GraphBuilder::new();
        // community A: hub 0 -> 50 leaves (nodes 2..52)
        for v in 0..50 {
            b.add_edge(0, 2 + v, 1.0);
        }
        // community B: hub 1 -> 20 leaves (nodes 52..72)
        for v in 0..20 {
            b.add_edge(1, 52 + v, 1.0);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let mut w = vec![0.0f64; g.num_nodes() as usize];
        w[1] = 1.0;
        for v in 52..72 {
            w[v as usize] = 1.0;
        }
        (g, TargetWeights::from_weights(w).unwrap())
    }

    #[test]
    fn tvm_targets_the_right_community() {
        let (g, w) = two_communities();
        let params = Params::new(1, 0.3, 0.1).unwrap();
        for name in ["ssa", "dssa", "kbtim"] {
            let r = match name {
                "ssa" => SsaTvm::new(params).run(&g, Model::IndependentCascade, &w, 4, 1),
                "dssa" => DssaTvm::new(params).run(&g, Model::IndependentCascade, &w, 4, 1),
                _ => KbTim::new(params).run(&g, Model::IndependentCascade, &w, 4, 1),
            }
            .unwrap();
            assert_eq!(r.seeds, vec![1], "{name} picked {:?}", r.seeds);
            // targeted influence of {1} is exactly 21 (hub + 20 leaves)
            assert!(
                (r.influence_estimate - 21.0).abs() < 4.0,
                "{name} Î_T = {}",
                r.influence_estimate
            );
        }
    }

    #[test]
    fn uniform_weights_reduce_to_im() {
        let g = gen::erdos_renyi(300, 1800, 6).build(WeightModel::WeightedCascade).unwrap();
        let w = TargetWeights::uniform_all(300);
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let tvm = DssaTvm::new(params).run(&g, Model::LinearThreshold, &w, 9, 1).unwrap();
        // compare seed *quality* (not identity: root streams differ
        // between uniform and alias sampling)
        let im = sns_core::Dssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9))
            .unwrap();
        let est = sns_diffusion::SpreadEstimator::new(&g, Model::LinearThreshold);
        let st = est.estimate(&tvm.seeds, 20_000, 5);
        let si = est.estimate(&im.seeds, 20_000, 5);
        assert!(
            (st - si).abs() / si.max(st) < 0.1,
            "TVM-uniform spread {st:.1} vs IM spread {si:.1}"
        );
    }

    #[test]
    fn dssa_tvm_uses_fewer_sets_than_kbtim() {
        let g = gen::rmat(2000, 12_000, gen::RmatParams::GRAPH500, 5)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let w = TargetWeights::synthetic_topic(&g, 0.05, 1.0, 3).unwrap();
        let params = Params::new(10, 0.3, 0.1).unwrap();
        let d = DssaTvm::new(params).run(&g, Model::LinearThreshold, &w, 6, 1).unwrap();
        let kb = KbTim::new(params).run(&g, Model::LinearThreshold, &w, 6, 1).unwrap();
        assert!(
            d.rr_sets_total() < kb.rr_sets_total(),
            "D-SSA-TVM {} vs KB-TIM {}",
            d.rr_sets_total(),
            kb.rr_sets_total()
        );
    }

    #[test]
    fn seed_query_through_the_engine_targets_the_group() {
        // The serving path: one frozen *uniform-root* pool, per-query
        // topic weights. The engine must find B's hub and estimate its
        // targeted influence (21) without any WRIS resampling.
        let (g, w) = two_communities();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(4);
        let engine = sns_core::SeedQueryEngine::sample(&ctx, 4000);
        let ans = engine.answer(&w.seed_query(1)).unwrap();
        assert_eq!(ans.seeds, vec![1], "engine picked {:?}", ans.seeds);
        assert!((ans.influence_estimate - 21.0).abs() < 4.0, "Î_T = {}", ans.influence_estimate);
        // an unweighted query on the same pool prefers A's bigger hub
        let im = engine.answer(&sns_core::SeedQuery::top_k(1)).unwrap();
        assert_eq!(im.seeds, vec![0]);
    }

    #[test]
    fn seed_quality_verified_by_targeted_forward_simulation() {
        let (g, w) = two_communities();
        let params = Params::new(2, 0.3, 0.1).unwrap();
        let r = DssaTvm::new(params).run(&g, Model::IndependentCascade, &w, 4, 1).unwrap();
        let est = TargetedSpreadEstimator::new(&g, Model::IndependentCascade, &w);
        let spread = est.estimate(&r.seeds, 2000, 8);
        assert!(spread >= 21.0 - 1e-9, "targeted spread {spread}");
    }

    #[test]
    fn weights_for_another_graph_are_an_error() {
        // An audience built for a 50-node graph against the 72-node
        // two-community graph: the solvers must refuse it with a typed
        // error, not panic.
        let (g, _) = two_communities();
        let foreign = TargetWeights::uniform_all(50);
        let params = Params::new(1, 0.3, 0.1).unwrap();
        let model = Model::IndependentCascade;
        for err in [
            DssaTvm::new(params).run(&g, model, &foreign, 4, 1).unwrap_err(),
            SsaTvm::new(params).run(&g, model, &foreign, 4, 1).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    CoreError::Graph(GraphError::LengthMismatch { expected: 72, found: 50 })
                ),
                "{err}"
            );
        }
    }
}

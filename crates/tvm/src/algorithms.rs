//! TVM through the IM solvers, tested: D-SSA, SSA and TIM+ (KB-TIM)
//! run unchanged on a sampling context with weighted (WRIS) roots —
//! exactly the paper's §7.3.1 construction: "In the same way, we
//! incorporate WRIS into D-SSA and SSA for solving TVM".

mod tests {
    use crate::TargetWeights;
    use sns_baselines::Tim;
    use sns_core::{CoreError, Dssa, Params, RunResult, SamplingContext, Ssa};
    use sns_diffusion::{Model, SpreadEstimator};
    use sns_graph::{gen, Graph, GraphBuilder, GraphError, WeightModel};

    /// The WRIS context every TVM run uses: roots drawn ∝ `b(v)`.
    fn wris<'g>(
        g: &'g Graph,
        model: Model,
        w: &TargetWeights,
        seed: u64,
    ) -> Result<SamplingContext<'g>, GraphError> {
        SamplingContext::new(g, model).with_seed(seed).with_weighted_roots(w.weights())
    }

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
        let ctx = wris(&g, Model::IndependentCascade, &w, 4).unwrap();
        for name in ["ssa", "dssa", "kbtim"] {
            let r: RunResult = match name {
                "ssa" => Ssa::new(params).run(&ctx),
                "dssa" => Dssa::new(params).run(&ctx),
                _ => Tim::plus(params).run(&ctx),
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
        let tvm = Dssa::new(params).run(&wris(&g, Model::LinearThreshold, &w, 9).unwrap()).unwrap();
        // compare seed *quality* (not identity: root streams differ
        // between uniform and alias sampling)
        let im = Dssa::new(params)
            .run(&SamplingContext::new(&g, Model::LinearThreshold).with_seed(9))
            .unwrap();
        let est = SpreadEstimator::new(&g, Model::LinearThreshold);
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
        let ctx = wris(&g, Model::LinearThreshold, &w, 6).unwrap();
        let d = Dssa::new(params).run(&ctx).unwrap();
        let kb = Tim::plus(params).run(&ctx).unwrap();
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
        let r =
            Dssa::new(params).run(&wris(&g, Model::IndependentCascade, &w, 4).unwrap()).unwrap();
        let est =
            SpreadEstimator::new(&g, Model::IndependentCascade).with_weights(w.weights()).unwrap();
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
        let dssa = || -> Result<RunResult, CoreError> {
            Dssa::new(params).run(&wris(&g, model, &foreign, 4)?)
        };
        let ssa = || -> Result<RunResult, CoreError> {
            Ssa::new(params).run(&wris(&g, model, &foreign, 4)?)
        };
        for err in [dssa().unwrap_err(), ssa().unwrap_err()] {
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

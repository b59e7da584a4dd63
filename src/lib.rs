//! # Stop-and-Stare
//!
//! A production-quality Rust implementation of *"Stop-and-Stare: Optimal
//! Sampling Algorithms for Viral Marketing in Billion-scale Networks"*
//! (Nguyen, Thai, Dinh — SIGMOD 2016): the SSA and D-SSA influence-
//! maximization algorithms, every substrate they stand on, the baselines
//! they are evaluated against, and the targeted-viral-marketing
//! extension.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`graph`] — CSR graph storage, weight models, generators, IO
//!   (`sns-graph`);
//! * [`diffusion`] — IC/LT cascades, Monte Carlo spread, RR-set sampling
//!   (`sns-diffusion`);
//! * [`rrset`] — RR pools and greedy max-coverage (`sns-rrset`);
//! * [`core`] — SSA, D-SSA, Estimate-Inf and the unified RIS framework
//!   (`sns-core`);
//! * [`baselines`] — IMM, TIM/TIM+, CELF++ (`sns-baselines`);
//! * [`tvm`] — targeted viral marketing over weighted RIS (`sns-tvm`).
//!
//! The most common entry points are lifted to the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use stop_and_stare::{Dssa, Model, Params, SamplingContext};
//! use stop_and_stare::graph::{gen::erdos_renyi, WeightModel};
//!
//! // 1. A network (here synthetic; see `graph::io` for file loading).
//! let g = erdos_renyi(500, 3000, 7).build(WeightModel::WeightedCascade).unwrap();
//!
//! // 2. Find 10 seeds with a (1 − 1/e − 0.3)-guarantee, 90% confidence.
//! let params = Params::new(10, 0.3, 0.1).unwrap();
//! let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(42);
//! let result = Dssa::new(params).run(&ctx).unwrap();
//!
//! assert_eq!(result.seeds.len(), 10);
//! println!("estimated influence: {:.1}", result.influence_estimate);
//! ```
//!
//! ## Further reading
//!
//! `README.md` has the crate map and quickstart pointers
//! (`examples/quickstart.rs`, `examples/seed_service.rs`);
//! `docs/ARCHITECTURE.md` walks the RR pipeline and the epoch/seal
//! lifecycle behind the serving layer; `docs/DERIVATIONS.md` derives
//! the stopping rules the solvers implement — all at the repository
//! root.

pub use sns_baselines as baselines;
pub use sns_core as core;
pub use sns_diffusion as diffusion;
pub use sns_graph as graph;
pub use sns_rrset as rrset;
pub use sns_tvm as tvm;

pub use sns_core::{
    AdmissionQueue, AdmissionStats, BatchPlan, Dssa, DssaCertificate, DssaIteration,
    EpochDirectory, GroupKey, Grower, GrowthOutcome, NodeCosts, Params, Pending, PlanGroup,
    PoolStore, Priority, Recovery, RejectReason, RunResult, SamplingContext, SaveStats, SeedAnswer,
    SeedQuery, SeedQueryEngine, Ssa, SsaCertificate, SsaEpsilons, StopCondition, StoreError,
    StoreFingerprint,
};
pub use sns_diffusion::{Model, SpreadEstimator};
pub use sns_graph::{Graph, GraphBuilder, WeightModel};

//! Stop-and-Stare: optimal RIS sampling algorithms for influence
//! maximization.
//!
//! This crate implements the primary contribution of Nguyen, Thai & Dinh,
//! *"Stop-and-Stare: Optimal Sampling Algorithms for Viral Marketing in
//! Billion-scale Networks"* (SIGMOD 2016):
//!
//! * [`Ssa`] — the Stop-and-Stare Algorithm (their Algorithm 1): keeps
//!   doubling a pool of Reverse Reachable sets, and at each exponential
//!   checkpoint *stares*: runs Max-Coverage for a candidate seed set and
//!   checks two statistical stopping conditions (coverage threshold `Λ₁`
//!   and an independent [`estimate_inf`] validation). Meets a **type-1
//!   minimum threshold** of samples within a constant factor.
//! * [`Dssa`] — Dynamic Stop-and-Stare (their Algorithm 4): one sample
//!   stream split into a find half and a verify half per iteration, with
//!   the precision parameters `ε₁, ε₂, ε₃` derived *dynamically* from the
//!   observed estimates. Meets the stronger **type-2 minimum threshold**.
//! * [`bounds`] — the unified RIS framework of §3: the `Υ(ε,δ)` sample
//!   bound, the RIS thresholds of TIM/IMM (Eqs. 12–15), the sample cap
//!   `Nmax`, and the concentration inequalities behind them. Its
//!   [`bounds::certificate`] submodule is the runtime stopping-rule
//!   engine both algorithms consult: one certified stopping path each,
//!   with D-SSA's D2 anchor at the D-SSA-Fix constants
//!   (`docs/DERIVATIONS.md` §4).
//! * [`SamplingContext`] — bundles graph, diffusion model, root
//!   distribution and seeding. With uniform roots the algorithms solve
//!   classic IM; with weighted roots (WRIS) they solve targeted viral
//!   marketing — the generalization used by the `sns-tvm` crate.
//! * [`SeedQueryEngine`] — the frozen-pool serving layer: keep one RR
//!   pool, snapshot its initial gains per queried slice, and answer
//!   batches of heterogeneous [`SeedQuery`]s (varying `k`, id ranges,
//!   forced/excluded seeds, per-query target weights) thread-parallel
//!   and bit-identical to direct Max-Coverage calls.
//! * [`planner`] — the serving front end in front of the engine: a
//!   batch planner ([`BatchPlan`]) grouping queries by the snapshot
//!   they share, and a bounded [`AdmissionQueue`] with priorities and
//!   virtual-time deadlines that rejects with a typed [`RejectReason`]
//!   instead of letting latency grow without bound.
//!
//! Both algorithms return `(1 − 1/e − ε)`-approximate seed sets with
//! probability at least `1 − δ`.
//!
//! # Example
//!
//! ```
//! use sns_graph::{gen::erdos_renyi, WeightModel};
//! use sns_diffusion::Model;
//! use sns_core::{Dssa, Params, SamplingContext};
//!
//! let g = erdos_renyi(300, 1800, 7).build(WeightModel::WeightedCascade).unwrap();
//! let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(42);
//! let params = Params::new(5, 0.3, 0.1).unwrap(); // k = 5, ε = 0.3, δ = 0.1
//! let result = Dssa::new(params).run(&ctx).unwrap();
//! assert_eq!(result.seeds.len(), 5);
//! assert!(result.influence_estimate > 0.0);
//! ```

//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

pub mod bounds;
pub mod planner;

mod cache;
mod context;
mod dssa;
mod engine;
mod error;
mod estimate_inf;
mod grower;
mod params;
mod result;
mod ssa;

pub use bounds::certificate::{
    DssaCertificate, PrecisionCheck, SsaCertificate, StopCondition, StoppingRule,
};
pub use context::SamplingContext;
pub use dssa::{Dssa, DssaIteration};
pub use engine::{QueryStats, SeedAnswer, SeedQuery, SeedQueryEngine};
pub use error::CoreError;
pub use estimate_inf::{estimate_inf, estimate_inf_with_sink, EstimateInfOutcome, EstimateScratch};
pub use grower::{Grower, GrowthOutcome};
pub use params::{Params, SsaEpsilons};
pub use planner::{
    AdmissionQueue, AdmissionStats, BatchPlan, GroupKey, Pending, PlanGroup, Priority, RejectReason,
};
pub use result::RunResult;
pub use ssa::Ssa;

// Persistence layer behind [`SeedQueryEngine::save`] /
// [`SeedQueryEngine::from_store`], the cost model of budgeted queries
// ([`SeedQuery::with_costs`]), and the grow-while-serving primitives
// ([`SeedQueryEngine::grower`], [`SeedQueryEngine::directory`]),
// re-exported so engine callers don't need a direct `sns_rrset`
// dependency to handle their outcomes.
pub use sns_rrset::{
    EpochDirectory, NodeCosts, PoolStore, Recovery, SaveStats, StoreError, StoreFingerprint,
};

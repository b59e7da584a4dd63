//! Targeted Viral Marketing (TVM) — §7.3 of the Stop-and-Stare paper.
//!
//! TVM generalizes influence maximization: instead of counting every
//! activated node, each node `v` carries a relevance weight `b(v) ≥ 0`
//! (how interested that user is in the campaign topic) and the objective
//! is the *targeted* influence `I_T(S) = Σ_v b(v)·Pr[v activated]`.
//!
//! The reduction (Li, Zhang, Tan — VLDB'15, adopted by the paper) is
//! weighted RIS ("WRIS"): draw the RR-set root proportional to `b(v)`
//! instead of uniformly; then `I_T(S) = Γ·Pr[S covers R]` with
//! `Γ = Σ_v b(v)`, and every RIS algorithm runs unchanged with `n`
//! replaced by `Γ`. This crate provides [`TargetWeights`]: validated
//! per-node weight vectors, including the synthetic topic model standing
//! in for the paper's tweet-keyword mining (Table 4; see
//! [`TargetWeights::synthetic_topic`]), and the Table 4 rows [`TOPIC_1`]
//! and [`TOPIC_2`].
//!
//! There are no TVM solvers here: the paper's SSA-TVM and D-SSA-TVM are
//! `sns_core::Ssa` and `sns_core::Dssa`, and KB-TIM is
//! `sns_baselines::Tim::plus`, each run on
//! `SamplingContext::with_weighted_roots(weights.weights())`. The
//! targeted spread `I_T(S)` of a seed set is
//! `sns_diffusion::SpreadEstimator::with_weights`.
//!
//! # Example
//!
//! ```
//! use sns_graph::{gen::erdos_renyi, WeightModel};
//! use sns_diffusion::{Model, SpreadEstimator};
//! use sns_core::{Dssa, Params, SamplingContext};
//! use sns_tvm::TargetWeights;
//!
//! let g = erdos_renyi(300, 1500, 3).build(WeightModel::WeightedCascade).unwrap();
//! let topic = TargetWeights::synthetic_topic(&g, 0.1, 1.0, 42).unwrap();
//! let ctx = SamplingContext::new(&g, Model::LinearThreshold)
//!     .with_seed(7)
//!     .with_weighted_roots(topic.weights())
//!     .unwrap();
//! let r = Dssa::new(Params::new(3, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
//! assert_eq!(r.seeds.len(), 3);
//!
//! // forward Monte Carlo check of the targeted reach I_T(S) ≤ Γ
//! let reach = SpreadEstimator::new(&g, Model::LinearThreshold)
//!     .with_weights(topic.weights())
//!     .unwrap()
//!     .estimate(&r.seeds, 1000, 9);
//! assert!(reach <= topic.gamma());
//! ```

//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

#[cfg(test)]
mod algorithms;
mod weights;

pub use weights::{TargetWeights, TopicSpec, TOPIC_1, TOPIC_2};

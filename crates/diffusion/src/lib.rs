//! Diffusion models and sampling for the Stop-and-Stare library.
//!
//! Implements the two propagation models of the paper (§2.1) and both
//! directions of sampling built on them:
//!
//! * **Forward**: [`CascadeSimulator`] runs one IC or LT cascade from a
//!   seed set; [`SpreadEstimator`] averages many cascades into a Monte
//!   Carlo estimate of the influence spread `I(S)` — the oracle behind the
//!   greedy baselines (CELF++) and the "Expected Influence" axis of
//!   Figures 2–3.
//! * **Reverse**: [`RrSampler`] draws random Reverse Reachable (RR) sets
//!   (Definition 2 of the paper) — a uniform (or, for TVM, weighted) root
//!   plus everything that can reach it in a random sample graph. RR sets
//!   are the currency of every RIS algorithm (SSA, D-SSA, IMM, TIM/TIM+).
//!
//! All randomness flows through [`rng::Xoshiro256pp`] seeded per logical
//! sample index, so results are bit-reproducible regardless of thread
//! count.
//!
//! # Example
//!
//! ```
//! use sns_graph::{gen::erdos_renyi, WeightModel};
//! use sns_diffusion::{Model, RrSampler, SpreadEstimator};
//!
//! let g = erdos_renyi(200, 1000, 7).build(WeightModel::WeightedCascade).unwrap();
//!
//! // Draw one RR set under the LT model.
//! let mut sampler = RrSampler::new(&g, Model::LinearThreshold);
//! let mut rr = Vec::new();
//! let meta = sampler.sample(42, &mut rr);
//! assert!(rr.contains(&meta.root));
//!
//! // Estimate the spread of a seed set with 1000 forward simulations.
//! let spread = SpreadEstimator::new(&g, Model::LinearThreshold)
//!     .estimate(&[0, 1], 1000, 99);
//! assert!(spread >= 2.0); // seeds are always active
//! ```

//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

pub mod forward;
pub mod rng;
pub mod rr;

mod model;
mod root;
mod spread;

pub use forward::CascadeSimulator;
pub use model::Model;
pub use root::RootDist;
pub use rr::{RrMeta, RrSampler};
pub use spread::SpreadEstimator;

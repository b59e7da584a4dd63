//! Baseline influence-maximization algorithms from the paper's
//! evaluation (§7.1, "Algorithms compared").
//!
//! All baselines share the `(1 − 1/e − ε)`-approximation guarantee of
//! SSA/D-SSA — that is the paper's point: at *equal* guarantees, the
//! stop-and-stare algorithms need orders of magnitude fewer samples.
//!
//! * [`Imm`] — IMM (Tang, Shi, Xiao — SIGMOD'15), the strongest prior
//!   RIS method: martingale analysis, a lower-bound estimation phase, and
//!   `θ = λ*/LB` samples.
//! * [`Tim`] — TIM and TIM+ (Tang, Xiao, Shi — SIGMOD'14): KPT*
//!   estimation by sampling-cost heuristics, optional KPT+ refinement,
//!   and `θ = λ/KPT` samples.
//! * [`CelfPlusPlus`] — lazy-forward greedy over Monte Carlo spread
//!   estimation (Goyal et al. WWW'11, after CELF of Leskovec et al.
//!   KDD'07) — the simulation-based baseline the paper runs, included to
//!   reproduce its "2·10⁹ times faster" anecdote at feasible scales.
//! * [`monte_carlo_greedy`] — the plain Kempe-Kleinberg-Tardos greedy,
//!   exact oracle for tiny test instances.
//!
//! Every algorithm consumes the same [`sns_core::SamplingContext`] and
//! returns the same [`sns_core::RunResult`] as SSA/D-SSA, so harness code
//! treats all of them uniformly.

//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

mod celf;
mod imm;
mod tim;

pub use celf::{monte_carlo_greedy, CelfPlusPlus};
pub use imm::Imm;
pub use tim::{Tim, TimVariant};

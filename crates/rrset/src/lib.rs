//! RR-set pool and max-coverage machinery for the Stop-and-Stare library.
//!
//! Every RIS algorithm works on a growing pool `R` of Reverse Reachable
//! sets and repeatedly needs two operations:
//!
//! * **Max-Coverage** (Algorithm 2 of the paper): pick `k` nodes covering
//!   the most RR sets — [`max_coverage_with`] implements the standard
//!   greedy with a lazy priority queue (gains are submodular, so stale
//!   heap entries are safe), running on a selection-time
//!   [`CoverageView`]: a sealed CSR-transposed snapshot of the queried
//!   pool slice that turns decremental gain updates into contiguous slice
//!   sweeps with a generation-stamped covered bitset ([`GreedyScratch`],
//!   which the caller reuses across rounds).
//! * **One selection kernel**, [`CoverageView::select`], serves every
//!   query shape: an [`Objective`] — [`Count`] (top-`k`), [`Weighted`]
//!   (targeted root weights) or [`Ratio`] (cost-aware, under a budget) —
//!   a [`GainInit`] (fresh histogram or a frozen [`GainSnapshot`]) and
//!   [`SeedConstraints`]. [`max_coverage_naive`] is the one textbook
//!   rescan oracle the kernel is cross-checked against.
//! * **Coverage queries**: `Cov_R(S)` for the stopping conditions —
//!   [`RrCollection::coverage_of`].
//!
//! [`RrCollection`] stores sets in immutable chunks, one per sealed
//! epoch, with a **sealed** inverted node→set-id index — a base and a
//! recent flat CSR tier. Clones share the chunks and both tiers, so a
//! clone costs `O(epochs)`, and a query returns at most two slices
//! ([`SetIds`]). A pool grows only by whole epochs:
//! [`RrCollection::extend_parallel`] (or [`RrCollection::append_epoch`]
//! for given sets) writes the sets once, into the epoch's new chunk, and
//! seals them before it returns, with a parallel counting sort that
//! touches the new chunk only and a merge that rebuilds only the recent
//! tier until it passes a quarter of the base, so every readable pool is
//! fully indexed (see [`RrCollection`]'s docs). It supports
//! deterministic parallel growth and accounts its exact byte footprint
//! (the quantity Figures 6–7 of the paper track).
//!
//! D-SSA splits its sample stream into halves (`R_t`, `R^c_t`); both
//! [`max_coverage_with`] and [`RrCollection::coverage_of_range`] take a
//! set-id range so the halves can live in one pool without copying.

//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

mod budgeted;
mod chunk;
mod collection;
mod coverage;
pub mod directory;
mod greedy;
mod index;
pub mod narrow;
mod snapshot;
pub mod store;
#[cfg(test)]
mod test_pools;

pub use budgeted::{BudgetedCoverageResult, NodeCosts, Ratio};
pub use collection::RrCollection;
pub use coverage::{
    max_coverage_with, Count, CoverageView, GainInit, GreedyScratch, Objective, SeedConstraints,
};
pub use directory::{DirectoryWriter, EpochDirectory};
pub use greedy::{max_coverage_naive, CoverageResult};
pub use index::SetIds;
pub use snapshot::{GainSnapshot, Weighted, WeightedCoverageResult, WeightedGainSnapshot};
pub use store::{PoolStore, Recovery, SaveStats, StoreError, StoreFingerprint};

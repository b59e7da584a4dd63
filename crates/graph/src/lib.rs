//! Compact graph substrate for the Stop-and-Stare influence-maximization
//! library.
//!
//! This crate provides everything the sampling layers need from a network:
//!
//! * [`Graph`] — an immutable, cache-friendly CSR representation of a
//!   directed, weighted influence graph. Both the forward (out-edge) and
//!   reverse (in-edge) adjacency are materialized because forward cascade
//!   simulation walks out-edges while RIS sampling walks in-edges.
//! * [`GraphBuilder`] + [`WeightModel`] — construction from edge lists with
//!   the weight conventions used in the IM literature (weighted cascade
//!   `w(u,v) = 1/din(v)`, constant, provided).
//! * [`gen`] — synthetic network generators (Erdős–Rényi, Barabási–Albert,
//!   Watts–Strogatz, R-MAT) and a registry of stand-ins for the paper's
//!   Table 2 datasets.
//! * [`io`] — text edge-list and binary persistence.
//! * [`AliasTable`] — O(1) sampling from discrete distributions, used for
//!   weighted root selection (WRIS) and by the generators.
//! * [`GraphStats`] — the statistics reported in Table 2 of the paper.
//!
//! # Example
//!
//! ```
//! use sns_graph::{GraphBuilder, WeightModel};
//!
//! let mut b = GraphBuilder::new();
//! b.add_arc(0, 1);
//! b.add_arc(1, 2);
//! b.add_arc(0, 2);
//! let g = b.build(WeightModel::WeightedCascade).unwrap();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_arcs(), 3);
//! // node 2 has two in-edges, each with weight 1/2 under weighted cascade
//! assert_eq!(g.in_degree(2), 2);
//! assert!((g.in_weight_sum(2) - 1.0).abs() < 1e-6);
//! ```

//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

mod alias;
mod builder;
mod csr;
mod error;
pub mod gen;
pub mod hash;
pub mod io;
mod stats;
mod weights;

pub use alias::AliasTable;
pub use builder::GraphBuilder;
pub use csr::{Graph, InArc};
pub use error::GraphError;
pub use hash::{fnv64, Fnv64};
pub use stats::GraphStats;
pub use weights::WeightModel;

/// Identifier of a node. Dense in `0..Graph::num_nodes()`.
///
/// `u32` bounds the library at ~4.2 billion nodes, which covers every
/// network in the paper (Friendster, the largest, has 65.6M nodes) while
/// halving index memory relative to `usize`.
pub type NodeId = u32;

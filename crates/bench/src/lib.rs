//! Reproduction harness for the Stop-and-Stare paper's evaluation (§7).
//!
//! The `repro` binary regenerates every table and figure:
//!
//! | Subcommand | Paper artifact |
//! |---|---|
//! | `repro table2` | Table 2 — dataset statistics |
//! | `repro fig2` / `repro fig3` | Figures 2–3 — expected influence vs k (LT / IC) |
//! | `repro fig4` / `repro fig5` | Figures 4–5 — running time vs k (LT / IC) |
//! | `repro fig6` / `repro fig7` | Figures 6–7 — memory vs k (LT / IC) |
//! | `repro figures --model LT\|IC` | one grid run printing influence+time+memory |
//! | `repro table3` | Table 3 — time and #RR sets across four datasets |
//! | `repro table4` | Table 4 — TVM topics and target-group sizes |
//! | `repro fig8` | Figure 8 — TVM running time, topics 1–2 |
//! | `repro celf-anecdote` | the §1 CELF++ speedup anecdote, measured + extrapolated |
//! | `repro all` | everything above |
//!
//! Real SNAP/KONECT snapshots are replaced by R-MAT stand-ins (see the
//! `sns_graph::gen::datasets` module docs); absolute numbers therefore differ from the paper,
//! but the comparisons the paper draws — who wins, by how many orders of
//! magnitude, and how the curves bend with k — are reproduced. Results
//! stream to stdout as aligned tables and to `results/*.csv`.

//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

pub mod algorithms;
pub mod config;
pub mod datasets;
pub mod experiments;
pub mod oracle;
pub mod report;
pub mod sample_counts;
pub mod traffic;

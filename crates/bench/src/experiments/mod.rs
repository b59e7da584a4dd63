//! The experiment implementations, one module per paper artifact.

mod celf_anecdote;
mod figures;
mod table2;
mod table3;
mod thresholds;
mod tvm;

pub use celf_anecdote::run_celf_anecdote;
pub use figures::{run_figures, FigureMetric};
pub use table2::run_table2;
pub use table3::run_table3;
pub use thresholds::run_thresholds;
pub use tvm::{run_fig8, run_table4};

use crate::config::{Config, Experiment};

/// Runs the configured experiment(s).
pub fn run(cfg: &Config) {
    banner(cfg);
    match cfg.experiment {
        Experiment::Table2 => run_table2(cfg),
        Experiment::FigInfluence => run_figures(cfg, &[FigureMetric::Influence]),
        Experiment::FigRuntime => run_figures(cfg, &[FigureMetric::Runtime]),
        Experiment::FigMemory => run_figures(cfg, &[FigureMetric::Memory]),
        Experiment::Figures => run_figures(
            cfg,
            &[FigureMetric::Influence, FigureMetric::Runtime, FigureMetric::Memory],
        ),
        Experiment::Table3 => run_table3(cfg),
        Experiment::Table4 => run_table4(cfg),
        Experiment::Fig8 => run_fig8(cfg),
        Experiment::CelfAnecdote => run_celf_anecdote(cfg),
        Experiment::Thresholds => run_thresholds(cfg),
        Experiment::All => {
            run_table2(cfg);
            run_figures(
                cfg,
                &[FigureMetric::Influence, FigureMetric::Runtime, FigureMetric::Memory],
            );
            run_table3(cfg);
            run_table4(cfg);
            run_fig8(cfg);
            run_celf_anecdote(cfg);
            run_thresholds(cfg);
        }
    }
}

fn banner(cfg: &Config) {
    println!(
        "# Stop-and-Stare reproduction | model {} | eps {} | seed {} | threads {} | {}{}",
        cfg.model,
        cfg.epsilon,
        cfg.seed,
        cfg.threads,
        if cfg.quick { "quick mode" } else { "full mode" },
        if (cfg.scale - 1.0).abs() > 1e-12 {
            format!(" | extra scale {}", cfg.scale)
        } else {
            String::new()
        },
    );
    println!(
        "# datasets are R-MAT stand-ins (sns_graph::gen::datasets); compare shapes, not absolute values\n"
    );
}

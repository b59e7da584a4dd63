//! Dataset preparation for the harness: which stand-ins each experiment
//! uses and at what scale.

use sns_graph::gen::datasets::{self, DatasetSpec};
use sns_graph::Graph;

use crate::config::Config;

/// A generated stand-in ready to run on.
pub struct PreparedDataset {
    /// The Table 2 spec this stands in for.
    pub spec: &'static DatasetSpec,
    /// Effective scale used (spec default × config multiplier × quick
    /// reduction).
    pub scale: f64,
    /// The generated graph (weighted cascade weights, §7.1).
    pub graph: Graph,
}

impl PreparedDataset {
    /// Human-readable label, e.g. `NetHEPT` or `Orkut@1/64`.
    pub fn label(&self) -> String {
        if (self.scale - 1.0).abs() < 1e-12 {
            self.spec.name.to_string()
        } else {
            format!("{}@{:.5}", self.spec.name, self.scale)
        }
    }
}

/// Effective scale for a spec under this config.
fn effective_scale(spec: &DatasetSpec, cfg: &Config) -> f64 {
    let quick_factor = if cfg.quick { 0.25 } else { 1.0 };
    // The figure-grid datasets DBLP and Twitter get an extra reduction in
    // full mode so the complete grid stays laptop-sized; Table 3's giants
    // already carry default scales (`sns_graph::gen::datasets`).
    (spec.default_scale * cfg.scale * quick_factor).min(1.0)
}

/// Generates one stand-in.
pub fn prepare(spec: &'static DatasetSpec, cfg: &Config) -> PreparedDataset {
    let scale = effective_scale(spec, cfg);
    let graph =
        spec.generate(scale, cfg.seed).expect("dataset generation cannot fail for valid scales");
    PreparedDataset { spec, scale, graph }
}

/// The four networks of the Figures 2–7 grid (NetHEPT, NetPHY, DBLP,
/// Twitter). DBLP runs at quarter scale in full mode — the only
/// deviation, keeping the complete 8-point grid under an hour; shapes
/// are unaffected (see EXPERIMENTS.md).
pub fn figure_grid(cfg: &Config) -> Vec<PreparedDataset> {
    let mut sets = vec![prepare(&datasets::NETHEPT, cfg), prepare(&datasets::NETPHY, cfg)];
    let mut dblp_cfg = cfg.clone();
    dblp_cfg.scale = cfg.scale * 0.25;
    sets.push(prepare(&datasets::DBLP, &dblp_cfg));
    sets.push(prepare(&datasets::TWITTER, cfg));
    sets
}

/// The four networks of Table 3 (Enron, Epinions, Orkut, Friendster).
pub fn table3_datasets(cfg: &Config) -> Vec<PreparedDataset> {
    vec![
        prepare(&datasets::ENRON, cfg),
        prepare(&datasets::EPINIONS, cfg),
        prepare(&datasets::ORKUT, cfg),
        prepare(&datasets::FRIENDSTER, cfg),
    ]
}

/// The Twitter stand-in used by the TVM experiments (Table 4, Figure 8).
pub fn tvm_dataset(cfg: &Config) -> PreparedDataset {
    prepare(&datasets::TWITTER, cfg)
}

/// The k grid of the figure experiments (paper: 1 … 20000).
pub fn k_grid(cfg: &Config, n: u32) -> Vec<usize> {
    let full: &[usize] =
        if cfg.quick { &[1, 100, 1000] } else { &[1, 100, 500, 1000, 2000, 5000, 10_000, 20_000] };
    full.iter().copied().filter(|&k| k < n as usize).collect()
}

/// The k grid of the TVM experiments (paper: 1 … 1000).
pub fn tvm_k_grid(cfg: &Config) -> Vec<usize> {
    if cfg.quick {
        vec![1, 100, 500]
    } else {
        vec![1, 100, 250, 500, 750, 1000]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, Experiment};

    fn quick_cfg() -> Config {
        let mut c = Config::new(Experiment::Table2);
        c.quick = true;
        c.scale = 0.05;
        c
    }

    #[test]
    fn prepare_respects_scales() {
        let cfg = quick_cfg();
        let d = prepare(&datasets::NETHEPT, &cfg);
        // default 1.0 × 0.05 × 0.25 quick
        assert!((d.scale - 0.0125).abs() < 1e-12);
        assert_eq!(d.graph.num_nodes(), datasets::NETHEPT.scaled_nodes(d.scale));
        assert!(d.label().starts_with("NetHEPT@"));
    }

    #[test]
    fn grids_filter_by_n() {
        let mut cfg = quick_cfg();
        assert_eq!(k_grid(&cfg, 500), vec![1, 100]);
        cfg.quick = false;
        assert_eq!(k_grid(&cfg, 600).last(), Some(&500));
        assert_eq!(tvm_k_grid(&cfg).len(), 6);
    }

    #[test]
    fn figure_grid_has_four_networks() {
        let cfg = quick_cfg();
        let sets = figure_grid(&cfg);
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0].spec.name, "NetHEPT");
        assert_eq!(sets[3].spec.name, "Twitter");
    }
}

//! Registry of stand-ins for the paper's Table 2 datasets.
//!
//! The paper evaluates on eight real networks (SNAP/KONECT snapshots plus
//! a Twitter crawl). This module reproduces each row of Table 2 — node
//! count, edge count, directedness, degree skew — with R-MAT generators at
//! a configurable scale so every experiment in the harness runs on a
//! laptop.
//!
//! Why R-MAT: the snapshots are not shipped with this repository, and
//! what drives the paper's comparisons is the degree skew (it sets RR-set
//! sizes and how concentrated the coverage is), which R-MAT reproduces.
//! Absolute times and spreads therefore differ from the paper; who wins,
//! by how much, and how the curves bend with `k` carry over.

use super::rmat::{rmat, RmatParams};
use crate::{Graph, GraphError, WeightModel};

/// One row of the paper's Table 2 plus generation metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Node count reported in Table 2.
    pub nodes: u64,
    /// Edge count reported in Table 2 (undirected edge count for Orkut and
    /// Friendster, which the paper symmetrizes into two arcs each).
    pub edges: u64,
    /// Whether the original network is undirected.
    pub undirected: bool,
    /// Average degree reported in Table 2.
    pub avg_degree: f64,
    /// Default generation scale: 1.0 reproduces the original size, smaller
    /// values shrink nodes and edges proportionally (the three web-scale
    /// networks default below 1.0 to stay laptop-sized).
    pub default_scale: f64,
    /// R-MAT skew used for the stand-in.
    pub skew: RmatParams,
}

/// NetHEPT citation network (15K nodes / 59K edges).
pub const NETHEPT: DatasetSpec = DatasetSpec {
    name: "NetHEPT",
    nodes: 15_233,
    edges: 58_891,
    undirected: false,
    avg_degree: 4.1,
    default_scale: 1.0,
    skew: RmatParams::COLLABORATION,
};

/// NetPHY citation network (37K nodes / 181K edges).
pub const NETPHY: DatasetSpec = DatasetSpec {
    name: "NetPHY",
    nodes: 37_154,
    edges: 180_826,
    undirected: false,
    avg_degree: 13.4,
    default_scale: 1.0,
    skew: RmatParams::COLLABORATION,
};

/// Email-Enron communication network (37K nodes / 184K edges).
pub const ENRON: DatasetSpec = DatasetSpec {
    name: "Enron",
    nodes: 36_692,
    edges: 183_831,
    undirected: false,
    avg_degree: 5.0,
    default_scale: 1.0,
    skew: RmatParams::GRAPH500,
};

/// Epinions trust network (132K nodes / 841K edges).
pub const EPINIONS: DatasetSpec = DatasetSpec {
    name: "Epinions",
    nodes: 131_828,
    edges: 841_372,
    undirected: false,
    avg_degree: 13.4,
    default_scale: 1.0,
    skew: RmatParams::GRAPH500,
};

/// DBLP collaboration network (655K nodes / 2M edges).
pub const DBLP: DatasetSpec = DatasetSpec {
    name: "DBLP",
    nodes: 655_000,
    edges: 2_000_000,
    undirected: false,
    avg_degree: 6.1,
    default_scale: 1.0,
    skew: RmatParams::COLLABORATION,
};

/// Orkut social network (3M nodes / 234M undirected edges). Scaled by
/// default: at 1/64 the stand-in keeps the m/n ratio and skew.
pub const ORKUT: DatasetSpec = DatasetSpec {
    name: "Orkut",
    nodes: 3_000_000,
    edges: 234_000_000,
    undirected: true,
    avg_degree: 78.0,
    default_scale: 1.0 / 64.0,
    skew: RmatParams::GRAPH500,
};

/// Twitter follower network (41.7M nodes / 1.5G edges), Kwak et al. 2010.
pub const TWITTER: DatasetSpec = DatasetSpec {
    name: "Twitter",
    nodes: 41_700_000,
    edges: 1_500_000_000,
    undirected: false,
    avg_degree: 70.5,
    default_scale: 1.0 / 256.0,
    skew: RmatParams::GRAPH500,
};

/// Friendster social network (65.6M nodes / 3.6G edges).
pub const FRIENDSTER: DatasetSpec = DatasetSpec {
    name: "Friendster",
    nodes: 65_600_000,
    edges: 3_600_000_000,
    undirected: true,
    avg_degree: 54.8,
    default_scale: 1.0 / 512.0,
    skew: RmatParams::GRAPH500,
};

/// All eight Table 2 datasets, in the paper's order.
pub const ALL: [&DatasetSpec; 8] =
    [&NETHEPT, &NETPHY, &ENRON, &EPINIONS, &DBLP, &ORKUT, &TWITTER, &FRIENDSTER];

impl DatasetSpec {
    /// Node count after applying `scale` (at least 64 so tiny smoke scales
    /// stay meaningful).
    pub fn scaled_nodes(&self, scale: f64) -> u32 {
        ((self.nodes as f64 * scale).round() as u64).clamp(64, u64::from(u32::MAX)) as u32
    }

    /// Edge count after applying `scale` (at least 128).
    pub fn scaled_edges(&self, scale: f64) -> u64 {
        ((self.edges as f64 * scale).round() as u64).max(128)
    }

    /// Generates the stand-in at the given scale with the paper's
    /// weighted-cascade edge weights (`w(u,v) = 1/din(v)`, §7.1).
    ///
    /// Undirected datasets are generated as undirected edges and
    /// symmetrized into two arcs each, matching the paper's remark on
    /// Orkut and Friendster.
    pub fn generate(&self, scale: f64, seed: u64) -> Result<Graph, GraphError> {
        self.generate_with(scale, seed, WeightModel::WeightedCascade)
    }

    /// Like [`DatasetSpec::generate`] with an explicit weight model.
    pub fn generate_with(
        &self,
        scale: f64,
        seed: u64,
        model: WeightModel,
    ) -> Result<Graph, GraphError> {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = self.scaled_nodes(scale);
        let m = self.scaled_edges(scale);
        let base = rmat(n, m, self.skew, seed);
        if self.undirected {
            // Re-emit every arc in both directions; the builder dedups the
            // overlap, so arcs ≈ 2m.
            let g = base.build(WeightModel::Constant(0.0))?;
            let mut sym = crate::GraphBuilder::with_capacity(2 * g.num_arcs() as usize);
            sym.set_num_nodes(n);
            for (u, v, _) in g.arcs() {
                sym.add_undirected(u, v);
            }
            sym.build(model)
        } else {
            base.build(model)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup() {
        let names: Vec<_> = ALL.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            ["NetHEPT", "NetPHY", "Enron", "Epinions", "DBLP", "Orkut", "Twitter", "Friendster"]
        );
        assert_eq!(FRIENDSTER.nodes, 65_600_000);
    }

    #[test]
    fn scaled_counts_track_scale() {
        assert_eq!(NETHEPT.scaled_nodes(1.0), 15_233);
        assert_eq!(TWITTER.scaled_nodes(1.0 / 256.0), 162_891);
        assert!(ORKUT.scaled_edges(1.0 / 64.0) >= 3_600_000);
        // floors kick in at extreme scales
        assert_eq!(NETHEPT.scaled_nodes(1e-9), 64);
        assert_eq!(NETHEPT.scaled_edges(1e-9), 128);
    }

    #[test]
    fn directed_standin_matches_spec_size() {
        let scale = 0.05;
        let g = NETHEPT.generate(scale, 42).unwrap();
        assert_eq!(g.num_nodes(), NETHEPT.scaled_nodes(scale));
        let target = NETHEPT.scaled_edges(scale);
        assert!(
            g.num_arcs() as f64 > 0.85 * target as f64,
            "arcs {} too far below target {target}",
            g.num_arcs()
        );
        assert!(g.lt_compatible());
    }

    #[test]
    fn undirected_standin_symmetrizes() {
        let g = ORKUT.generate(0.0002, 7).unwrap();
        // every arc must have its reverse
        for v in 0..g.num_nodes() {
            for arc in g.in_arcs(v) {
                let u = arc.source;
                assert!(
                    g.in_arcs(u).binary_search_by_key(&v, |a| a.source).is_ok(),
                    "missing reverse arc {v} -> {u}"
                );
            }
        }
    }
}

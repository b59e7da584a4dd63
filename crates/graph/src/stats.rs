//! Graph statistics — the quantities reported in Table 2 of the paper.

use crate::Graph;

/// Summary statistics of a graph, printable as a Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: u32,
    /// Directed arc count.
    pub arcs: u64,
    /// Average out-degree (`arcs / nodes`).
    pub avg_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Maximum in-degree.
    pub max_in_degree: u32,
    /// Nodes with neither in- nor out-edges.
    pub isolated_nodes: u32,
    /// Size of the largest weakly connected component (real social
    /// networks — and credible stand-ins — have a giant one).
    pub largest_wcc: u32,
}

impl GraphStats {
    /// Computes statistics in one pass over the offset arrays plus a
    /// union-find sweep for the weak components.
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut max_out = 0u32;
        let mut max_in = 0u32;
        let mut isolated = 0u32;
        for v in 0..n {
            let (dout, din) = (g.out_degree(v), g.in_degree(v));
            max_out = max_out.max(dout);
            max_in = max_in.max(din);
            if dout == 0 && din == 0 {
                isolated += 1;
            }
        }
        GraphStats {
            nodes: n,
            arcs: g.num_arcs(),
            avg_out_degree: g.num_arcs() as f64 / f64::from(n.max(1)),
            max_out_degree: max_out,
            max_in_degree: max_in,
            isolated_nodes: isolated,
            largest_wcc: largest_weak_component(g),
        }
    }
}

/// Size of the largest weakly connected component (union-find with path
/// halving and union by size).
fn largest_weak_component(g: &Graph) -> u32 {
    let n = g.num_nodes() as usize;
    if n == 0 {
        return 0;
    }
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut size: Vec<u32> = vec![1; n];

    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize]; // path halving
            v = parent[v as usize];
        }
        v
    }

    for u in 0..g.num_nodes() {
        for &v in g.out_neighbors(u) {
            let (mut a, mut b) = (find(&mut parent, u), find(&mut parent, v));
            if a == b {
                continue;
            }
            if size[a as usize] < size[b as usize] {
                std::mem::swap(&mut a, &mut b);
            }
            parent[b as usize] = a;
            size[a as usize] += size[b as usize];
        }
    }
    (0..g.num_nodes())
        .filter(|&v| find(&mut parent, v) == v)
        .map(|v| size[v as usize])
        .max()
        .unwrap_or(0)
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} arcs, avg degree {:.1}, max out/in degree {}/{}, {} isolated, largest WCC {}",
            self.nodes,
            self.arcs,
            self.avg_out_degree,
            self.max_out_degree,
            self.max_in_degree,
            self.isolated_nodes,
            self.largest_wcc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, WeightModel};

    fn star(n: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for v in 1..n {
            b.add_arc(0, v);
        }
        b.build(WeightModel::Constant(0.1)).unwrap()
    }

    #[test]
    fn stats_on_star() {
        let g = star(11);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 11);
        assert_eq!(s.arcs, 10);
        assert_eq!(s.max_out_degree, 10);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.isolated_nodes, 0);
        assert!((s.avg_out_degree - 10.0 / 11.0).abs() < 1e-9);
        let rendered = s.to_string();
        assert!(rendered.contains("11 nodes"));
    }

    #[test]
    fn isolated_nodes_counted() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.set_num_nodes(5);
        let g = b.build(WeightModel::Constant(0.1)).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.isolated_nodes, 3);
        assert_eq!(s.largest_wcc, 2);
    }

    #[test]
    fn wcc_ignores_direction_and_finds_the_giant() {
        // components {0,1,2} (via mixed directions) and {3,4}; 5 isolated
        let mut b = GraphBuilder::new();
        b.add_arc(0, 1);
        b.add_arc(2, 1); // weakly connects 2
        b.add_arc(3, 4);
        b.set_num_nodes(6);
        let g = b.build(WeightModel::Constant(0.1)).unwrap();
        assert_eq!(super::largest_weak_component(&g), 3);
        let s = GraphStats::compute(&g);
        assert_eq!(s.largest_wcc, 3);
        assert!(s.to_string().contains("largest WCC 3"));
    }
}

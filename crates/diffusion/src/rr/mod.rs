//! Reverse Reachable (RR) set sampling — Definition 2 of the paper.
//!
//! A random RR set is generated by (1) drawing a root `v` (uniformly for
//! IM, weight-proportionally for TVM), (2) implicitly sampling a live-edge
//! graph `g` from the diffusion model, and (3) collecting every node that
//! reaches `v` in `g`. Under IC this is a reverse BFS flipping one coin
//! per in-edge; under LT it is a reverse random walk that at each node
//! either steps to exactly one in-neighbor (with probability equal to the
//! edge weight) or stops — both constructions are the standard
//! equivalences from Borgs et al. and Tang et al.
//!
//! The IC coin is the integer test `(next_u32 >> 8) < ⌈w·2²⁴⌉`
//! ([`sns_graph::InArc`]). A uniform `f32` is those 24 bits scaled by
//! `2⁻²⁴`, so it accepts the draws `gen::<f32>() < w` accepts, and draws
//! the same bits.
//!
//! Sampling is indexed: RR set `i` under a master seed is a pure function
//! of `(master_seed, i)`, so pools can be grown in parallel while staying
//! bit-reproducible, and [`RrSampler::sample_until`] can stop a set early
//! without changing the nodes it reached or any other set.

mod ic;
mod lt;

use sns_graph::{Graph, NodeId};

use crate::rng::Xoshiro256pp;
use crate::{Model, RootDist};

/// Metadata about one sampled RR set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrMeta {
    /// The root (source) node the set was grown from.
    pub root: NodeId,
    /// Number of in-edges examined while growing the set. This is the
    /// per-sample cost measure (`EPT` in TIM's analysis) and the dominant
    /// term of RIS running time.
    pub edges_examined: u64,
}

/// Reusable RR-set sampler for one graph + model + root distribution.
///
/// Holds per-node scratch marks (epoch-stamped, O(1) reset), so
/// steady-state sampling does not allocate: the output vector doubles as
/// the BFS queue. `Clone` duplicates the scratch space — clone once per
/// worker thread.
#[derive(Clone)]
pub struct RrSampler<'g> {
    graph: &'g Graph,
    model: Model,
    roots: RootDist,
    master_seed: u64,
    visited: Vec<u32>,
    epoch: u32,
}

impl<'g> RrSampler<'g> {
    /// Creates a sampler with uniform roots and master seed 0.
    pub fn new(graph: &'g Graph, model: Model) -> Self {
        Self::with_config(graph, model, RootDist::Uniform, 0)
    }

    /// Creates a fully configured sampler.
    pub fn with_config(graph: &'g Graph, model: Model, roots: RootDist, master_seed: u64) -> Self {
        RrSampler {
            graph,
            model,
            roots,
            master_seed,
            visited: vec![0; graph.num_nodes() as usize],
            epoch: 0,
        }
    }

    /// The graph being sampled.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The diffusion model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The root distribution.
    pub fn roots(&self) -> &RootDist {
        &self.roots
    }

    /// The universe mass Γ (`n` for uniform roots, `Σ b(v)` for WRIS);
    /// the coverage-to-influence scale factor of Lemma 1.
    pub fn gamma(&self) -> f64 {
        self.roots.gamma(self.graph)
    }

    /// Master seed the index stream is derived from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Samples RR set `index`, overwriting `out` with its nodes (root
    /// first, then in discovery order; every node is distinct).
    pub fn sample(&mut self, index: u64, out: &mut Vec<NodeId>) -> RrMeta {
        self.sample_until(index, out, |_| false).0
    }

    /// [`RrSampler::sample`], stopped (flag `true`) once the root or a
    /// newly reached node satisfies `stop`: `out` is then the prefix of
    /// set `index` ending at its first such node, and `edges_examined`
    /// counts every scanned node's in-degree, the one scanned at the stop
    /// fully.
    pub fn sample_until(
        &mut self,
        index: u64,
        out: &mut Vec<NodeId>,
        stop: impl Fn(NodeId) -> bool,
    ) -> (RrMeta, bool) {
        let mut rng = Xoshiro256pp::for_sample(self.master_seed, index);
        out.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.epoch = 1;
        }
        let root = self.roots.sample(self.graph.num_nodes(), &mut rng);
        self.visited[root as usize] = self.epoch;
        out.push(root);
        if stop(root) {
            return (RrMeta { root, edges_examined: 0 }, true);
        }
        let (graph, visited, epoch) = (self.graph, &mut self.visited[..], self.epoch);
        let (edges_examined, stopped) = match self.model {
            Model::IndependentCascade => ic::grow(graph, &mut rng, visited, epoch, out, stop),
            Model::LinearThreshold => lt::grow(graph, &mut rng, visited, epoch, out, stop),
        };
        (RrMeta { root, edges_examined }, stopped)
    }
}

impl std::fmt::Debug for RrSampler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RrSampler")
            .field("model", &self.model)
            .field("master_seed", &self.master_seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sns_graph::{gen, GraphBuilder, WeightModel};

    /// Weight of the arc `u → v`, read from the forward CSR.
    fn weight(g: &Graph, u: NodeId, v: NodeId) -> f32 {
        let at = g.out_neighbors(u).binary_search(&v).expect("arc exists");
        g.out_weights(u)[at]
    }

    /// Float-coin reference sampler: set `index` with the coins
    /// `gen::<f32>() < w` over the forward CSR's weights, a separate queue
    /// and a linear-scan LT step. Returns the set and its edge count.
    fn reference(sampler: &RrSampler<'_>, index: u64) -> (Vec<NodeId>, u64) {
        let g = sampler.graph();
        let mut rng = Xoshiro256pp::for_sample(sampler.master_seed(), index);
        let root = sampler.roots().sample(g.num_nodes(), &mut rng);
        let mut seen = vec![false; g.num_nodes() as usize];
        seen[root as usize] = true;
        let (mut set, mut edges) = (vec![root], 0u64);
        match sampler.model() {
            Model::IndependentCascade => {
                let mut queue = std::collections::VecDeque::from([root]);
                while let Some(v) = queue.pop_front() {
                    edges += u64::from(g.in_degree(v));
                    for u in g.in_arcs(v).iter().map(|a| a.source) {
                        if !seen[u as usize] && rng.gen::<f32>() < weight(g, u, v) {
                            seen[u as usize] = true;
                            set.push(u);
                            queue.push_back(u);
                        }
                    }
                }
            }
            Model::LinearThreshold => {
                let mut v = root;
                loop {
                    edges += 1;
                    let r = rng.gen::<f32>();
                    let mut acc = 0.0f64;
                    let step = g.in_arcs(v).iter().map(|a| a.source).find(|&u| {
                        acc += f64::from(weight(g, u, v));
                        r < acc as f32
                    });
                    match step {
                        Some(u) if !seen[u as usize] => {
                            seen[u as usize] = true;
                            set.push(u);
                            v = u;
                        }
                        _ => break,
                    }
                }
            }
        }
        (set, edges)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// `sample` equals the float-coin reference set for set, and a
        /// stopped set is the prefix of the full set that ends at its
        /// first marked node (the whole set when none is marked), on ER
        /// and RMAT graphs, under IC and LT, with uniform and weighted
        /// roots, under weighted-cascade and constant (possibly > 1)
        /// weights.
        #[test]
        fn sampling_matches_the_float_reference_and_stops_at_the_first_mark(
            case in (0u32..2, 0u32..2, 0u32..2, 0u32..1300),
            seeds in (0u64..1000, 0u64..1000),
            mark_every in 2u32..12,
        ) {
            let (rmat, lt, weighted_roots, p_permille) = case;
            let (graph_seed, master) = seeds;
            let weights = if lt == 1 || p_permille < 300 {
                WeightModel::WeightedCascade
            } else {
                WeightModel::Constant(p_permille as f32 / 1000.0)
            };
            let builder = if rmat == 1 {
                gen::rmat(300, 1500, gen::RmatParams::GRAPH500, graph_seed)
            } else {
                gen::erdos_renyi(300, 1200, graph_seed)
            };
            let g = builder.build(weights).unwrap();
            let model = if lt == 1 { Model::LinearThreshold } else { Model::IndependentCascade };
            let roots = if weighted_roots == 1 {
                let b: Vec<f64> = (0..g.num_nodes()).map(|v| f64::from(v % 5)).collect();
                RootDist::weighted(&b).unwrap()
            } else {
                RootDist::Uniform
            };
            let mut s = RrSampler::with_config(&g, model, roots, master);
            let marked = |v: NodeId| (v * 7 + graph_seed as u32).is_multiple_of(mark_every);
            let (mut full, mut part) = (Vec::new(), Vec::new());
            for i in 0..40u64 {
                let meta = s.sample(i, &mut full);
                let (want, want_edges) = reference(&s, i);
                proptest::prop_assert_eq!(&full, &want);
                proptest::prop_assert_eq!(meta, RrMeta { root: want[0], edges_examined: want_edges });

                let (stopped_meta, stopped) = s.sample_until(i, &mut part, marked);
                let first_mark = full.iter().position(|&v| marked(v));
                proptest::prop_assert_eq!(stopped, first_mark.is_some());
                proptest::prop_assert_eq!(part.len(), first_mark.map_or(full.len(), |at| at + 1));
                proptest::prop_assert_eq!(&part[..], &full[..part.len()]);
                proptest::prop_assert_eq!(stopped_meta.root, meta.root);
                proptest::prop_assert!(stopped_meta.edges_examined <= meta.edges_examined);
                if !stopped {
                    proptest::prop_assert_eq!(stopped_meta, meta);
                }
            }
        }
    }

    /// A stopped set's `edges_examined` is the in-degree of every scanned
    /// node, the node being scanned at the stop counted fully; a root
    /// that satisfies `stop` examines nothing.
    #[test]
    fn stopped_sets_count_every_scanned_node_fully() {
        // 1, 2, 3 → 0 and 4 → 1, every arc live; roots are always 0
        let mut b = GraphBuilder::new();
        for (u, v) in [(1, 0), (2, 0), (3, 0), (4, 1)] {
            b.add_edge(u, v, 1.0);
        }
        let g = b.build(WeightModel::Provided).unwrap();
        let roots = RootDist::weighted(&[1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let mut s = RrSampler::with_config(&g, Model::IndependentCascade, roots, 1);
        let mut rr = Vec::new();
        let full = s.sample(0, &mut rr);
        assert_eq!((rr.clone(), full.edges_examined), (vec![0, 1, 2, 3, 4], 4));
        for (mark, set, edges) in
            [(0, vec![0], 0), (2, vec![0, 1, 2], 3), (4, vec![0, 1, 2, 3, 4], 4)]
        {
            let (meta, stopped) = s.sample_until(0, &mut rr, |v| v == mark);
            assert!(stopped, "mark {mark}");
            assert_eq!((rr.clone(), meta.edges_examined), (set, edges), "mark {mark}");
        }
        let (meta, stopped) = s.sample_until(0, &mut rr, |v| v > 4);
        assert!(!stopped);
        assert_eq!((rr, meta), (vec![0, 1, 2, 3, 4], full));
    }

    fn diamond(p: f32) -> sns_graph::Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, p);
        b.add_edge(0, 2, p);
        b.add_edge(1, 3, p);
        b.add_edge(2, 3, p);
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn rr_sets_contain_root_and_are_distinct() {
        let g = diamond(0.7);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut s = RrSampler::new(&g, model);
            let mut rr = Vec::new();
            for i in 0..200 {
                let meta = s.sample(i, &mut rr);
                assert_eq!(rr[0], meta.root);
                let mut sorted = rr.clone();
                sorted.sort_unstable();
                let len = sorted.len();
                sorted.dedup();
                assert_eq!(sorted.len(), len, "duplicate nodes in RR set ({model})");
            }
        }
    }

    #[test]
    fn sampling_is_index_deterministic() {
        let g = diamond(0.5);
        let mut s1 = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 9);
        let mut s2 = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 9);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        // out-of-order access must not matter
        for i in [5u64, 0, 17, 5, 3] {
            let ma = s1.sample(i, &mut a);
            let mb = s2.sample(i, &mut b);
            assert_eq!(a, b);
            assert_eq!(ma, mb);
        }
    }

    #[test]
    fn full_probability_reaches_all_ancestors() {
        let g = diamond(1.0);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut s = RrSampler::new(&g, model);
            let mut rr = Vec::new();
            for i in 0..100 {
                let meta = s.sample(i, &mut rr);
                if meta.root == 3 && model == Model::IndependentCascade {
                    // all of 0, 1, 2 reach 3 when every edge is live
                    let mut sorted = rr.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, vec![0, 1, 2, 3]);
                }
                if meta.root == 3 && model == Model::LinearThreshold {
                    // LT walk picks exactly ONE in-neighbor per step even
                    // at weight 1 — the set is a path back to node 0.
                    assert!(rr.len() >= 2, "must walk at least one step");
                    assert!(rr.contains(&3));
                }
            }
        }
    }

    #[test]
    fn zero_probability_rr_is_singleton() {
        let g = diamond(0.0);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut s = RrSampler::new(&g, model);
            let mut rr = Vec::new();
            for i in 0..50 {
                let meta = s.sample(i, &mut rr);
                assert_eq!(rr.len(), 1, "{model}");
                assert_eq!(rr[0], meta.root);
            }
        }
    }

    #[test]
    fn weighted_roots_bias_sampling() {
        let g = diamond(0.0);
        let roots = RootDist::weighted(&[0.0, 0.0, 0.0, 1.0]).unwrap();
        let mut s = RrSampler::with_config(&g, Model::IndependentCascade, roots, 4);
        let mut rr = Vec::new();
        for i in 0..100 {
            let meta = s.sample(i, &mut rr);
            assert_eq!(meta.root, 3);
        }
        assert_eq!(s.gamma(), 1.0);
    }

    /// Lemma 1 sanity check: Pr[{u} covers R] * n must approximate the
    /// influence of u measured by forward simulation.
    #[test]
    fn lemma1_rr_coverage_matches_forward_influence() {
        let g = diamond(0.5);
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let mut s = RrSampler::new(&g, model);
            let mut rr = Vec::new();
            let samples = 60_000u64;
            let mut covered = 0u64;
            for i in 0..samples {
                s.sample(i, &mut rr);
                if rr.contains(&0) {
                    covered += 1;
                }
            }
            let rr_estimate = 4.0 * covered as f64 / samples as f64;
            let fwd = crate::SpreadEstimator::new(&g, model).estimate(&[0], 60_000, 77);
            assert!(
                (rr_estimate - fwd).abs() < 0.08,
                "{model}: RR {rr_estimate:.3} vs forward {fwd:.3}"
            );
        }
    }
}

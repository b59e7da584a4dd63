//! Simulation-based greedy baselines: plain Monte Carlo greedy (Kempe,
//! Kleinberg, Tardos — KDD'03), CELF (Leskovec et al. — KDD'07) and
//! CELF++ (Goyal, Lu, Lakshmanan — WWW'11).
//!
//! All three repeatedly add the node with the largest marginal spread
//! gain, with the spread oracle `σ(S)` evaluated by forward Monte Carlo
//! simulation. CELF exploits submodularity to skip re-evaluations (the
//! classic "lazy forward" trick, up to 700× over plain greedy); CELF++
//! additionally caches `σ(S ∪ {prev_best} ∪ {u})` so that when the
//! iteration's front-runner actually wins, queued nodes reuse their
//! cached gain without a new simulation batch.
//!
//! These algorithms are exponentially slower than RIS methods on large
//! graphs — the paper reports CELF++ 2·10⁹× slower than D-SSA on
//! Twitter — so [`Celf::with_timeout`] implements the paper's per-run
//! time limit: on expiry the partially built seed set is padded with the
//! best currently-queued candidates and the result is flagged.
//!
//! Statistics note: these baselines sample cascades, not RR sets, so
//! `RunResult::rr_sets_main == 0` and `total_edges_examined` counts
//! **forward simulations** instead.

// Sanctioned wall-clock reads: runtime stats plus the paper's per-run CELF
// timeout (lint-allow.toml carries the same exemptions for sns-lint).
#![allow(clippy::disallowed_methods)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use sns_core::bounds::certificate::StopCondition;
use sns_core::{CoreError, RunResult, SamplingContext};
use sns_diffusion::SpreadEstimator;
use sns_graph::NodeId;

/// Max-heap entry ordered by gain, tie-broken by node id (largest first,
/// matching the `(gain, id)` order of the RIS greedy in
/// `sns_rrset::CoverageView::select` — these baselines sample cascades
/// rather than RR sets, so they are the one greedy family that does *not*
/// run on the CSR-transposed coverage view, but keeping the tie-break
/// aligned keeps seed sets comparable across the two families on ties).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    gain: f64,
    node: NodeId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain.total_cmp(&other.gain).then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared configuration of the simulation-greedy family.
#[derive(Debug, Clone)]
struct GreedyConfig {
    k: usize,
    simulations: u64,
    timeout: Option<Duration>,
}

impl GreedyConfig {
    fn new(k: usize) -> Self {
        GreedyConfig { k, simulations: 10_000, timeout: None }
    }
}

/// CELF: greedy with lazy marginal-gain re-evaluation.
#[derive(Debug, Clone)]
pub struct Celf {
    config: GreedyConfig,
}

/// CELF++: CELF plus the `prev_best`/`mg2` caching of Goyal et al.
#[derive(Debug, Clone)]
pub struct CelfPlusPlus {
    config: GreedyConfig,
}

macro_rules! shared_builders {
    ($t:ty) => {
        impl $t {
            /// Creates the algorithm for a budget of `k` seeds with the
            /// literature-standard 10 000 simulations per estimate.
            pub fn new(k: usize) -> Self {
                Self { config: GreedyConfig::new(k) }
            }

            /// Sets the Monte Carlo simulations per spread estimate.
            pub fn with_simulations(mut self, simulations: u64) -> Self {
                self.config.simulations = simulations.max(1);
                self
            }

            /// Sets a wall-clock budget (the paper limits every algorithm
            /// run to 24 hours; CELF++ is the only one that ever hits it).
            pub fn with_timeout(mut self, timeout: Duration) -> Self {
                self.config.timeout = Some(timeout);
                self
            }
        }
    };
}

shared_builders!(Celf);
shared_builders!(CelfPlusPlus);

/// Spread oracle with common random numbers: evaluating every candidate
/// on the same simulation seed makes marginal-gain comparisons consistent
/// and keeps the whole run deterministic.
struct Oracle<'g, 'c> {
    estimator: SpreadEstimator<'g>,
    ctx: &'c SamplingContext<'g>,
    simulations: u64,
    evals: u64,
}

impl<'g, 'c> Oracle<'g, 'c> {
    fn new(ctx: &'c SamplingContext<'g>, simulations: u64) -> Self {
        let estimator = SpreadEstimator::new(ctx.graph(), ctx.model()).with_threads(ctx.threads());
        Oracle { estimator, ctx, simulations, evals: 0 }
    }

    fn sigma(&mut self, seeds: &[NodeId]) -> f64 {
        self.evals += 1;
        self.estimator.estimate(seeds, self.simulations, self.ctx.stream_seed(0xCE1F))
    }

    fn simulations_run(&self) -> u64 {
        self.evals * self.simulations
    }
}

impl Celf {
    /// Runs CELF and returns the seed set with run statistics.
    pub fn run(&self, ctx: &SamplingContext<'_>) -> Result<RunResult, CoreError> {
        let start = Instant::now();
        let deadline = self.config.timeout.map(|t| start + t);
        let n = ctx.graph().num_nodes();
        let k = self.config.k.min(n as usize);
        let mut oracle = Oracle::new(ctx, self.config.simulations);

        // Initial pass: σ({u}) for every node.
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n as usize);
        let mut flag = vec![0usize; n as usize];
        let mut timed_out = false;
        for u in 0..n {
            if expired(deadline) {
                timed_out = true;
                // unevaluated nodes enter with an optimistic gain of n
                heap.push(Entry { gain: f64::from(n), node: u });
                continue;
            }
            heap.push(Entry { gain: oracle.sigma(&[u]), node: u });
        }

        let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
        let mut sigma_s = 0.0f64;
        let mut seed_buf: Vec<NodeId> = Vec::with_capacity(k + 1);
        while seeds.len() < k {
            let Some(top) = heap.pop() else { break };
            if timed_out || expired(deadline) {
                timed_out = true;
                // pad with the best currently queued candidates
                seeds.push(top.node);
                continue;
            }
            if flag[top.node as usize] == seeds.len() {
                seeds.push(top.node);
                sigma_s += top.gain;
            } else {
                seed_buf.clear();
                seed_buf.extend_from_slice(&seeds);
                seed_buf.push(top.node);
                let gain = oracle.sigma(&seed_buf) - sigma_s;
                flag[top.node as usize] = seeds.len();
                heap.push(Entry { gain, node: top.node });
            }
        }

        Ok(build_result(seeds, sigma_s, seeds_len_rounds(k), timed_out, start, &oracle))
    }
}

impl CelfPlusPlus {
    /// Runs CELF++ and returns the seed set with run statistics.
    pub fn run(&self, ctx: &SamplingContext<'_>) -> Result<RunResult, CoreError> {
        let start = Instant::now();
        let deadline = self.config.timeout.map(|t| start + t);
        let n = ctx.graph().num_nodes();
        let k = self.config.k.min(n as usize);
        let mut oracle = Oracle::new(ctx, self.config.simulations);

        const NONE: u32 = u32::MAX;
        let mut mg2 = vec![0.0f64; n as usize]; // σ gain w.r.t. S ∪ {prev_best}
        let mut prev_best = vec![NONE; n as usize];
        let mut flag = vec![0usize; n as usize];
        let mut timed_out = false;

        // Initial pass, tracking the running front-runner so mg2 can be
        // seeded without extra simulations beyond σ({u, cur_best}).
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n as usize);
        let mut cur_best: Option<(f64, NodeId)> = None;
        for u in 0..n {
            if expired(deadline) {
                timed_out = true;
                heap.push(Entry { gain: f64::from(n), node: u });
                continue;
            }
            let g1 = oracle.sigma(&[u]);
            if let Some((_, b)) = cur_best {
                let joint = oracle.sigma(&[u, b]);
                let sigma_b = cur_best.unwrap().0;
                mg2[u as usize] = joint - sigma_b;
                prev_best[u as usize] = b;
            } else {
                mg2[u as usize] = g1;
            }
            if cur_best.is_none_or(|(g, _)| g1 > g) {
                cur_best = Some((g1, u));
            }
            heap.push(Entry { gain: g1, node: u });
        }

        let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
        let mut sigma_s = 0.0f64;
        let mut last_seed = NONE;
        // σ(S ∪ {cur_best}) cache for the current round, keyed by node.
        let mut cur_best_round: Option<(f64, NodeId)> = None; // (mg1, node)
        let mut sigma_s_curbest: Option<(NodeId, f64)> = None;
        let mut seed_buf: Vec<NodeId> = Vec::with_capacity(k + 2);

        while seeds.len() < k {
            let Some(top) = heap.pop() else { break };
            let u = top.node;
            if timed_out || expired(deadline) {
                timed_out = true;
                seeds.push(u);
                continue;
            }
            if flag[u as usize] == seeds.len() {
                seeds.push(u);
                sigma_s += top.gain;
                last_seed = u;
                cur_best_round = None;
                sigma_s_curbest = None;
                continue;
            }
            let gain = if prev_best[u as usize] == last_seed && last_seed != NONE {
                // The cached mg2 was computed against exactly this S.
                mg2[u as usize]
            } else {
                seed_buf.clear();
                seed_buf.extend_from_slice(&seeds);
                seed_buf.push(u);
                let g1 = oracle.sigma(&seed_buf) - sigma_s;
                if let Some((_, b)) = cur_best_round {
                    // Cache σ(S ∪ {b}) once per round.
                    let base = match sigma_s_curbest {
                        Some((node, v)) if node == b => v,
                        _ => {
                            seed_buf.clear();
                            seed_buf.extend_from_slice(&seeds);
                            seed_buf.push(b);
                            let v = oracle.sigma(&seed_buf);
                            sigma_s_curbest = Some((b, v));
                            v
                        }
                    };
                    seed_buf.clear();
                    seed_buf.extend_from_slice(&seeds);
                    seed_buf.push(b);
                    seed_buf.push(u);
                    mg2[u as usize] = oracle.sigma(&seed_buf) - base;
                    prev_best[u as usize] = b;
                } else {
                    mg2[u as usize] = g1;
                    prev_best[u as usize] = NONE;
                }
                g1
            };
            flag[u as usize] = seeds.len();
            if cur_best_round.is_none_or(|(g, _)| gain > g) {
                cur_best_round = Some((gain, u));
            }
            heap.push(Entry { gain, node: u });
        }

        Ok(build_result(seeds, sigma_s, seeds_len_rounds(k), timed_out, start, &oracle))
    }
}

/// Plain Kempe-Kleinberg-Tardos greedy: re-evaluates every remaining node
/// each round. `O(n·k)` oracle calls — the exact reference for tiny
/// instances and the baseline CELF's 700× speedup is measured against.
pub fn monte_carlo_greedy(
    ctx: &SamplingContext<'_>,
    k: usize,
    simulations: u64,
) -> Result<RunResult, CoreError> {
    let start = Instant::now();
    let n = ctx.graph().num_nodes();
    let k = k.min(n as usize);
    let mut oracle = Oracle::new(ctx, simulations);
    let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
    let mut in_s = vec![false; n as usize];
    let mut sigma_s = 0.0f64;
    let mut buf = Vec::with_capacity(k + 1);
    for _ in 0..k {
        let mut best: Option<(f64, NodeId)> = None;
        for u in 0..n {
            if in_s[u as usize] {
                continue;
            }
            buf.clear();
            buf.extend_from_slice(&seeds);
            buf.push(u);
            let gain = oracle.sigma(&buf) - sigma_s;
            if best.is_none_or(|(g, b)| (gain, u) > (g, b)) {
                best = Some((gain, u));
            }
        }
        let Some((gain, u)) = best else { break };
        seeds.push(u);
        in_s[u as usize] = true;
        sigma_s += gain;
    }
    Ok(build_result(seeds, sigma_s, seeds_len_rounds(k), false, start, &oracle))
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn seeds_len_rounds(k: usize) -> u32 {
    sns_rrset::narrow::node_count(k)
}

fn build_result(
    seeds: Vec<NodeId>,
    sigma_s: f64,
    iterations: u32,
    timed_out: bool,
    start: Instant,
    oracle: &Oracle<'_, '_>,
) -> RunResult {
    RunResult {
        seeds,
        influence_estimate: sigma_s,
        rr_sets_main: 0,
        rr_sets_verify: 0,
        iterations,
        hit_cap: timed_out,
        binding: if timed_out { StopCondition::Cap } else { StopCondition::Schedule },
        wall_time: start.elapsed(),
        peak_pool_bytes: 0,
        total_edges_examined: oracle.simulations_run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::{Params, SamplingContext};
    use sns_diffusion::Model;
    use sns_graph::{gen, Graph, GraphBuilder, WeightModel};

    fn two_stars() -> Graph {
        // node 0 -> 20 leaves (p=1), node 1 -> 10 leaves (p=1), disjoint
        let mut b = GraphBuilder::new();
        for i in 0..20 {
            b.add_edge(0, 2 + i, 1.0);
        }
        for i in 0..10 {
            b.add_edge(1, 22 + i, 1.0);
        }
        b.build(WeightModel::Provided).unwrap()
    }

    #[test]
    fn celf_selects_both_hubs() {
        let g = two_stars();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(3);
        let r = Celf::new(2).with_simulations(200).run(&ctx).unwrap();
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
        assert!((r.influence_estimate - 32.0).abs() < 0.5);
        assert!(!r.hit_cap);
    }

    #[test]
    fn celfpp_selects_both_hubs() {
        let g = two_stars();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(3);
        let r = CelfPlusPlus::new(2).with_simulations(200).run(&ctx).unwrap();
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn plain_greedy_matches_celf_on_small_graph() {
        let g = gen::erdos_renyi(40, 200, 9).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(5);
        let a = monte_carlo_greedy(&ctx, 3, 400).unwrap();
        let b = Celf::new(3).with_simulations(400).run(&ctx).unwrap();
        // identical oracle (common random numbers) => identical greedy path
        assert_eq!(a.seeds, b.seeds);
        let c = CelfPlusPlus::new(3).with_simulations(400).run(&ctx).unwrap();
        assert_eq!(a.seeds, c.seeds);
    }

    #[test]
    fn celf_uses_fewer_evals_than_plain_greedy() {
        let g = gen::erdos_renyi(60, 300, 9).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(5);
        let plain = monte_carlo_greedy(&ctx, 4, 100).unwrap();
        let celf = Celf::new(4).with_simulations(100).run(&ctx).unwrap();
        assert!(
            celf.total_edges_examined < plain.total_edges_examined,
            "CELF {} sims vs plain {}",
            celf.total_edges_examined,
            plain.total_edges_examined
        );
    }

    #[test]
    fn timeout_returns_padded_result() {
        let g = gen::erdos_renyi(500, 3000, 2).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
        let r = Celf::new(5)
            .with_simulations(100_000)
            .with_timeout(Duration::from_millis(30))
            .run(&ctx)
            .unwrap();
        assert_eq!(r.seeds.len(), 5, "padded to k");
        assert!(r.hit_cap, "timeout must be flagged");
    }

    #[test]
    fn agrees_with_ris_methods_on_seed_quality() {
        let g = gen::rmat(300, 1800, gen::RmatParams::GRAPH500, 5)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(7);
        let celf = Celf::new(3).with_simulations(2_000).run(&ctx).unwrap();
        let dssa = sns_core::Dssa::new(Params::new(3, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        let est = SpreadEstimator::new(&g, Model::IndependentCascade);
        let sc = est.estimate(&celf.seeds, 20_000, 42);
        let sd = est.estimate(&dssa.seeds, 20_000, 42);
        assert!((sc - sd).abs() / sc.max(sd) < 0.15, "CELF {sc:.1} vs D-SSA {sd:.1}");
    }
}

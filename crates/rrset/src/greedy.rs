//! Greedy Max-Coverage — Algorithm 2 of the paper.
//!
//! The greedy algorithm repeatedly selects the node covering the most
//! still-uncovered RR sets; Nemhauser–Wolsey submodularity gives the
//! `(1 − 1/e)` guarantee relative to the best size-`k` cover. Two
//! implementations:
//!
//! * [`crate::max_coverage_with`] — exact decremental coverage counts
//!   plus a lazy max-heap (stale entries are re-keyed on pop), the
//!   implementation used by every algorithm in this library. It runs on
//!   a sealed **CSR-transposed snapshot** of the queried pool slice
//!   ([`crate::CoverageView`]): selection time first materializes the
//!   transpose of the inverted index — a flat forward `set → members`
//!   CSR with width-adaptive offsets rebased to the range (member data
//!   borrowed zero-copy from the pool's chunks; dropped when selection
//!   returns) —
//!   initializes gains with one streaming histogram pass instead of `n`
//!   inverted-index queries, and runs every decremental gain update as a
//!   contiguous slice sweep over the snapshot with a generation-stamped
//!   covered bitset, instead of chasing per-set offsets spread over the
//!   whole pool. Total work is `O(Σ|R_j| + n + heap traffic)`; seeds
//!   are bit-identical to the oracle below (same `(gain, id)` tie-break).
//!   Algorithms that select round after round (SSA, D-SSA, IMM, TIM)
//!   reuse one [`crate::GreedyScratch`] across rounds.
//! * [`max_coverage_naive`] — linear rescan of all nodes per round,
//!   `O(n·k + Σ|R_j|)`, over a range and optionally root weights. The
//!   one correctness oracle; it deliberately keeps walking
//!   [`RrCollection`] directly so it shares no code with the view path
//!   it checks.

use std::ops::Range;

use sns_graph::NodeId;

use crate::{RrCollection, WeightedCoverageResult};

/// Result of a greedy max-coverage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageResult {
    /// Selected seed nodes, in selection order.
    pub seeds: Vec<NodeId>,
    /// Number of RR sets covered by `seeds` (within the queried range).
    pub covered: u64,
    /// Marginal coverage gain of each seed at its selection time.
    pub marginal_gains: Vec<u64>,
}

impl CoverageResult {
    /// Estimated influence this cover represents: `Γ · covered / |R|`
    /// (Lemma 1 of the paper; `Γ = n` for plain RIS).
    pub fn influence_estimate(&self, gamma: f64, pool_size: u64) -> f64 {
        if pool_size == 0 {
            return 0.0;
        }
        gamma * self.covered as f64 / pool_size as f64
    }
}

/// Textbook greedy: rescans every node each round, `O(n·k + Σ|R_j|)` —
/// the one correctness oracle for [`crate::CoverageView::select`]. Runs
/// over the pool slice `range`; with `root_weights` each set counts
/// `root_weights[root]` (its first member) instead of 1, the objective of
/// [`crate::Weighted`]. Ties break on the larger node id and padding takes
/// the smallest unselected ids, like the kernel. It deliberately walks
/// [`RrCollection`] directly, so it shares no code with the view path it
/// checks; gains are `f64` (exact for counts, and for power-of-two
/// weights).
pub fn max_coverage_naive(
    rc: &RrCollection,
    k: usize,
    range: Range<u32>,
    root_weights: Option<&[f64]>,
) -> WeightedCoverageResult {
    let n = rc.num_nodes();
    let k = k.min(n as usize);
    let set_weight = |id: u32| match (root_weights, rc.set(id as usize).first()) {
        (None, _) => 1.0,
        (Some(w), Some(&root)) => w[root as usize],
        (Some(_), None) => 0.0,
    };
    let mut gain: Vec<f64> = (0..n)
        .map(|v| {
            rc.sets_containing_in(v, range.clone())
                .into_iter()
                .fold(0.0, |s, id| s + set_weight(id))
        })
        .collect();
    let mut covered_mark = vec![false; (range.end - range.start) as usize];
    let mut selected = vec![false; n as usize];
    let mut seeds = Vec::with_capacity(k);
    let mut marginal_gains = Vec::with_capacity(k);
    let mut covered_weight = 0.0;

    for _ in 0..k {
        let mut best: Option<(f64, NodeId)> = None;
        for v in 0..n {
            let candidate = (gain[v as usize], v);
            if !selected[v as usize] && candidate.0 > 0.0 && best.is_none_or(|b| candidate > b) {
                best = Some(candidate);
            }
        }
        let Some((g, v)) = best else { break };
        selected[v as usize] = true;
        seeds.push(v);
        marginal_gains.push(g);
        covered_weight += g;
        for id in rc.sets_containing_in(v, range.clone()) {
            let slot = (id - range.start) as usize;
            if !covered_mark[slot] {
                covered_mark[slot] = true;
                let w = set_weight(id);
                for &u in rc.set(id as usize) {
                    gain[u as usize] -= w;
                }
            }
        }
    }

    let mut next = 0u32;
    while seeds.len() < k && next < n {
        if !selected[next as usize] {
            selected[next as usize] = true;
            seeds.push(next);
            marginal_gains.push(0.0);
        }
        next += 1;
    }

    WeightedCoverageResult { seeds, covered_weight, marginal_gains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_pools::pool;
    use crate::{max_coverage_with, GreedyScratch};

    /// Greedy over `range` with a fresh scratch.
    fn greedy_in(rc: &RrCollection, k: usize, range: Range<u32>) -> CoverageResult {
        max_coverage_with(rc, k, range, &mut GreedyScratch::new())
    }

    /// Greedy over the whole pool.
    fn greedy(rc: &RrCollection, k: usize) -> CoverageResult {
        greedy_in(rc, k, rc.id_range())
    }

    #[test]
    fn picks_the_dominating_node() {
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4]], 5);
        let r = greedy(&rc, 1);
        assert_eq!(r.seeds, vec![0]);
        assert_eq!(r.covered, 3);
        assert_eq!(r.marginal_gains, vec![3]);
    }

    #[test]
    fn two_seeds_cover_everything() {
        let rc = pool(&[&[0, 1], &[0, 2], &[4], &[4, 3]], 5);
        let r = greedy(&rc, 2);
        assert_eq!(r.covered, 4);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 4]);
    }

    #[test]
    fn pads_to_k_seeds_when_coverage_exhausted() {
        let rc = pool(&[&[1]], 4);
        let r = greedy(&rc, 3);
        assert_eq!(r.seeds.len(), 3);
        assert_eq!(r.covered, 1);
        assert_eq!(r.seeds[0], 1);
        assert_eq!(r.marginal_gains[1], 0);
        assert_eq!(r.marginal_gains[2], 0);
    }

    #[test]
    fn k_clamped_to_n() {
        let rc = pool(&[&[0], &[1]], 2);
        let r = greedy(&rc, 10);
        assert_eq!(r.seeds.len(), 2);
    }

    #[test]
    fn empty_pool_yields_zero_coverage() {
        let rc = pool(&[], 3);
        let r = greedy(&rc, 2);
        assert_eq!(r.covered, 0);
        assert_eq!(r.seeds.len(), 2); // padded
        assert_eq!(r.influence_estimate(3.0, 0), 0.0);
    }

    #[test]
    fn range_restriction_changes_the_answer() {
        // sets 0,1 dominated by node 0; sets 2,3 dominated by node 1
        let rc = pool(&[&[0], &[0, 2], &[1], &[1, 2]], 3);
        let first = greedy_in(&rc, 1, 0..2);
        assert_eq!(first.seeds, vec![0]);
        let second = greedy_in(&rc, 1, 2..4);
        assert_eq!(second.seeds, vec![1]);
    }

    #[test]
    fn lazy_matches_naive_on_random_pools() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        for trial in 0..30 {
            let n = rng.gen_range(5..40u32);
            let sets = rng.gen_range(1..120usize);
            let all: Vec<Vec<NodeId>> = (0..sets)
                .map(|_| {
                    let len = rng.gen_range(1..6usize);
                    let mut s: Vec<NodeId> = (0..len).map(|_| rng.gen_range(0..n)).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let refs: Vec<&[NodeId]> = all.iter().map(Vec::as_slice).collect();
            let rc = pool(&refs, n);
            let k = rng.gen_range(1..6usize);
            let lazy = greedy(&rc, k);
            let naive = max_coverage_naive(&rc, k, rc.id_range(), None);
            // Greedy choices can differ on ties, but total coverage of the
            // greedy solution is unique given deterministic tie-breaks; we
            // assert both use (gain, id) max ordering so seeds match too.
            assert_eq!(lazy.covered as f64, naive.covered_weight, "trial {trial}");
            assert_eq!(lazy.seeds, naive.seeds, "trial {trial}");
        }
    }

    #[test]
    fn influence_estimate_scales() {
        let rc = pool(&[&[0], &[0], &[1], &[2]], 3);
        let r = greedy(&rc, 1);
        // covers 2 of 4 sets; gamma = 3 nodes -> estimate 1.5
        assert!((r.influence_estimate(3.0, 4) - 1.5).abs() < 1e-12);
    }
}

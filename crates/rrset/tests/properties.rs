//! Property-based tests for the RR pool, its sealed inverted index and
//! greedy max-coverage.

use proptest::collection::vec;
use proptest::prelude::*;

use sns_graph::NodeId;
use std::ops::Range;

use sns_rrset::{
    max_coverage_naive, max_coverage_with, Count, CoverageResult, CoverageView, GainInit,
    GainSnapshot, GreedyScratch, NodeCosts, Ratio, RrCollection, SeedConstraints, Weighted,
    WeightedCoverageResult, WeightedGainSnapshot,
};

const N: u32 = 24;

/// Strategy: a pool of up to 80 RR sets, each 1..6 distinct nodes.
fn pool_strategy() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    vec(vec(0u32..N, 1..6), 0..80).prop_map(|sets| {
        sets.into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect()
    })
}

/// `sets` as a pool of one sealed epoch.
fn build(sets: &[Vec<NodeId>]) -> RrCollection {
    let mut rc = RrCollection::new(N);
    rc.append_epoch(&refs(sets), 0);
    rc
}

fn refs(sets: &[Vec<NodeId>]) -> Vec<&[NodeId]> {
    sets.iter().map(Vec::as_slice).collect()
}

/// Greedy over `range` with a fresh scratch.
fn greedy_in(rc: &RrCollection, k: usize, range: Range<u32>) -> CoverageResult {
    max_coverage_with(rc, k, range, &mut GreedyScratch::new())
}

/// Greedy over the whole pool with a fresh scratch.
fn greedy(rc: &RrCollection, k: usize) -> CoverageResult {
    greedy_in(rc, k, rc.id_range())
}

/// Exhaustive best size-k coverage, for small instances.
fn exhaustive_best(rc: &RrCollection, k: usize) -> u64 {
    fn count(rc: &RrCollection, seeds: &[NodeId]) -> u64 {
        rc.coverage_of(seeds)
    }
    let nodes: Vec<NodeId> = (0..N).collect();
    let mut best = 0;
    // choose(24, k) is fine for k <= 3
    fn rec(
        rc: &RrCollection,
        nodes: &[NodeId],
        k: usize,
        start: usize,
        current: &mut Vec<NodeId>,
        best: &mut u64,
    ) {
        if current.len() == k {
            *best = (*best).max(count(rc, current));
            return;
        }
        for i in start..nodes.len() {
            current.push(nodes[i]);
            rec(rc, nodes, k, i + 1, current, best);
            current.pop();
        }
    }
    let mut cur = Vec::new();
    rec(rc, &nodes, k, 0, &mut cur, &mut best);
    best
}

proptest! {
    /// Lazy greedy and naive greedy agree exactly (same deterministic
    /// tie-breaking).
    #[test]
    fn lazy_equals_naive(sets in pool_strategy(), k in 1usize..6) {
        let rc = build(&sets);
        let a = greedy(&rc, k);
        let b = max_coverage_naive(&rc, k, rc.id_range(), None);
        prop_assert_eq!(WeightedCoverageResult::from(a), b);
    }

    /// The greedy cover is consistent with a direct coverage query over
    /// its seeds.
    #[test]
    fn reported_coverage_is_real(sets in pool_strategy(), k in 1usize..6) {
        let rc = build(&sets);
        let r = greedy(&rc, k);
        prop_assert_eq!(r.covered, rc.coverage_of(&r.seeds));
        let gain_sum: u64 = r.marginal_gains.iter().sum();
        prop_assert_eq!(r.covered, gain_sum);
    }

    /// Greedy achieves at least (1 - 1/e) of the exhaustive optimum
    /// (Nemhauser–Wolsey); checked on small k where exhaustive search is
    /// feasible.
    #[test]
    fn greedy_approximation_bound(sets in pool_strategy(), k in 1usize..4) {
        let rc = build(&sets);
        let covered = greedy(&rc, k).covered as f64;
        let opt = exhaustive_best(&rc, k) as f64;
        prop_assert!(covered >= (1.0 - 1.0 / std::f64::consts::E) * opt - 1e-9,
            "greedy {} below bound for opt {}", covered, opt);
    }

    /// Coverage is monotone: more seeds never cover fewer sets.
    #[test]
    fn coverage_monotone(sets in pool_strategy(), k in 1usize..5) {
        let rc = build(&sets);
        let small = greedy(&rc, k);
        let large = greedy(&rc, k + 1);
        prop_assert!(large.covered >= small.covered);
    }

    /// Marginal gains are non-increasing (submodularity of coverage).
    #[test]
    fn marginal_gains_non_increasing(sets in pool_strategy(), k in 1usize..8) {
        let rc = build(&sets);
        let r = greedy(&rc, k);
        prop_assert!(r.marginal_gains.windows(2).all(|w| w[0] >= w[1]),
            "gains not monotone: {:?}", r.marginal_gains);
    }

    /// coverage_of over a union of singleton queries upper-bounds the
    /// union query (inclusion-exclusion sanity).
    #[test]
    fn coverage_subadditive(sets in pool_strategy(), a in 0u32..N, b in 0u32..N) {
        let rc = build(&sets);
        let together = rc.coverage_of(&[a, b]);
        let separate = rc.coverage_of(&[a]) + rc.coverage_of(&[b]);
        prop_assert!(together <= separate);
        prop_assert!(together >= rc.coverage_of(&[a]));
    }

    /// A range starting at a nonzero offset must behave exactly like a
    /// fresh pool holding only the sets of that range: the coverage
    /// view's slot rebasing cannot leak absolute ids anywhere.
    #[test]
    fn offset_range_equals_truncated_pool(
        sets in pool_strategy(),
        lo_frac in 0.0f64..=1.0,
        hi_frac in 0.0f64..=1.0,
        k in 1usize..6,
    ) {
        let rc = build(&sets);
        let total = rc.len() as u32;
        let lo = (f64::from(total) * lo_frac) as u32;
        let hi = (f64::from(total) * hi_frac) as u32;
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let ranged = greedy_in(&rc, k, lo..hi);
        let sliced = build(&sets[lo as usize..hi as usize]);
        let expect = greedy(&sliced, k);
        prop_assert_eq!(ranged, expect);
    }

    /// Empty ranges (anywhere in the pool) cover nothing and only pad.
    #[test]
    fn empty_range_only_pads(sets in pool_strategy(), at_frac in 0.0f64..=1.0, k in 0usize..6) {
        let rc = build(&sets);
        let at = (f64::from(rc.len() as u32) * at_frac) as u32;
        let r = greedy_in(&rc, k, at..at);
        prop_assert_eq!(r.covered, 0);
        prop_assert_eq!(r.seeds.len(), k.min(N as usize));
        prop_assert!(r.marginal_gains.iter().all(|&g| g == 0));
    }

    /// One `GreedyScratch` reused across arbitrary pools, ranges and k
    /// (the SSA/D-SSA usage pattern) never contaminates later runs.
    #[test]
    fn scratch_reuse_matches_fresh_runs(
        pools in proptest::collection::vec((pool_strategy(), 1usize..6), 1..6),
    ) {
        let mut scratch = GreedyScratch::new();
        for (sets, k) in pools {
            let rc = build(&sets);
            let half = rc.len() as u32 / 2;
            let reused = max_coverage_with(&rc, k, 0..half, &mut scratch);
            let fresh = greedy_in(&rc, k, 0..half);
            prop_assert_eq!(reused, fresh);
        }
    }

    /// The selection kernel's contract, checked for every objective on
    /// random pools, ranges and forced/excluded constraints:
    ///
    /// | objective | `Histogram` ≡ `Frozen` | ≡ rescan oracle | degeneration |
    /// |-----------|:---:|:---:|---|
    /// | `Count`    | ✓ | ✓ (unconstrained) | — |
    /// | `Weighted` | ✓ | ✓ (unconstrained, power-of-two weights) | — |
    /// | `Ratio`    | ✓ | — | `Uniform` costs, `budget = k` ≡ `Count` |
    #[test]
    fn every_objective_agrees_across_inits_oracle_and_degeneration(
        sets in pool_strategy(),
        bounds in (0.0f64..=1.0, 0.0f64..=1.0),
        constraints in (vec(0u32..N, 0..3), vec(0u32..N, 0..3), 0usize..30, 0.0f64..4.0),
        draws in (vec(0usize..5, N as usize), vec(0usize..4, N as usize)),
    ) {
        let rc = build(&sets);
        let total = f64::from(rc.len() as u32);
        let (lo, hi) = ((total * bounds.0) as u32, (total * bounds.1) as u32);
        let range = lo.min(hi)..lo.max(hi);
        let (forced, excluded, extra_k, extra_budget) = constraints;
        let excluded: Vec<NodeId> = excluded.into_iter().filter(|v| !forced.contains(v)).collect();
        let mut distinct = forced.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let weights: Vec<f64> = draws.0.iter().map(|&i| [0.0, 0.25, 0.5, 1.0, 2.0][i]).collect();
        let costs: Vec<f64> = draws.1.iter().map(|&i| [0.5, 1.0, 1.5, 3.0][i]).collect();
        let costs = NodeCosts::per_node(costs.into());
        // distinct forced seeds must fit k and the budget; k may exceed N
        let k = distinct.len() + extra_k;
        let budget = distinct.iter().map(|&v| costs.cost(v)).sum::<f64>() + extra_budget;

        let view = CoverageView::build(&rc, range.clone());
        let snap = GainSnapshot::build(&view);
        let wsnap = WeightedGainSnapshot::build(&view, &weights);
        // frozen inits select through the snapshots' O(1) views
        let (frozen_view, wview) = (snap.view(&rc), wsnap.view(&rc));
        let mut scratch = GreedyScratch::new();
        let none = SeedConstraints::none();
        let cons = SeedConstraints { forced: &forced, excluded: &excluded };
        let weighted = Weighted { k, weights: &weights };
        let ratio = Ratio { budget, costs: &costs };
        for c in [&none, &cons] {
            let count = view.select(Count { k }, GainInit::Histogram, c, &mut scratch);
            let frozen = frozen_view.select(Count { k }, GainInit::Frozen(&snap), c, &mut scratch);
            prop_assert_eq!(&count, &frozen);
            let fresh = view.select(weighted, GainInit::Histogram, c, &mut scratch);
            let frozen = wview.select(weighted, GainInit::Frozen(&wsnap), c, &mut scratch);
            prop_assert_eq!(&fresh, &frozen);
            let fresh = view.select(ratio, GainInit::Histogram, c, &mut scratch);
            let frozen = frozen_view.select(ratio, GainInit::Frozen(&snap), c, &mut scratch);
            prop_assert_eq!(&fresh, &frozen);

            let unit = Ratio { budget: k as f64, costs: &NodeCosts::Uniform };
            let unit = view.select(unit, GainInit::Frozen(&snap), c, &mut scratch);
            prop_assert!(!unit.single_fallback);
            prop_assert_eq!(
                (unit.seeds, unit.covered, unit.marginal_gains),
                (count.seeds.clone(), count.covered, count.marginal_gains.clone())
            );
        }
        let count = view.select(Count { k }, GainInit::Histogram, &none, &mut scratch);
        let oracle = max_coverage_naive(&rc, k, range.clone(), None);
        prop_assert_eq!(WeightedCoverageResult::from(count), oracle);
        let fresh = view.select(weighted, GainInit::Histogram, &none, &mut scratch);
        prop_assert_eq!(fresh, max_coverage_naive(&rc, k, range, Some(&weights)));
    }

    /// Inverted index ≡ naive rescan: `sets_containing_in` must return
    /// exactly the ids a linear scan of the arena finds, ascending, for
    /// every node and query range, and `coverage_of_range` must count
    /// exactly the rescanned sets — on the sets as one epoch and cut
    /// into random epochs (`seal_die == 0` ends an epoch after its set,
    /// so pools range from one epoch to one epoch per set). Ranges
    /// straddling every epoch boundary are checked too. The drawn range
    /// bounds are unordered: an inverted range is empty and allocates no
    /// scratch.
    #[test]
    fn index_matches_naive_rescan(
        ops in vec((vec(0u32..N, 1..6), 0u32..8), 1..60),
        lo_frac in 0.0f64..=1.0,
        hi_frac in 0.0f64..=1.0,
        seeds in vec(0u32..N, 0..5),
    ) {
        let sets: Vec<Vec<NodeId>> = ops
            .iter()
            .map(|(s, _)| {
                let mut s = s.clone();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        check_against_rescan(&build(&sets), &sets, lo_frac, hi_frac, &seeds)?;
        let mut rc = RrCollection::new(N);
        let mut start = 0;
        for (end, (_, seal_die)) in (1..=sets.len()).zip(&ops) {
            if *seal_die == 0 || end == sets.len() {
                let epoch = rc.append_epoch(&refs(&sets[start..end]), 0);
                prop_assert_eq!(epoch, Some(start as u32..end as u32));
                start = end;
            }
        }
        prop_assert_eq!(rc.len(), sets.len());
        check_against_rescan(&rc, &sets, lo_frac, hi_frac, &seeds)?;
    }
}

/// The [`index_matches_naive_rescan`] oracle for one pool: every node's
/// `sets_containing`, and both queries over the drawn range and over
/// ranges straddling each epoch boundary, against a linear scan of
/// `sets`.
fn check_against_rescan(
    rc: &RrCollection,
    sets: &[Vec<NodeId>],
    lo_frac: f64,
    hi_frac: f64,
    seeds: &[NodeId],
) -> TestCaseResult {
    let total = sets.len() as u32;
    prop_assert_eq!(rc.epoch_boundaries().last().copied(), Some(total));
    let drawn = (f64::from(total) * lo_frac) as u32..(f64::from(total) * hi_frac) as u32;
    let straddling = rc.epoch_boundaries().iter().flat_map(|&b| {
        [b.saturating_sub(2)..b + 2, b.saturating_sub(1)..total, 0..b + 1, b..total + 3]
    });
    let ranges: Vec<std::ops::Range<u32>> =
        std::iter::once(drawn.clone()).chain(straddling).collect();
    let mut scratch = Vec::new();
    for v in 0..N {
        let expect_all: Vec<u32> =
            (0..total).filter(|&id| sets[id as usize].contains(&v)).collect();
        prop_assert_eq!(rc.sets_containing(v).to_vec(), expect_all);
        for range in &ranges {
            let expect: Vec<u32> =
                expect_all.iter().copied().filter(|id| range.contains(id)).collect();
            let got = rc.sets_containing_in(v, range.clone()).to_vec();
            prop_assert_eq!(got, expect, "node {} range {:?}", v, range);
            let covered = rc.coverage_of_range(&[v], range.clone(), &mut scratch);
            prop_assert_eq!(covered, expect.len() as u64, "node {} range {:?}", v, range);
        }
    }
    for range in &ranges {
        let expect_covered = range
            .clone()
            .filter(|&id| id < total && seeds.iter().any(|s| sets[id as usize].contains(s)))
            .count() as u64;
        prop_assert_eq!(rc.coverage_of_range(seeds, range.clone(), &mut scratch), expect_covered);
    }
    let _ = rc.coverage_of_range(seeds, drawn.clone(), &mut scratch);
    prop_assert!(
        drawn.start < drawn.end || scratch.is_empty(),
        "an inverted range allocates nothing"
    );
    Ok(())
}

/// `extend_parallel` at 2 and 8 worker threads must be observably
/// bit-identical to one thread — same sets, same index responses, same
/// accounting — including when growth happens in several increments,
/// each its own epoch (the SSA/D-SSA doubling schedule).
#[test]
fn extend_parallel_bit_identical_across_thread_counts() {
    use sns_diffusion::{Model, RootDist, RrSampler};
    use sns_graph::{gen, WeightModel};

    const STEPS: [(u64, u64); 3] = [(0, 300), (300, 300), (600, 600)];
    let g = gen::erdos_renyi(250, 2000, 9).build(WeightModel::WeightedCascade).unwrap();
    for model in [Model::IndependentCascade, Model::LinearThreshold] {
        let sampler = RrSampler::with_config(&g, model, RootDist::Uniform, 13);
        // grow in doubling increments like the algorithms do
        let grow = |threads: usize| {
            let mut rc = RrCollection::new(250);
            for (from, count) in STEPS {
                rc.extend_parallel(&sampler, from, count, threads);
            }
            rc
        };
        let seq = grow(1);
        assert_eq!(seq.epoch_boundaries(), &[300, 600, 1200]);
        for threads in [2usize, 8] {
            let par = grow(threads);
            assert_eq!(seq.len(), par.len(), "{model}: {threads} threads");
            assert_eq!(seq.total_nodes(), par.total_nodes());
            assert_eq!(seq.total_edges_examined(), par.total_edges_examined());
            assert_eq!(seq.epoch_boundaries(), par.epoch_boundaries());
            assert_eq!(seq.memory_bytes(), par.memory_bytes());
            assert_eq!(seq.seal_entries_sorted(), par.seal_entries_sorted());
            assert_eq!(seq.seal_entries_merged(), par.seal_entries_merged());
            for id in 0..seq.len() {
                assert_eq!(seq.set(id), par.set(id), "{model}: set {id} differs");
            }
            for v in 0..250u32 {
                assert_eq!(
                    seq.sets_containing(v),
                    par.sets_containing(v),
                    "{model}: node {v} index differs at {threads} threads"
                );
            }
        }
    }
}

/// On a 100k-node Barabási–Albert pool, `max_coverage_with` (the entry
/// point SSA, D-SSA, IMM and TIM use, fresh or with a reused scratch) must return
/// **bit-identical** seeds, marginal gains and coverage to the rescan
/// oracle — including on D-SSA-style half ranges and on ranges that
/// cross an epoch boundary.
#[test]
fn greedy_bit_identical_to_rescan_oracle_on_100k_ba_pool() {
    use sns_diffusion::{Model, RootDist, RrSampler};
    use sns_graph::{gen, WeightModel};

    let g = gen::barabasi_albert(100_000, 4, gen::Orientation::RandomSingle, 7)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let sampler = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 3);
    let mut rc = RrCollection::new(g.num_nodes());
    rc.extend_parallel(&sampler, 0, 15_000, 8);
    // A small second epoch, so the ranges below cross a boundary.
    rc.extend_parallel(&sampler, 15_000, 500, 8);
    assert_eq!(rc.epoch_boundaries(), &[15_000, 15_500]);

    let total = rc.len() as u32;
    let mut scratch = GreedyScratch::new();
    for (k, range) in [
        (1, 0..total),
        (50, 0..total),
        (50, 0..total / 2),     // D-SSA find half
        (20, total / 3..total), // nonzero offset
    ] {
        let reference = max_coverage_naive(&rc, k, range.clone(), None);
        let plain = greedy_in(&rc, k, range.clone());
        let reused = max_coverage_with(&rc, k, range.clone(), &mut scratch);
        assert_eq!(WeightedCoverageResult::from(plain.clone()), reference, "k={k} range={range:?}");
        assert_eq!(reused, plain, "k={k} range={range:?} (scratch reuse)");
    }
}

/// Acceptance criterion of the sealed CSR layout: on a 100k-node
/// Barabási–Albert pool the inverted index must cost at most half of
/// what the previous `Vec<Vec<u32>>` layout would (headers + capacity
/// slack measured on an actually-built per-node-Vec index).
#[test]
fn index_memory_halves_vs_per_node_vecs() {
    use sns_diffusion::{Model, RootDist, RrSampler};
    use sns_graph::{gen, WeightModel};

    let g = gen::barabasi_albert(100_000, 4, gen::Orientation::RandomSingle, 7)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let sampler = RrSampler::with_config(&g, Model::IndependentCascade, RootDist::Uniform, 3);
    let mut rc = RrCollection::new(g.num_nodes());
    assert_eq!(rc.extend_parallel(&sampler, 0, 15_000, 8), Some(0..15_000));

    // Rebuild the pre-refactor index layout and measure it exactly.
    let mut node_to_sets: Vec<Vec<u32>> = vec![Vec::new(); g.num_nodes() as usize];
    for id in 0..rc.len() {
        for &v in rc.set(id) {
            node_to_sets[v as usize].push(id as u32);
        }
    }
    let old_bytes: u64 = node_to_sets
        .iter()
        .map(|v| {
            (v.capacity() * std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>()) as u64
        })
        .sum();
    let new_bytes = rc.index_memory_bytes();
    assert!(
        2 * new_bytes <= old_bytes,
        "sealed index {new_bytes} B not ≥2× smaller than Vec<Vec<u32>> {old_bytes} B"
    );
}

//! The engine's greedy prefix memo against the selection kernel.
//!
//! Lazy greedy is prefix-consistent, so the engine answers a top-`k`
//! query (plain, topic-weighted, or a uniform-cost budget) by slicing
//! the deepest selection already served from the same cache entry.
//! These tests hold that shortcut to the kernel, bit for bit:
//!
//! * a property test over random multi-epoch pools, random ranges
//!   (including ranges equal to one epoch, which share the per-epoch
//!   cache entry) and k sequences that ascend, descend, repeat and
//!   exceed the node count — every answer must equal a direct
//!   [`CoverageView::select`] with the query's own objective, including
//!   the queries the memo must not serve (forced or excluded seeds,
//!   per-node costs, one-off weights);
//! * racing fills: concurrent planned batches over the same hot keys at
//!   1, 2 and 8 worker threads, once more under a cache budget small
//!   enough to evict entries (and their memos) mid-stream.

use std::ops::Range;
use std::sync::{Arc, Barrier, OnceLock};

use proptest::prelude::*;
use stop_and_stare::graph::{gen, Graph, WeightModel};
use stop_and_stare::rrset::{
    Count, CoverageView, GainInit, GreedyScratch, Ratio, SeedConstraints, Weighted,
    WeightedCoverageResult,
};
use stop_and_stare::{Model, NodeCosts, SamplingContext, SeedAnswer, SeedQuery, SeedQueryEngine};

const NODES: u32 = 300;

fn graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        gen::erdos_renyi(NODES, 1800, 41).build(WeightModel::WeightedCascade).unwrap()
    })
}

fn context() -> SamplingContext<'static> {
    SamplingContext::new(graph(), Model::IndependentCascade).with_seed(43)
}

/// A fresh engine (empty cache, empty memos) whose pool is sealed in
/// one epoch per entry of `epochs`.
fn engine(epochs: &[u64]) -> SeedQueryEngine {
    let ctx = context();
    let mut e = SeedQueryEngine::sample(&ctx, epochs[0]);
    for &sets in &epochs[1..] {
        e.extend(&ctx, sets);
    }
    e
}

/// Topic weight vectors with non-dyadic fractions, so a covered mass
/// summed in another order than the kernel's shows in the low bits.
fn topic(t: usize) -> Arc<[f64]> {
    static TOPICS: OnceLock<Vec<Arc<[f64]>>> = OnceLock::new();
    TOPICS.get_or_init(|| {
        (0..2u32)
            .map(|t| (0..NODES).map(|v| f64::from((v * (37 + t)) % 101) / 7.0).collect())
            .collect()
    })[t]
        .clone()
}

/// A per-node cost table shared by every per-node-cost query.
fn costs() -> NodeCosts {
    static COSTS: OnceLock<Arc<[f64]>> = OnceLock::new();
    NodeCosts::per_node(
        COSTS.get_or_init(|| (0..NODES).map(|v| 0.5 + f64::from(v % 4) * 0.25).collect()).clone(),
    )
}

/// Query flavors: the first five are memo-eligible, the rest must run
/// the kernel.
const FLAVORS: u32 = 10;

fn query(k: usize, range: Range<u32>, flavor: u32) -> SeedQuery {
    let q = SeedQuery::top_k(k).over_range(range.clone());
    match flavor {
        0 => q,
        1 => SeedQuery::budgeted(k as f64).over_range(range),
        // A fractional budget degenerates to top-⌊B⌋.
        2 => SeedQuery::budgeted(k as f64 + 0.5).over_range(range),
        3 => q.with_root_weights(topic(0)).with_topic(7),
        4 => q.with_root_weights(topic(1)).with_topic(8),
        5 => q.with_forced(vec![(k as u32 * 17) % NODES]),
        6 => q.with_excluded(vec![0, 1, (k as u32 * 29) % NODES]),
        7 => SeedQuery::budgeted(k as f64 * 0.75).with_costs(costs()).over_range(range),
        8 => q.with_root_weights(topic(0).to_vec()),
        _ => q.with_root_weights(topic(1)).with_topic(8).with_forced(vec![5]),
    }
}

/// The kernel's answer: a direct [`CoverageView::select`] with the
/// query's own objective and constraints, shaped like the engine's.
fn kernel_answer(engine: &SeedQueryEngine, q: &SeedQuery) -> SeedAnswer {
    let pool = engine.pool();
    let range = q.range.clone().unwrap_or_else(|| pool.id_range());
    let view = CoverageView::build(&pool, range.clone());
    let c = SeedConstraints { forced: &q.forced, excluded: &q.excluded };
    let scratch = &mut GreedyScratch::new();
    let r: WeightedCoverageResult = match (&q.root_weights, q.budget) {
        (Some(weights), _) => {
            view.select(Weighted { k: q.k, weights }, GainInit::Histogram, &c, scratch)
        }
        (None, Some(budget)) => {
            view.select(Ratio { budget, costs: &q.costs }, GainInit::Histogram, &c, scratch).into()
        }
        (None, None) => view.select(Count { k: q.k }, GainInit::Histogram, &c, scratch).into(),
    };
    let len = f64::from(range.end - range.start);
    let influence_estimate = if len == 0.0 { 0.0 } else { engine.gamma() * r.covered_weight / len };
    SeedAnswer {
        seeds: r.seeds,
        covered: r.covered_weight,
        influence_estimate,
        marginal_gains: r.marginal_gains,
        range,
    }
}

/// Bit-for-bit equality, field by field (`==` on floats would let
/// `-0.0` pass for `0.0`).
fn bits(a: &SeedAnswer) -> (Vec<u32>, u64, u64, Vec<u64>, Range<u32>) {
    (
        a.seeds.clone(),
        a.covered.to_bits(),
        a.influence_estimate.to_bits(),
        a.marginal_gains.iter().map(|g| g.to_bits()).collect(),
        a.range.clone(),
    )
}

/// The ranges a case queries: every single epoch (the per-epoch cache
/// key), the whole pool, a random slice and an empty range.
fn ranges(e: &SeedQueryEngine, cut: (u32, u32)) -> Vec<Range<u32>> {
    let pool = e.pool();
    let len = pool.len() as u32;
    let mut out: Vec<Range<u32>> = pool.epochs().collect();
    out.push(0..len);
    let (a, b) = (cut.0 % (len + 1), cut.1 % (len + 1));
    out.push(a.min(b)..a.max(b));
    out.push(a..a);
    out
}

/// The k sequences every range sees: ascending, descending, repeated,
/// and past the node count.
fn scripted_ks() -> Vec<usize> {
    let n = NODES as usize;
    vec![1, 3, 10, 40, 40, 12, 5, 2, 2, n + 7, 9, n, n - 1, 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn memo_answers_are_bit_identical_to_kernel_answers(
        epochs in prop_vec(150u64..700, 1..5),
        cut in (0u32..100_000, 0u32..100_000),
        steps in prop_vec((1usize..=320, 0u32..FLAVORS), 4..40),
        flavor_shift in 0u32..FLAVORS,
    ) {
        let e = engine(&epochs);
        let ranges = ranges(&e, cut);
        let scripted = scripted_ks();
        for (r, range) in ranges.iter().enumerate() {
            // Every scripted k meets every flavor across the ranges, and
            // the random steps interleave flavors on the same entries.
            let script = scripted.iter().enumerate().map(|(i, &k)| {
                (k, (i as u32 + r as u32 + flavor_shift) % FLAVORS)
            });
            for (k, flavor) in script.chain(steps.iter().copied()) {
                let q = query(k, range.clone(), flavor);
                let got = e.answer(&q).unwrap();
                prop_assert_eq!(
                    bits(&got),
                    bits(&kernel_answer(&e, &q)),
                    "k = {}, flavor {}, range {:?}, epochs {:?}",
                    k,
                    flavor,
                    range,
                    &epochs
                );
                if flavor == 2 {
                    // Uniform budget k + 0.5 is top-k, bit for bit.
                    let topk = kernel_answer(&e, &query(k, range.clone(), 0));
                    prop_assert_eq!(bits(&got), bits(&topk), "budget {} vs top-{}", k, k);
                }
            }
        }
    }
}

/// One batch per hot key mix: top-k, uniform-budget and topic queries
/// over three hot ranges with k in ascending, descending and repeated
/// orders, plus constrained queries on the same keys.
fn hot_batch(len: u32, epoch: Range<u32>, order: usize) -> Vec<SeedQuery> {
    let hot = [0..len, epoch, len / 3..len];
    let mut ks = [10usize, 50, 200, 50, 10, 200, 3];
    let n = ks.len();
    ks.rotate_left(order % n);
    if order % 2 == 1 {
        ks.reverse();
    }
    let mut batch = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        for (j, range) in hot.iter().enumerate() {
            batch.push(query(k, range.clone(), ((i + j + order) % FLAVORS as usize) as u32));
            batch.push(query(k, range.clone(), 0));
        }
    }
    batch
}

/// Concurrent planned batches over the same hot keys — so workers race
/// to fill the same memos — must answer exactly as one thread does,
/// with or without evictions dropping entries and memos mid-stream.
#[test]
fn racing_memo_fills_and_evictions_keep_answers_identical() {
    const EPOCHS: [u64; 3] = [600, 400, 500];
    let reference_engine = engine(&EPOCHS);
    let pool = reference_engine.pool();
    let len = pool.len() as u32;
    let epoch = pool.epochs().nth(1).unwrap();
    let batches: Vec<Vec<SeedQuery>> =
        (0..6).map(|order| hot_batch(len, epoch.clone(), order)).collect();
    // The single-thread reference: every query through the kernel.
    let reference: Vec<Vec<SeedAnswer>> = batches
        .iter()
        .map(|b| b.iter().map(|q| kernel_answer(&reference_engine, q)).collect())
        .collect();
    // A budget that holds one full-range query's entries (its merged
    // snapshot and the epochs it merged) but not the hot set.
    let probe = engine(&EPOCHS);
    probe.answer(&SeedQuery::top_k(1)).unwrap();
    let tight = probe.stats().cached_bytes;
    for threads in [1usize, 2, 8] {
        for budget in [None, Some(tight)] {
            let mut e = engine(&EPOCHS).with_threads(threads);
            if let Some(bytes) = budget {
                e = e.with_cache_budget(bytes);
            }
            for round in 0..2 {
                // Every batch starts at once, so their workers race on
                // the same entries' memos.
                let start = Barrier::new(batches.len());
                std::thread::scope(|scope| {
                    for (b, batch) in batches.iter().enumerate() {
                        let (e, expected, start) = (&e, &reference[b], &start);
                        scope.spawn(move || {
                            start.wait();
                            let got = e.answer_planned(batch).unwrap();
                            assert_eq!(got.len(), expected.len());
                            for (i, (g, x)) in got.iter().zip(expected).enumerate() {
                                assert_eq!(
                                    bits(g),
                                    bits(x),
                                    "threads {threads}, budget {budget:?}, round {round}, \
                                     batch {b}, query {i}"
                                );
                            }
                        });
                    }
                });
            }
            if budget.is_some() {
                assert!(e.stats().evictions > 0, "the tight budget must evict mid-stream");
            }
        }
    }
}

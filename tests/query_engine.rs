//! Integration tests for the frozen-pool seed-query engine: the
//! acceptance contract is bit-identity — every batched answer must equal
//! the corresponding direct selection over the same pool slice — plus
//! thread-count invariance of batch answering, epoch-merge equivalence
//! under pool growth, and the cache policy (LRU eviction under a byte
//! budget, pinned hit/miss/evict counters).

use stop_and_stare::graph::{gen, WeightModel};
use stop_and_stare::rrset::{
    max_coverage_with, Count, CoverageView, GainInit, GreedyScratch, SeedConstraints, Weighted,
};
use stop_and_stare::tvm::TargetWeights;
use stop_and_stare::{Model, SamplingContext, SeedQuery, SeedQueryEngine};

fn fixture_engine(threads: usize) -> SeedQueryEngine {
    let g = gen::rmat(1000, 6000, gen::RmatParams::GRAPH500, 13)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(21);
    SeedQueryEngine::sample(&ctx, 5000).with_threads(threads)
}

/// A heterogeneous batch covering every query axis.
fn mixed_batch(pool_len: u32, weights: &TargetWeights) -> Vec<SeedQuery> {
    vec![
        SeedQuery::top_k(1),
        SeedQuery::top_k(10),
        SeedQuery::top_k(10).over_range(0..pool_len / 2),
        SeedQuery::top_k(7).over_range(pool_len / 4..pool_len),
        SeedQuery::top_k(10).with_excluded(vec![0, 1, 2]),
        SeedQuery::top_k(10).with_forced(vec![5, 6]),
        SeedQuery::top_k(6).over_range(0..pool_len / 2).with_forced(vec![9]).with_excluded(vec![3]),
        weights.seed_query(8),
        weights.seed_query(8).over_range(0..pool_len / 2),
    ]
}

#[test]
fn every_batched_answer_is_bit_identical_to_direct_selection() {
    let engine = fixture_engine(1);
    let pool = engine.pool();
    let pool = &*pool;
    let pool_len = pool.len() as u32;
    let weights = {
        let mut w = vec![0.0f64; pool.num_nodes() as usize];
        for (v, slot) in w.iter_mut().enumerate().take(200) {
            *slot = 1.0 + (v % 3) as f64;
        }
        TargetWeights::from_weights(w).unwrap()
    };
    let batch = mixed_batch(pool_len, &weights);
    let answers = engine.answer_planned(&batch).unwrap();

    let mut scratch = GreedyScratch::new();
    for (query, answer) in batch.iter().zip(&answers) {
        let range = query.range.clone().unwrap_or(0..pool_len);
        assert_eq!(answer.range, range);
        let view = CoverageView::build(pool, range.clone());
        let constraints = SeedConstraints { forced: &query.forced, excluded: &query.excluded };
        match &query.root_weights {
            Some(w) => {
                // direct = fresh per-call weighted selection, no snapshot
                let weighted = Weighted { k: query.k, weights: w };
                let direct = view.select(weighted, GainInit::Histogram, &constraints, &mut scratch);
                assert_eq!(answer.seeds, direct.seeds, "weighted query {query:?}");
                assert_eq!(answer.covered, direct.covered_weight);
                assert_eq!(answer.marginal_gains, direct.marginal_gains);
            }
            None => {
                // direct = fresh per-call histogram selection, no snapshot
                let count = Count { k: query.k };
                let direct = view.select(count, GainInit::Histogram, &constraints, &mut scratch);
                assert_eq!(answer.seeds, direct.seeds, "query {query:?}");
                assert_eq!(answer.covered, direct.covered as f64);
                if query.forced.is_empty() && query.excluded.is_empty() {
                    // and for plain queries, = the public one-shot API
                    let plain = max_coverage_with(pool, query.k, range.clone(), &mut scratch);
                    assert_eq!(answer.seeds, plain.seeds);
                }
            }
        }
    }
}

#[test]
fn batch_answers_do_not_depend_on_thread_count_or_composition() {
    let sequential_engine = fixture_engine(1);
    let weights = TargetWeights::synthetic_topic(
        &gen::rmat(1000, 6000, gen::RmatParams::GRAPH500, 13)
            .build(WeightModel::WeightedCascade)
            .unwrap(),
        0.1,
        1.0,
        5,
    )
    .unwrap();
    let batch = mixed_batch(sequential_engine.pool().len() as u32, &weights);
    let sequential = sequential_engine.answer_planned(&batch).unwrap();
    for threads in [2usize, 8] {
        let parallel = fixture_engine(threads).answer_planned(&batch).unwrap();
        assert_eq!(sequential, parallel, "{threads} worker threads");
    }
    // one-at-a-time answers equal the batch answers (no cross-query state)
    for (query, batched) in batch.iter().zip(&sequential) {
        assert_eq!(&sequential_engine.answer(query).unwrap(), batched);
    }
}

#[test]
fn repeated_queries_hit_the_frozen_snapshot_and_stay_stable() {
    let engine = fixture_engine(2);
    let query = SeedQuery::top_k(15);
    let first = engine.answer(&query).unwrap();
    for _ in 0..10 {
        assert_eq!(engine.answer(&query).unwrap(), first);
    }
    // interleaving other ranges / weighted queries must not disturb it
    engine.answer(&SeedQuery::top_k(3).over_range(10..900)).unwrap();
    let w = TargetWeights::uniform_all(engine.pool().num_nodes());
    engine.answer(&w.seed_query(4)).unwrap();
    assert_eq!(engine.answer(&query).unwrap(), first);
}

/// Acceptance: after N pool extensions, every answer assembled from
/// epoch-merged snapshots is bit-identical to direct `max_coverage_with` on
/// the full pool state, and no extension invalidates a previously frozen
/// epoch (old ranges keep answering as pure cache hits).
#[test]
fn epoch_merged_answers_survive_repeated_growth() {
    let g = gen::rmat(800, 4800, gen::RmatParams::GRAPH500, 17)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(23);
    let mut engine = SeedQueryEngine::sample(&ctx, 1500);
    let epoch0 = engine.answer(&SeedQuery::top_k(6).over_range(0..1500)).unwrap();

    for step in 1..=3u32 {
        engine.extend(&ctx, 1500);
        let len = engine.pool().len() as u32;
        assert_eq!(len, 1500 * (step + 1));
        assert_eq!(engine.pool().epoch_boundaries().len(), (step + 1) as usize);
        // merged full-range answer == direct greedy on the same state
        let merged = engine.answer(&SeedQuery::top_k(6)).unwrap();
        let direct = max_coverage_with(&engine.pool(), 6, 0..len, &mut GreedyScratch::new());
        assert_eq!(merged.seeds, direct.seeds, "step {step}");
        assert_eq!(merged.covered, direct.covered as f64);
        // unaligned range spanning several epochs, also bit-identical
        let odd = 700..len - 300;
        let ranged = engine.answer(&SeedQuery::top_k(5).over_range(odd.clone())).unwrap();
        let direct = max_coverage_with(&engine.pool(), 5, odd, &mut GreedyScratch::new());
        assert_eq!(ranged.seeds, direct.seeds);
    }
    // per-epoch snapshots frozen exactly once each: 3 growth epochs (the
    // first epoch's snapshot came from the pre-growth direct query)
    let stats = engine.stats();
    assert_eq!(stats.epochs_frozen, 3, "{stats:?}");
    assert_eq!(stats.evictions, 0);
    // the very first frozen range still serves untouched
    let again = engine.answer(&SeedQuery::top_k(6).over_range(0..1500)).unwrap();
    assert_eq!(again, epoch0);
}

/// The cache policy under a budget too small for two snapshots: every
/// insertion evicts the other entry, and the counters pin the exact
/// hit/miss/evict sequence.
#[test]
fn tight_budget_evicts_lru_and_counts() {
    let g = gen::erdos_renyi(400, 2400, 31).build(WeightModel::WeightedCascade).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(31);
    let pool_snapshot_bytes = {
        // measure one snapshot to size a budget that fits exactly one
        let probe = SeedQueryEngine::sample(&ctx, 1200);
        probe.answer(&SeedQuery::top_k(2).over_range(0..600)).unwrap();
        probe.stats().cached_bytes
    };
    let engine = SeedQueryEngine::sample(&ctx, 1200).with_cache_budget(pool_snapshot_bytes * 3 / 2);

    let a = SeedQuery::top_k(2).over_range(0..600);
    let b = SeedQuery::top_k(2).over_range(600..1200);
    let first_a = engine.answer(&a).unwrap(); // miss, insert A
    let first_b = engine.answer(&b).unwrap(); // miss, insert B, evict A
    assert_eq!(engine.answer(&a).unwrap(), first_a); // miss again (A evicted), evict B
    assert_eq!(engine.answer(&a).unwrap(), first_a); // hit
    assert_eq!(engine.answer(&b).unwrap(), first_b); // miss, evict A
    let s = engine.stats();
    assert_eq!((s.snapshot_hits, s.snapshot_misses, s.evictions), (1, 4, 3), "{s:?}");
    assert!(s.cached_bytes <= s.budget_bytes, "{s:?}");
}

/// Repeated queries on one topic build the weighted gain snapshot once;
/// a different topic (same shape, different identity) builds its own.
#[test]
fn topic_keyed_weighted_snapshots_are_reused() {
    let engine = fixture_engine(1);
    let n = engine.pool().num_nodes();
    let topic_a = TargetWeights::synthetic_topic(
        &gen::rmat(1000, 6000, gen::RmatParams::GRAPH500, 13)
            .build(WeightModel::WeightedCascade)
            .unwrap(),
        0.1,
        1.0,
        5,
    )
    .unwrap();
    let topic_b = TargetWeights::uniform_all(n);

    let first = engine.answer(&topic_a.seed_query(6)).unwrap();
    for _ in 0..4 {
        assert_eq!(engine.answer(&topic_a.seed_query(6)).unwrap(), first);
    }
    let s = engine.stats();
    assert_eq!((s.weighted_hits, s.weighted_misses), (4, 1), "{s:?}");
    // frozen-topic answers equal the uncached weighted path
    let uncached =
        engine.answer(&SeedQuery::top_k(6).with_root_weights(topic_a.weights().to_vec())).unwrap();
    assert_eq!(first, uncached);
    let s = engine.stats();
    assert_eq!((s.weighted_hits, s.weighted_misses), (4, 1), "no-topic queries bypass the cache");

    engine.answer(&topic_b.seed_query(6)).unwrap();
    engine.answer(&topic_b.seed_query(6)).unwrap();
    let s = engine.stats();
    assert_eq!((s.weighted_hits, s.weighted_misses), (5, 2), "{s:?}");
}

#[test]
fn uniform_weighted_query_agrees_with_unweighted_ranking() {
    // b ≡ 1 makes the weighted objective the plain covered count, so the
    // seeds and (scaled) estimates must coincide.
    let engine = fixture_engine(1);
    let w = TargetWeights::uniform_all(engine.pool().num_nodes());
    let weighted = engine.answer(&w.seed_query(10)).unwrap();
    let plain = engine.answer(&SeedQuery::top_k(10)).unwrap();
    assert_eq!(weighted.seeds, plain.seeds);
    assert!((weighted.covered - plain.covered).abs() < 1e-6);
}

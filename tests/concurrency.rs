//! Grow-while-serving linearizability: queries racing the single-writer
//! [`Grower`](stop_and_stare::Grower) must each be answered
//! bit-identically to a direct query against *some* sealed prefix of the
//! final pool, and a store save racing a concurrent seal must persist a
//! valid sealed prefix. The thread count is overridable with
//! `SNS_CONCURRENCY_THREADS` so CI can pin the 1/2/8 matrix; the
//! answers themselves must not depend on it.

use std::collections::BTreeSet;
use std::sync::mpsc;

use stop_and_stare::graph::{gen, WeightModel};
use stop_and_stare::{Model, SamplingContext, SeedQuery, SeedQueryEngine};

const INITIAL: u64 = 800;
const GROW_STEPS: u64 = 4;
const GROW_SETS: u64 = 400;
const WORKERS: usize = 3;
const QUERIES_PER_WORKER: usize = 12;

/// Thread counts to exercise: the CI matrix pins one via the env var;
/// local runs sweep the single-threaded and parallel engines.
fn thread_counts() -> Vec<usize> {
    match std::env::var("SNS_CONCURRENCY_THREADS") {
        Ok(v) => vec![v.parse().expect("SNS_CONCURRENCY_THREADS must be a thread count")],
        Err(_) => vec![1, 4],
    }
}

fn fixture(seed: u64) -> stop_and_stare::Graph {
    gen::rmat(900, 5400, gen::RmatParams::GRAPH500, seed)
        .build(WeightModel::WeightedCascade)
        .unwrap()
}

/// Interleaves `Grower::extend` with concurrent queries and checks every
/// answer against a direct query on the one-shot reference engine over
/// the same sealed prefix.
#[test]
fn concurrent_answers_are_bit_identical_to_a_sealed_prefix() {
    for threads in thread_counts() {
        for seed in [21u64, 22] {
            let g = fixture(seed);
            let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(seed);
            let engine = SeedQueryEngine::sample(&ctx, INITIAL).with_threads(threads);

            // The only pool lengths the directory ever publishes.
            let sealed: BTreeSet<u32> = (0..=GROW_STEPS)
                .map(|s| u32::try_from(INITIAL + s * GROW_SETS).expect("test pools fit u32"))
                .collect();

            let (done_tx, done_rx) = mpsc::channel::<()>();
            let collected: Vec<Vec<stop_and_stare::SeedAnswer>> = std::thread::scope(|scope| {
                let engine_ref = &engine;
                let ctx_ref = &ctx;
                scope.spawn(move || {
                    for _ in 0..GROW_STEPS {
                        let outcome = engine_ref.grower().extend(ctx_ref, GROW_SETS);
                        assert!(outcome.epoch().is_some(), "growth must publish");
                    }
                    drop(done_tx);
                });
                let workers: Vec<_> = (0..WORKERS)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut answers = Vec::new();
                            let mut last_end = 0u32;
                            for i in 0..QUERIES_PER_WORKER {
                                let k = 1 + (w + i) % 8;
                                let answer = engine_ref.answer(&SeedQuery::top_k(k)).unwrap();
                                // Generations only move forward, so each
                                // worker's pinned prefix is monotone.
                                assert!(answer.range.end >= last_end, "prefix went backwards");
                                last_end = answer.range.end;
                                answers.push(answer);
                            }
                            answers
                        })
                    })
                    .collect();
                // Keep at least one query in flight after the last
                // publish so the final generation is also exercised.
                let _ = done_rx.recv();
                let tail = engine_ref.answer(&SeedQuery::top_k(5)).unwrap();
                let mut collected: Vec<_> =
                    workers.into_iter().map(|w| w.join().expect("worker panicked")).collect();
                collected.push(vec![tail]);
                collected
            });

            // Reference: the same context sampled to the final size in
            // one shot — prefix determinism makes its first L sets
            // bit-identical to every sealed prefix the workers pinned.
            let final_len = INITIAL + GROW_STEPS * GROW_SETS;
            assert_eq!(engine.pool().len() as u64, final_len);
            let reference = SeedQueryEngine::sample(&ctx, final_len).with_threads(threads);
            for (w, answers) in collected.iter().enumerate() {
                for (i, answer) in answers.iter().enumerate() {
                    assert!(
                        sealed.contains(&answer.range.end),
                        "worker {w} query {i} pinned unsealed prefix {:?} (threads {threads})",
                        answer.range
                    );
                    let k = answer.seeds.len().max(1);
                    let direct = reference
                        .answer(&SeedQuery::top_k(k).over_range(0..answer.range.end))
                        .unwrap();
                    assert_eq!(
                        answer, &direct,
                        "worker {w} query {i} diverged from its sealed prefix \
                         (threads {threads}, seed {seed})"
                    );
                }
            }
        }
    }
}

/// A store save racing a concurrent seal must persist one of the sealed
/// generations — never a torn pool — and the persisted prefix must
/// reload and answer bit-identically to the reference.
#[test]
fn store_save_racing_a_concurrent_seal_persists_a_sealed_prefix() {
    let threads = thread_counts()[0];
    let seed = 27u64;
    let g = fixture(seed);
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(seed);
    let engine = SeedQueryEngine::sample(&ctx, INITIAL).with_threads(threads);

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("concurrent-save-{threads}"));
    std::fs::create_dir_all(&dir).expect("create store dir");

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let ctx_ref = &ctx;
        let grow = scope.spawn(move || {
            for _ in 0..2 {
                engine_ref.grower().extend(ctx_ref, GROW_SETS);
            }
        });
        // The save pins whatever generation is current when it starts;
        // concurrent publishes must not tear it.
        engine.save(&dir).expect("save during concurrent growth");
        grow.join().expect("grower panicked");
    });

    let loaded = SeedQueryEngine::from_store(&dir, &ctx).expect("reload persisted pool");
    let loaded_len = loaded.pool().len() as u64;
    let sealed: BTreeSet<u64> = (0..=2).map(|s| INITIAL + s * GROW_SETS).collect();
    assert!(sealed.contains(&loaded_len), "persisted a torn pool of {loaded_len} sets");

    let reference = SeedQueryEngine::sample(&ctx, loaded_len).with_threads(threads);
    let restored = loaded.answer(&SeedQuery::top_k(8)).unwrap();
    let direct = reference.answer(&SeedQuery::top_k(8)).unwrap();
    assert_eq!(restored, direct, "persisted prefix diverged from the reference");
}

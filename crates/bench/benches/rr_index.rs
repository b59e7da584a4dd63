//! Inverted-index ablation: the sealed CSR index vs the pre-refactor
//! per-node `Vec<Vec<u32>>` layout.
//!
//! Measures (a) index **build** cost — a grower-sized seal (clone a
//! sealed 60k-set pool carrying a 1k-set unsealed tail, then seal it)
//! at 1/2/4 worker threads (`seal/t`), a clone-only row to subtract, and
//! the per-node push loop the old merge path used over all 60k sets —
//! and (b) `sets_containing_in` **lookup** latency over a fully sealed
//! pool (`sealed`), the same pool plus a 2k-set tail read before any
//! seal (`unsealed-tail`: the tail is found by scanning its arena slice,
//! the cost of reading before a seal), and the old layout.
//!
//! Besides the human-readable criterion output, results are written as
//! machine-readable JSON to `BENCH_rr_index.json` in the workspace root
//! (schema: `{"benchmarks": [{"name", "mean_ns", "min_ns", "max_ns",
//! "iters"}]}`).

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};

use sns_graph::NodeId;
use sns_rrset::RrCollection;

#[path = "support/mod.rs"]
mod support;

use support::{NODES, SETS};

/// Sets appended after the bulk load, and left unsealed, in the
/// `unsealed-tail` lookup scenario.
const TAIL_SETS: u64 = 2_000;

/// Unsealed sets each timed seal indexes: one grower-sized epoch.
const SEAL_TAIL_SETS: u64 = 1_000;

/// The pre-refactor layout, rebuilt here as the ablation baseline.
fn build_per_node_vecs(pool: &RrCollection) -> Vec<Vec<u32>> {
    let mut node_to_sets: Vec<Vec<u32>> = vec![Vec::new(); pool.num_nodes() as usize];
    for id in 0..pool.len() {
        for &v in pool.set(id) {
            node_to_sets[v as usize].push(id as u32);
        }
    }
    node_to_sets
}

fn bench_index_build(c: &mut Criterion, pool: &RrCollection) {
    // The sealed pool plus an unsealed 1k-set tail. Every timed
    // iteration clones it and seals the clone, so each seal indexes real
    // new sets; the clone-only row is the part to subtract.
    let g = support::ba_graph();
    let mut grown = pool.clone();
    grown.extend_parallel(&support::ic_sampler(&g), SETS, SEAL_TAIL_SETS, 1);
    assert_eq!(grown.pending_sets() as u64, SEAL_TAIL_SETS, "the tail must stay unsealed");

    let mut group = c.benchmark_group("rr_index_build_60k_sets");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("clone-only"), &grown, |b, p| {
        b.iter(|| p.clone().len())
    });
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("seal", threads), &threads, |b, &t| {
            b.iter(|| {
                let mut p = grown.clone();
                let _ = p.seal_parallel(t);
                p.sealed_sets()
            })
        });
    }
    group.bench_with_input(BenchmarkId::new("per-node-vecs", 1), pool, |b, pool| {
        b.iter(|| build_per_node_vecs(pool).len())
    });
    group.finish();
}

/// One deterministic pseudo-random lookup workload: `sets_containing_in`
/// over a sliding id window for a stride of nodes, summing list lengths.
fn lookup_workload(pool: &RrCollection) -> u64 {
    let total = pool.len() as u32;
    let mut acc = 0u64;
    let mut v: NodeId = 1;
    for i in 0..10_000u32 {
        let lo = (i.wrapping_mul(2654435761)) % total.saturating_sub(1).max(1);
        let hi = (lo + total / 4).min(total);
        acc += pool.sets_containing_in(v, lo..hi).len() as u64;
        v = (v.wrapping_mul(48271)) % NODES;
    }
    acc
}

fn lookup_workload_old(index: &[Vec<u32>], total: u32) -> u64 {
    let mut acc = 0u64;
    let mut v: NodeId = 1;
    for i in 0..10_000u32 {
        let lo = (i.wrapping_mul(2654435761)) % total.saturating_sub(1).max(1);
        let hi = (lo + total / 4).min(total);
        let list = &index[v as usize];
        let a = list.partition_point(|&id| id < lo);
        let b = list.partition_point(|&id| id < hi);
        acc += (b - a) as u64;
        v = (v.wrapping_mul(48271)) % NODES;
    }
    acc
}

fn bench_lookup(c: &mut Criterion, pool: &RrCollection) {
    // Fully sealed pool.
    let sealed = pool.clone();
    assert_eq!(sealed.pending_sets(), 0);

    // The same sets plus an unsealed tail, read through the tail scan.
    let g = support::ba_graph();
    let mut tail = pool.clone();
    tail.extend_parallel(&support::ic_sampler(&g), SETS, TAIL_SETS, 1);
    assert_eq!(tail.pending_sets() as u64, TAIL_SETS, "the tail must stay unsealed");

    let old = build_per_node_vecs(&sealed);

    let mut group = c.benchmark_group("rr_index_lookup_10k_queries");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::from_parameter("sealed"), &sealed, |b, p| {
        b.iter(|| lookup_workload(p))
    });
    group.bench_with_input(BenchmarkId::from_parameter("unsealed-tail"), &tail, |b, p| {
        b.iter(|| lookup_workload(p))
    });
    group.bench_with_input(BenchmarkId::from_parameter("per-node-vecs"), &old, |b, old| {
        b.iter(|| lookup_workload_old(old, SETS as u32))
    });
    group.finish();

    // Memory footprint comparison is deterministic — report it once.
    let old_bytes: u64 = old
        .iter()
        .map(|v| {
            (v.capacity() * std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>()) as u64
        })
        .sum();
    println!(
        "index memory: sealed CSR {} B vs per-node-vecs {} B ({:.2}x)",
        sealed.index_memory_bytes(),
        old_bytes,
        old_bytes as f64 / sealed.index_memory_bytes() as f64
    );
}

fn main() {
    // `cargo bench -p sns-bench -- --test` (the CI bench-smoke job):
    // pool build and one iteration of every routine still execute,
    // unmeasured; only the measurement loop and the JSON snapshot are
    // skipped.
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        println!("rr_index: --test run, one unmeasured iteration per bench");
    }
    let mut c = Criterion::default().test_mode(test_mode);
    let pool = support::ba_pool();
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "host cores: {cores} (multi-thread seal variants only help beyond 1 core; \
         each worker streams the unsealed tail, so expect some overhead otherwise)"
    );
    println!(
        "pool: {} sets, {} entries, sealed {} / unsealed {}, index {} B",
        pool.len(),
        pool.total_nodes(),
        pool.sealed_sets(),
        pool.pending_sets(),
        pool.index_memory_bytes()
    );
    bench_index_build(&mut c, &pool);
    bench_lookup(&mut c, &pool);
    if !test_mode {
        support::write_bench_json(&c, "BENCH_rr_index.json");
    }
}

//! Inverted-index ablation: the sealed CSR index vs the pre-refactor
//! per-node `Vec<Vec<u32>>` layout.
//!
//! Measures (a) index **build** cost — a grower-sized growth (clone the
//! sealed 60k-set pool, then one `extend_parallel` of 1k sets, which
//! samples them and seals them as one epoch into the recent index tier)
//! at 1/2/4 worker threads (`clone-grow-1k/t`), a clone-only row to
//! subtract, and the per-node push loop the old merge path used over all
//! 60k sets — and (b) `sets_containing_in` **lookup** latency over the
//! sealed one-tier pool (`sealed`), over the same sets sealed as a 48k
//! base plus a 12k recent tier (`two-tier`), and over the old layout.
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

/// Sets each timed growth samples and seals: one grower-sized epoch.
const GROW_SETS: u64 = 1_000;

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
    // Every timed growth clones the sealed pool and grows the clone by
    // one 1k-set epoch, so each seal indexes real new sets; the
    // clone-only row is the part to subtract.
    let g = support::ba_graph();
    let sampler = support::ic_sampler(&g);

    let mut group = c.benchmark_group("rr_index_build_60k_sets");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("clone-only"), pool, |b, p| {
        b.iter(|| p.clone().len())
    });
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("clone-grow-1k", threads), &threads, |b, &t| {
            b.iter(|| {
                let mut p = pool.clone();
                p.extend_parallel(&sampler, SETS, GROW_SETS, t);
                p.len()
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

fn bench_lookup(c: &mut Criterion, sealed: &RrCollection) {
    let old = build_per_node_vecs(sealed);
    // The same 60k sets, grown by 48k then 12k: 12k is not past a quarter
    // of the 48k base, so the second seal builds a recent tier.
    let g = support::ba_graph();
    let sampler = support::ic_sampler(&g);
    let mut two_tier = RrCollection::new(NODES);
    two_tier.extend_parallel(&sampler, 0, SETS * 4 / 5, 8);
    two_tier.extend_parallel(&sampler, SETS * 4 / 5, SETS / 5, 8);
    assert_eq!(lookup_workload(&two_tier), lookup_workload(sealed), "same sets, same answers");

    let mut group = c.benchmark_group("rr_index_lookup_10k_queries");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::from_parameter("sealed"), sealed, |b, p| {
        b.iter(|| lookup_workload(p))
    });
    group.bench_with_input(BenchmarkId::from_parameter("two-tier"), &two_tier, |b, p| {
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
        "host cores: {cores} (multi-thread growth variants only help beyond 1 core; \
         seal workers are clamped to the cores)"
    );
    println!(
        "pool: {} sets, {} entries, {} epochs, index {} B",
        pool.len(),
        pool.total_nodes(),
        pool.epoch_boundaries().len(),
        pool.index_memory_bytes()
    );
    bench_index_build(&mut c, &pool);
    bench_lookup(&mut c, &pool);
    if !test_mode {
        support::write_bench_json(&c, "BENCH_rr_index.json");
    }
}

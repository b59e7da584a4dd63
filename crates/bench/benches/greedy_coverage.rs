//! Greedy Max-Coverage on the CSR-transposed coverage view
//! (`CoverageView` + `GreedyScratch`).
//!
//! Measures, on a 100k-node Barabási–Albert pool, (a) end-to-end
//! selection (`max_coverage_with`, which builds the view and selects)
//! over the full pool and over a D-SSA-style half range; (b) the view
//! **build** cost alone (offset rebase only — member data is borrowed
//! zero-copy); and (c) repeated selection on one prebuilt view — the
//! regime where the coverage subsystem amortizes its snapshot.
//!
//! Besides the human-readable criterion output, results are written as
//! machine-readable JSON to `BENCH_greedy.json` in the workspace root
//! (schema: `{"benchmarks": [{"name", "mean_ns", "min_ns", "max_ns",
//! "iters"}]}`), mirroring `BENCH_rr_index.json`.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};

use sns_rrset::{
    max_coverage_with, Count, CoverageView, GainInit, GreedyScratch, RrCollection, SeedConstraints,
};

#[path = "support/mod.rs"]
mod support;

const K: usize = 50;

fn bench_selection(c: &mut Criterion, pool: &RrCollection) {
    let total = pool.len() as u32;
    let mut group = c.benchmark_group("greedy_coverage_k50");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for (label, range) in [("full", 0..total), ("half", 0..total / 2)] {
        let mut scratch = GreedyScratch::new();
        group.bench_with_input(BenchmarkId::new("view", label), pool, |b, pool| {
            b.iter(|| max_coverage_with(pool, K, range.clone(), &mut scratch).covered)
        });
        group.bench_with_input(BenchmarkId::new("view-build-only", label), pool, |b, pool| {
            b.iter(|| CoverageView::build(pool, range.clone()).len())
        });
    }
    // Repeated selection on one prebuilt snapshot (frozen-pool regime).
    let view = CoverageView::build(pool, 0..total);
    let mut scratch = GreedyScratch::new();
    group.bench_with_input(BenchmarkId::new("select-on-prebuilt-view", "full"), &view, |b, v| {
        let none = SeedConstraints::none();
        b.iter(|| v.select(Count { k: K }, GainInit::Histogram, &none, &mut scratch).covered)
    });
    group.finish();

    println!(
        "view memory (full range): {} B for {} entries ({} sets); pool index {} B",
        view.memory_bytes(),
        pool.total_nodes(),
        pool.len(),
        pool.index_memory_bytes()
    );
}

fn main() {
    // `cargo bench -p sns-bench -- --test` (the CI bench-smoke job):
    // everything below — pool build, bit-identity asserts, one iteration
    // of every routine — still executes, unmeasured, so panicking setup
    // or bit-rotted bench code fails the job; only the measurement loop
    // and the JSON snapshot are skipped.
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        println!("greedy_coverage: --test run, one unmeasured iteration per bench");
    }
    let mut c = Criterion::default().test_mode(test_mode);
    let pool = support::ba_pool();
    println!(
        "pool: {} sets, {} entries, {} epochs",
        pool.len(),
        pool.total_nodes(),
        pool.epoch_boundaries().len()
    );
    bench_selection(&mut c, &pool);
    if !test_mode {
        support::write_bench_json(&c, "BENCH_greedy.json");
    }
}

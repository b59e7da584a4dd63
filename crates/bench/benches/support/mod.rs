//! Helpers shared by the hand-rolled bench mains (`rr_index`,
//! `greedy_coverage`): the common 100k-node Barabási–Albert workload and
//! the machine-readable JSON snapshot writer. Kept as a bench-side
//! module (each bench target compiles it in via `#[path]`) because the
//! `sns-bench` lib cannot depend on the dev-only criterion shim.
#![allow(dead_code)] // each bench uses its own subset of these helpers

use criterion::Criterion;
use sns_diffusion::{Model, RootDist, RrSampler};
use sns_graph::{gen, Graph, WeightModel};
use sns_rrset::RrCollection;

/// Nodes of the shared Barabási–Albert benchmark graph.
pub const NODES: u32 = 100_000;
/// RR sets sampled into the shared benchmark pool.
pub const SETS: u64 = 60_000;

/// The shared benchmark graph: 100k-node BA, m = 4, weighted cascade.
pub fn ba_graph() -> Graph {
    gen::barabasi_albert(NODES, 4, gen::Orientation::RandomSingle, 7)
        .build(WeightModel::WeightedCascade)
        .unwrap()
}

/// The shared deterministic IC sampler over `g`.
pub fn ic_sampler(g: &Graph) -> RrSampler<'_> {
    RrSampler::with_config(g, Model::IndependentCascade, RootDist::Uniform, 3)
}

/// The shared benchmark pool: [`SETS`] sets of [`ic_sampler`] over
/// [`ba_graph`], sealed as one epoch (bit-identical regardless of
/// worker count).
pub fn ba_pool() -> RrCollection {
    let g = ba_graph();
    let sampler = ic_sampler(&g);
    let mut pool = RrCollection::new(NODES);
    pool.extend_parallel(&sampler, 0, SETS, 8);
    pool
}

/// Writes the recorded measurements as machine-readable JSON to
/// `file_name` in the workspace root (schema: `{"benchmarks": [{"name",
/// "mean_ns", "min_ns", "max_ns", "iters"}], "host_cores"}` — shared by
/// every `BENCH_*.json` snapshot).
pub fn write_bench_json(c: &Criterion, file_name: &str) {
    write_bench_json_with_counters(c, file_name, &[]);
}

/// First-class serving figures of one traffic-simulator run, written as
/// the `"serving"` object of a `BENCH_*.json` snapshot: wall-clock
/// p50/p99 service latency and throughput. Host-dependent by nature —
/// `bench_diff` never gates them (the deterministic half of the
/// simulator's output lives in `"counters"` as `traffic_sim_*`).
pub struct ServingSummary {
    /// Median wall-clock service latency per served query, ns.
    pub p50_service_ns: u64,
    /// 99th-percentile wall-clock service latency per served query, ns.
    pub p99_service_ns: u64,
    /// Served queries per second of engine service time.
    pub queries_per_sec: f64,
    /// Total queries served by the simulated front end.
    pub served: u64,
}

/// [`write_bench_json`] with an extra `"counters"` object of named
/// deterministic integers (e.g. algorithm sample counts) appended after
/// the timing entries. Unlike the nanosecond fields, counters are
/// machine-independent, so `bench_diff` (the warn-only CI check) can
/// compare them exactly against the checked-in baselines under
/// `results/bench_baselines/`.
pub fn write_bench_json_with_counters(c: &Criterion, file_name: &str, counters: &[(&str, u64)]) {
    write_bench_json_full(c, file_name, counters, None);
}

/// [`write_bench_json_with_counters`] plus an optional `"serving"`
/// object ([`ServingSummary`]). The serving object is written *after*
/// `"counters"` — `bench_diff` parses counters line-by-line up to the
/// first closing brace, so report-only latency fields must never appear
/// inside that section.
pub fn write_bench_json_full(
    c: &Criterion,
    file_name: &str,
    counters: &[(&str, u64)],
    serving: Option<&ServingSummary>,
) {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let path = std::path::Path::new(manifest)
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join(file_name);
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in c.results.iter().enumerate() {
        let sep = if i + 1 == c.results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"max_ns\": {:.0}, \"iters\": {}}}{}\n",
            r.name, r.mean_ns, r.min_ns, r.max_ns, r.iters, sep
        ));
    }
    out.push_str("  ],\n");
    if !counters.is_empty() {
        out.push_str("  \"counters\": {\n");
        for (i, (name, value)) in counters.iter().enumerate() {
            let sep = if i + 1 == counters.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {value}{sep}\n"));
        }
        out.push_str("  },\n");
    }
    if let Some(s) = serving {
        out.push_str("  \"serving\": {\n");
        out.push_str(&format!("    \"p50_service_ns\": {},\n", s.p50_service_ns));
        out.push_str(&format!("    \"p99_service_ns\": {},\n", s.p99_service_ns));
        out.push_str(&format!("    \"queries_per_sec\": {:.1},\n", s.queries_per_sec));
        out.push_str(&format!("    \"served\": {}\n", s.served));
        out.push_str("  },\n");
    }
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    out.push_str(&format!("  \"host_cores\": {cores}\n}}\n"));
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    println!("wrote {}", path.display());
}

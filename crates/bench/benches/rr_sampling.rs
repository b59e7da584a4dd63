//! RR-set generation throughput — the dominant cost of every RIS
//! algorithm (IC reverse BFS vs LT reverse walk, by graph family) — plus
//! one Estimate-Inf run, whose sets stop at the first seed they reach.
//!
//! Besides the human-readable criterion output, results are written as
//! machine-readable JSON to `BENCH_rr_sampling.json` in the workspace
//! root (schema: `{"benchmarks": [{"name", "mean_ns", "min_ns",
//! "max_ns", "iters"}]}`), mirroring `BENCH_rr_index.json`.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};

use sns_core::{estimate_inf, EstimateInfOutcome};
use sns_diffusion::{Model, RootDist, RrSampler};
use sns_graph::{gen, Graph, NodeId, WeightModel};

#[path = "support/mod.rs"]
mod support;

/// Seeds of the Estimate-Inf row: the highest out-degree nodes.
const SEEDS: usize = 100;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "rmat-10k",
            gen::rmat(10_000, 60_000, gen::RmatParams::GRAPH500, 7)
                .build(WeightModel::WeightedCascade)
                .unwrap(),
        ),
        (
            "er-10k",
            gen::erdos_renyi(10_000, 60_000, 7).build(WeightModel::WeightedCascade).unwrap(),
        ),
        (
            "ba-10k",
            gen::barabasi_albert(10_000, 6, gen::Orientation::RandomSingle, 7)
                .build(WeightModel::WeightedCascade)
                .unwrap(),
        ),
    ]
}

fn bench_rr_sampling(c: &mut Criterion, graphs: &[(&'static str, Graph)]) {
    let mut group = c.benchmark_group("rr_sampling_1k_sets");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(20);
    for (name, g) in graphs {
        for model in [Model::LinearThreshold, Model::IndependentCascade] {
            group.bench_with_input(BenchmarkId::new(model.short_name(), name), g, |b, g| {
                let mut sampler = RrSampler::new(g, model);
                let mut rr = Vec::new();
                let mut index = 0u64;
                b.iter(|| {
                    let mut total = 0usize;
                    for _ in 0..1000 {
                        sampler.sample(index, &mut rr);
                        index += 1;
                        total += rr.len();
                    }
                    total
                });
            });
        }
    }
    group.finish();
}

/// One Estimate-Inf call (ε' = 0.1, δ' = 0.01, IC) for the [`SEEDS`]
/// highest out-degree nodes of `g`.
fn bench_estimate_inf(c: &mut Criterion, name: &str, g: &Graph) {
    let mut seeds: Vec<NodeId> = (0..g.num_nodes()).collect();
    seeds.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
    seeds.truncate(SEEDS);
    let sampler = RrSampler::with_config(g, Model::IndependentCascade, RootDist::Uniform, 3);
    let run = || {
        let n = f64::from(g.num_nodes());
        estimate_inf(&mut sampler.clone(), &seeds, 0.1, 0.01, 1_000_000, n)
    };
    let EstimateInfOutcome { influence, samples_used, edges_examined } = run();
    println!(
        "estimate_inf/{name}: top-{SEEDS} seeds, influence {influence:?}, {samples_used} sets, \
         {edges_examined} edges examined"
    );
    let mut group = c.benchmark_group("estimate_inf");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("ic-top100", name), |b| b.iter(|| run().samples_used));
    group.finish();
}

fn main() {
    // `cargo bench -p sns-bench -- --test` (the CI bench-smoke job): one
    // unmeasured iteration per bench and no JSON snapshot.
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        println!("rr_sampling: --test run, one unmeasured iteration per bench");
    }
    let mut c = Criterion::default().test_mode(test_mode);
    let graphs = graphs();
    bench_rr_sampling(&mut c, &graphs);
    let (name, g) = &graphs[0];
    bench_estimate_inf(&mut c, name, g);
    if !test_mode {
        support::write_bench_json(&c, "BENCH_rr_sampling.json");
    }
}

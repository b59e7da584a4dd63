//! Three ablations: SSA ε-preset sensitivity (§4.2 of the paper), uniform
//! vs weighted (alias-table) root sampling, and sequential vs
//! multi-threaded pool growth (sampling plus the seal that ends every
//! growth).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sns_core::{Params, SamplingContext, Ssa, SsaEpsilons};
use sns_diffusion::{Model, RootDist, RrSampler};
use sns_graph::{gen, WeightModel};
use sns_rrset::RrCollection;

/// SSA with different ε splits: the paper's recommended setting vs an
/// "equal split" vs a verification-heavy split (large ε₁).
fn bench_ssa_epsilon_presets(c: &mut Criterion) {
    let g = gen::rmat(5_000, 30_000, gen::RmatParams::GRAPH500, 11)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let eps = 0.2;
    let params = Params::new(50, eps, 1.0 / 5000.0).unwrap();
    let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(5);

    let presets: Vec<(&str, SsaEpsilons)> = vec![
        ("recommended", SsaEpsilons::recommended(eps)),
        // all three errors equal (solving Eq. 18 with e1 = e2 = e3)
        ("equal-split", SsaEpsilons { e1: 0.105, e2: 0.105, e3: 0.105 }),
        // verification-tolerant: large e1, tight e2/e3 (the paper's
        // "large networks" regime)
        ("large-e1", SsaEpsilons { e1: 0.24, e2: 0.055, e3: 0.055 }),
    ];
    let mut group = c.benchmark_group("ssa_epsilon_presets");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for (name, split) in presets {
        split.validate(eps).expect("preset must satisfy Eq. 18");
        let ssa = Ssa::with_epsilons(params, split).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &ctx, |b, ctx| {
            b.iter(|| ssa.run(ctx).unwrap().rr_sets_total())
        });
    }
    group.finish();
}

/// Root sampling: uniform `gen_range` vs alias-table draws (the WRIS
/// overhead TVM pays per sample).
fn bench_root_sampling(c: &mut Criterion) {
    let g = gen::rmat(20_000, 120_000, gen::RmatParams::GRAPH500, 3)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let weights: Vec<f64> = (0..20_000).map(|v| 1.0 + f64::from(v % 7)).collect();
    let mut group = c.benchmark_group("root_sampling_1k_sets");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(20);
    for (name, roots) in
        [("uniform", RootDist::Uniform), ("alias", RootDist::weighted(&weights).unwrap())]
    {
        group.bench_with_input(BenchmarkId::from_parameter(name), &roots, |b, roots| {
            let mut sampler = RrSampler::with_config(&g, Model::LinearThreshold, roots.clone(), 9);
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
    group.finish();
}

/// Pool growth: sequential vs scoped-thread generation (identical
/// output; the paper is single-threaded, parallelism is this library's
/// extension).
fn bench_parallel_growth(c: &mut Criterion) {
    let g = gen::rmat(20_000, 120_000, gen::RmatParams::GRAPH500, 3)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let sampler = RrSampler::new(&g, Model::IndependentCascade);
    let mut group = c.benchmark_group("pool_growth_20k_sets");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let mut pool = RrCollection::new(g.num_nodes());
                pool.extend_parallel(&sampler, 0, 20_000, t);
                pool.total_nodes()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ssa_epsilon_presets, bench_root_sampling, bench_parallel_growth);
criterion_main!(benches);

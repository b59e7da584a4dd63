//! `solve`: influence maximization from scratch, as in the paper's
//! Figs. 4–5 — a fixed grid of D-SSA and SSA jobs on the NetPHY stand-in.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sns_core::bounds::certificate::Certificate;
use sns_core::bounds::{self, upsilon};
use sns_core::{
    estimate_inf_with_sink, Dssa, DssaIteration, EstimateScratch, Params, RunResult,
    SamplingContext, Ssa, SsaEpsilons, StoppingRule,
};
use sns_diffusion::Model;
use sns_graph::gen::datasets::{self, DatasetSpec};
use sns_graph::{fnv64, Graph};
use sns_rrset::{max_coverage_with, GreedyScratch, RrCollection};

use crate::clock::{Cpu, Lap, Stopwatch};
use crate::report::{median, OpTimes};
use crate::trace::Tracer;
use crate::{secs_since, Outcome, MIB};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Dssa,
    Ssa,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SolveConfig {
    pub dataset: DatasetSpec,
    pub scale: f64,
    pub graph_seed: u64,
    /// Sampling seed of every job. The instance is pinned, as the paper's
    /// datasets are: a job's stopping iteration (and so its work) jumps
    /// by a factor of two between sampling streams, which no run length
    /// could average out.
    pub sample_seed: u64,
    pub epsilon: f64,
    pub jobs: Vec<(Algo, usize)>,
    pub threads: usize,
    /// Sets sampled on a throwaway stream after the graph is built, so
    /// the first timed job does not pay first-use costs.
    pub warmup_sets: u64,
}

impl SolveConfig {
    pub fn full() -> Self {
        SolveConfig {
            dataset: datasets::NETPHY,
            scale: 1.0,
            graph_seed: 42,
            sample_seed: 1,
            epsilon: 0.1,
            jobs: vec![
                (Algo::Dssa, 1),
                (Algo::Dssa, 100),
                (Algo::Dssa, 1000),
                (Algo::Ssa, 1),
                (Algo::Ssa, 100),
                (Algo::Ssa, 1000),
            ],
            threads: 2,
            warmup_sets: 20_000,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        SolveConfig {
            dataset: datasets::NETHEPT,
            scale: 0.05,
            warmup_sets: 500,
            jobs: vec![(Algo::Dssa, 5), (Algo::Ssa, 5)],
            epsilon: 0.3,
            ..SolveConfig::full()
        }
    }

    fn params(&self, k: usize, n: u64) -> Params {
        Params::with_paper_delta(k, self.epsilon, n)
            .expect("benchmark parameters are valid")
            .with_stopping_rule(StoppingRule::DssaFix)
    }
}

/// What one job produced; everything but `secs` is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    pub algo: Algo,
    pub k: usize,
    pub rr_sets_total: u64,
    pub iterations: u32,
    pub seeds_fnv: u64,
    pub peak_pool_bytes: u64,
    pub edges_examined: u64,
}

/// Pinned results of [`SolveConfig::full`], computed at one thread:
/// `(algo, k, rr_sets_total, iterations, fnv64 of the seed list)`.
/// Every run at two threads must reproduce them exactly.
const PINNED: [(Algo, usize, u64, u32, u64); 6] = [
    (Algo::Dssa, 1, 385408, 7, 0x08328407b4eb6921),
    (Algo::Dssa, 100, 95616, 5, 0xec7342d21e45066b),
    (Algo::Dssa, 1000, 191232, 6, 0x21052c73cf0b963c),
    (Algo::Ssa, 1, 587225, 8, 0x08328407b4eb6921),
    (Algo::Ssa, 100, 96076, 5, 0xec7342d21e45066b),
    (Algo::Ssa, 1000, 463620, 8, 0x1ea3ee61fef7bffa),
];

fn seeds_fnv(seeds: &[u32]) -> u64 {
    let bytes: Vec<u8> = seeds.iter().flat_map(|s| s.to_le_bytes()).collect();
    fnv64(&bytes)
}

fn summarize(algo: Algo, k: usize, r: &RunResult) -> JobSummary {
    JobSummary {
        algo,
        k,
        rr_sets_total: r.rr_sets_total(),
        iterations: r.iterations,
        seeds_fnv: seeds_fnv(&r.seeds),
        peak_pool_bytes: r.peak_pool_bytes,
        edges_examined: r.total_edges_examined,
    }
}

pub fn build_graph(cfg: &SolveConfig) -> Graph {
    cfg.dataset.generate(cfg.scale, cfg.graph_seed).expect("stand-in graph generates")
}

/// Runs one job; D-SSA also returns its checkpoint schedule.
pub fn run_job(
    cfg: &SolveConfig,
    ctx: &SamplingContext<'_>,
    algo: Algo,
    k: usize,
) -> (RunResult, Vec<DssaIteration>) {
    let params = cfg.params(k, u64::from(ctx.graph().num_nodes()));
    match algo {
        Algo::Dssa => Dssa::new(params).run_traced(ctx).expect("valid D-SSA job"),
        Algo::Ssa => (Ssa::new(params).run(ctx).expect("valid SSA job"), Vec::new()),
    }
}

/// Set-up: the graph, then a warm-up batch of samples on a throwaway
/// stream. Returns the graph, the set-up's times and the graph build ms.
fn set_up(cfg: &SolveConfig) -> (Graph, Lap, f64) {
    let sw = Stopwatch::start(Cpu::Process);
    let t = Instant::now();
    let g = build_graph(cfg);
    let graph_ms = secs_since(t) * 1e3;
    let ctx = SamplingContext::new(&g, Model::IndependentCascade)
        .with_seed(cfg.sample_seed)
        .with_threads(cfg.threads);
    let mut warm = RrCollection::new(g.num_nodes());
    warm.extend_parallel(&ctx.sampler(u64::MAX), 0, cfg.warmup_sets, cfg.threads);
    std::hint::black_box(warm.total_nodes());
    drop(warm);
    drop(ctx);
    (g, sw.lap(), graph_ms)
}

/// The job order of pass `pass`: a seeded permutation of the grid.
fn pass_order(cfg: &SolveConfig, seed: u64, pass: u64) -> Vec<(Algo, usize)> {
    let mut jobs = cfg.jobs.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    jobs.shuffle(&mut rng);
    jobs
}

fn check_pinned(cfg: &SolveConfig, s: &JobSummary) -> Result<(), String> {
    if *cfg != SolveConfig::full() {
        return Ok(());
    }
    let pin = PINNED
        .iter()
        .find(|p| p.0 == s.algo && p.1 == s.k)
        .ok_or_else(|| format!("no pinned result for {:?} k={}", s.algo, s.k))?;
    let got = (s.rr_sets_total, s.iterations, s.seeds_fnv);
    if got != (pin.2, pin.3, pin.4) {
        return Err(format!(
            "{:?} k={}: (rr_sets_total, iterations, seeds fnv) = {got:?}, pinned {:?}",
            s.algo,
            s.k,
            (pin.2, pin.3, pin.4)
        ));
    }
    Ok(())
}

/// Untraced run: set-up and one pass over the job grid, repeated until
/// `seconds` elapse. Set-up is timed before every pass, so its median
/// spans the run like the passes' does. The operation is one whole pass,
/// so every job of the grid — D-SSA and SSA at every k — moves it.
pub fn run(cfg: &SolveConfig, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut passes = OpTimes::default();
    let mut list_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut peak = 0u64;
    let mut per_job: Vec<((Algo, usize), Vec<f64>)> =
        cfg.jobs.iter().map(|&j| (j, Vec::new())).collect();
    let started = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || secs_since(started) < seconds {
        let (g, lap, _) = set_up(cfg);
        setups.push(lap);
        let ctx = SamplingContext::new(&g, Model::IndependentCascade)
            .with_seed(cfg.sample_seed)
            .with_threads(cfg.threads);
        let mut jobs = OpTimes::default();
        let mut by_algo = [0.0; 2];
        for (algo, k) in pass_order(cfg, seed, pass) {
            let sw = Stopwatch::start(Cpu::Process);
            let (r, _) = run_job(cfg, &ctx, algo, k);
            let lap = sw.lap();
            jobs.push(lap);
            by_algo[algo as usize] += lap.cpu_s;
            if let Some((_, v)) = per_job.iter_mut().find(|(j, _)| *j == (algo, k)) {
                v.push(lap.cpu_s * 1e3);
            }
            out.attempted += 1;
            let s = summarize(algo, k, &r);
            peak = peak.max(s.peak_pool_bytes);
            if let Err(e) = check_pinned(cfg, &s) {
                out.fail(e);
            }
        }
        rates.push(jobs.cpu_rate());
        passes.push(jobs.total());
        for (list, secs) in list_s.iter_mut().zip(by_algo) {
            list.push(secs);
        }
        pass += 1;
    }
    for ((algo, k), ms) in &per_job {
        let list: Vec<String> = ms.iter().map(|v| format!("{v:.1}")).collect();
        out.log(format!(
            "{algo:?} k={k}: median {:.1} CPU ms ({} ms)",
            median(ms),
            list.join(", ")
        ));
    }
    out.log(format!(
        "per pass, median CPU: D-SSA job list (dssa_s) {:.3} s, SSA job list (ssa_s) {:.3} s",
        median(&list_s[Algo::Dssa as usize]),
        median(&list_s[Algo::Ssa as usize])
    ));
    out.e2e(&setups, std::slice::from_ref(&passes), 90.0, &rates, peak as f64 / MIB);
    out
}

/// Per-job summaries at `threads` (for the pinned table and the tests).
pub fn summaries(cfg: &SolveConfig, threads: usize) -> Vec<JobSummary> {
    let g = build_graph(cfg);
    let ctx = SamplingContext::new(&g, Model::IndependentCascade)
        .with_seed(cfg.sample_seed)
        .with_threads(threads);
    cfg.jobs
        .iter()
        .map(|&(algo, k)| {
            let (r, _) = run_job(cfg, &ctx, algo, k);
            summarize(algo, k, &r)
        })
        .collect()
}

/// Traced run: one untraced pass, then the same pass replayed through the
/// public calls of each layer under spans.
pub fn run_traced(cfg: &SolveConfig, seed: u64, tracer: &mut Tracer) -> Outcome {
    let (g, _, graph_ms) = set_up(cfg);
    let ctx = SamplingContext::new(&g, Model::IndependentCascade)
        .with_seed(cfg.sample_seed)
        .with_threads(cfg.threads);
    let mut out = Outcome::default();
    out.metrics.set("graph.build_ms", graph_ms);
    out.metrics.set("graph.arcs", g.num_arcs() as f64);

    let order = pass_order(cfg, seed, 0);
    let mut untraced_s = 0.0;
    let mut jobs = Vec::new();
    for &(algo, k) in &order {
        let t = Instant::now();
        let (r, schedule) = run_job(cfg, &ctx, algo, k);
        let secs = secs_since(t);
        untraced_s += secs;
        out.attempted += 1;
        if let Err(e) = check_pinned(cfg, &summarize(algo, k, &r)) {
            out.fail(e);
        }
        jobs.push((algo, k, r, schedule, secs));
    }

    let replay_started = Instant::now();
    let mut dssa_job_s = 0.0;
    let mut ssa_job_s = 0.0;
    let mut dssa_layers_ms = 0.0;
    let mut sets = 0u64;
    let mut verify_sets = 0u64;
    let mut entries = 0u64;
    let mut edges = 0u64;
    let mut pool_edges = 0u64;
    let mut compactions = 0u64;
    let mut seeds_out = 0u64;
    for (i, (algo, k, r, schedule, secs)) in jobs.iter().enumerate() {
        tracer.set_request(i as u64);
        let before = tracer.leaf_busy_ms();
        let replay = match algo {
            Algo::Dssa => {
                dssa_job_s += secs;
                out.metrics.add("dssa.iterations", f64::from(r.iterations));
                replay_dssa(cfg, &ctx, *k, schedule, tracer)
            }
            Algo::Ssa => {
                ssa_job_s += secs;
                out.metrics.add("ssa.iterations", f64::from(r.iterations));
                replay_ssa(cfg, &ctx, *k, r.iterations, tracer)
            }
        };
        if *algo == Algo::Dssa {
            dssa_layers_ms += tracer.leaf_busy_ms() - before;
        }
        if replay.seeds != r.seeds || replay.verify_sets != r.rr_sets_verify {
            out.fail(format!("replay of {algo:?} k={k} diverged from the job"));
        }
        sets += replay.pool.len() as u64 + replay.verify_sets;
        verify_sets += replay.verify_sets;
        entries += replay.pool.total_nodes();
        edges += r.total_edges_examined;
        pool_edges += replay.pool.total_edges_examined();
        compactions += replay.pool.compactions();
        seeds_out += replay.selected_seeds;
    }
    let replay_s = secs_since(replay_started);

    let m = &mut out.metrics;
    let sample_ms = tracer.busy_ms("diffusion", None);
    m.set("diffusion.sample_ms", sample_ms);
    m.set("diffusion.sets", sets as f64);
    m.set("diffusion.entries", entries as f64);
    m.set("diffusion.edges_examined", edges as f64);
    m.set("diffusion.ns_per_edge", sample_ms * 1e6 / pool_edges.max(1) as f64);
    let (sample_speedup, seal_speedup) = thread_speedups(cfg, &ctx);
    m.set("diffusion.speedup_2t", sample_speedup);
    m.set("collection.seal_speedup_2t", seal_speedup);
    m.set("collection.seal_ms", tracer.busy_ms("collection", Some("seal")));
    m.set("collection.compactions", compactions as f64);
    let select_ms = tracer.busy_ms("coverage", Some("select"));
    m.set("coverage.select_ms", select_ms);
    m.set("coverage.selects", tracer.count("coverage", "select") as f64);
    m.set("coverage.verify_ms", tracer.busy_ms("coverage", Some("verify")));
    m.set("coverage.us_per_seed", select_ms * 1e3 / (seeds_out.max(1) as f64));
    m.set("estimate_inf.ms", tracer.busy_ms("estimate_inf", None));
    m.set("estimate_inf.sets", verify_sets as f64);
    m.set("dssa.job_ms", dssa_job_s * 1e3);
    m.set("ssa.job_ms", ssa_job_s * 1e3);
    m.set("dssa.unattributed_ms", dssa_job_s * 1e3 - dssa_layers_ms);
    out.attribute(tracer, untraced_s, replay_s);
    out
}

struct Replay {
    pool: RrCollection,
    seeds: Vec<u32>,
    verify_sets: u64,
    selected_seeds: u64,
}

/// D-SSA's checkpoints replayed from outside the solver: extend the pool
/// to each checkpoint size, seal, select over the find half, measure the
/// coverage of the verify half.
fn replay_dssa(
    cfg: &SolveConfig,
    ctx: &SamplingContext<'_>,
    k: usize,
    schedule: &[DssaIteration],
    tr: &mut Tracer,
) -> Replay {
    let k = k.min(ctx.graph().num_nodes() as usize);
    let job = tr.begin("dssa", "job");
    let mut pool = RrCollection::new(ctx.graph().num_nodes());
    let sampler = ctx.sampler(0);
    let mut scratch = GreedyScratch::new();
    let mut bits = Vec::new();
    let mut seeds = Vec::new();
    let mut selected = 0u64;
    for it in schedule {
        let (full, half) = (it.pool_size, it.pool_size / 2);
        let have = pool.len() as u64;
        if full > have {
            tr.span("diffusion", "extend", || {
                pool.extend_parallel(&sampler, have, full - have, cfg.threads)
            });
        }
        let _ = tr.span("collection", "seal", || pool.seal_parallel(cfg.threads));
        let half32 = u32::try_from(half).expect("pool fits the u32 id domain");
        let full32 = u32::try_from(full).expect("pool fits the u32 id domain");
        let cover =
            tr.span("coverage", "select", || max_coverage_with(&pool, k, 0..half32, &mut scratch));
        selected += cover.seeds.len() as u64;
        tr.span("coverage", "verify", || {
            pool.coverage_of_range(&cover.seeds, half32..full32, &mut bits)
        });
        seeds = cover.seeds;
    }
    tr.end(job);
    Replay { pool, seeds, verify_sets: 0, selected_seeds: selected }
}

/// SSA's rounds replayed from outside the solver, with the schedule
/// recomputed from the public bounds: extend to `Λ·2^(t−1)`, select over
/// the pool, and once the coverage threshold holds, verify by
/// `estimate_inf` on stream `t`.
fn replay_ssa(
    cfg: &SolveConfig,
    ctx: &SamplingContext<'_>,
    k: usize,
    iterations: u32,
    tr: &mut Tracer,
) -> Replay {
    let n = u64::from(ctx.graph().num_nodes());
    let k = k.min(n as usize);
    let params = cfg.params(k, n);
    let (eps, delta, gamma) = (params.epsilon, params.delta, ctx.gamma());
    let split = SsaEpsilons::recommended(eps);
    let n_max = bounds::nmax(n, k as u64, eps, delta, ctx.cap_ratio(k));
    let i_max = bounds::max_iterations(n_max, eps, delta);
    let delta_iter = delta / (3.0 * f64::from(i_max));
    let lambda = upsilon(eps, delta_iter).ceil().max(1.0) as u64;
    let cert = Certificate::ssa(params.rule, eps, split, delta_iter, gamma);
    let cap_sets = (n_max.ceil() as u64).max(1);

    let job = tr.begin("ssa", "job");
    let mut pool = RrCollection::new(ctx.graph().num_nodes());
    let sampler = ctx.sampler(0);
    let mut scratch = GreedyScratch::new();
    let mut est_scratch = EstimateScratch::new();
    let mut seeds = Vec::new();
    let mut verify_sets = 0u64;
    let mut selected = 0u64;
    for t in 1..=iterations {
        let target = (lambda << (t - 1)).min(cap_sets);
        let have = pool.len() as u64;
        if target > have {
            tr.span("diffusion", "extend", || {
                pool.extend_parallel(&sampler, have, target - have, cfg.threads)
            });
        }
        let _ = tr.span("collection", "seal", || pool.seal_parallel(cfg.threads));
        let size = pool.len() as u64;
        let cover = tr.span("coverage", "select", || {
            max_coverage_with(&pool, k, pool.id_range(), &mut scratch)
        });
        selected += cover.seeds.len() as u64;
        if cert.coverage_met(cover.covered) {
            // SSA's verification budget T_max (Alg. 1, line 8).
            let t_max = (2.0 * size as f64 * (1.0 + split.e2) / (1.0 - split.e2)
                * (split.e3 * split.e3)
                / (split.e2 * split.e2))
                .ceil() as u64;
            let mut verifier = ctx.sampler(u64::from(t));
            let outcome = tr.span("estimate_inf", "verify", || {
                estimate_inf_with_sink(
                    &mut verifier,
                    &cover.seeds,
                    split.e2,
                    delta_iter,
                    t_max,
                    gamma,
                    None,
                    &mut est_scratch,
                )
            });
            verify_sets += outcome.samples_used;
        }
        seeds = cover.seeds;
    }
    tr.end(job);
    Replay { pool, seeds, verify_sets, selected_seeds: selected }
}

/// One-thread over `cfg.threads` wall-time ratios of sampling one fixed
/// batch, and of sealing the arena after a small growth (the grower's
/// per-epoch seal). The pools must be identical either way.
fn thread_speedups(cfg: &SolveConfig, ctx: &SamplingContext<'_>) -> (f64, f64) {
    let count = 50_000u64.min(cfg.warmup_sets * 4);
    let sampler = ctx.sampler(0);
    let timed = |threads: usize| {
        let mut pool = RrCollection::new(ctx.graph().num_nodes());
        let t = Instant::now();
        pool.extend_parallel(&sampler, 0, count, threads);
        let sample_s = secs_since(t);
        // A growth below the compaction threshold stays pending until the
        // explicit seal rebuilds the whole arena's index.
        pool.extend_parallel(&sampler, count, count / 50, threads);
        let t = Instant::now();
        let _ = pool.seal_parallel(threads);
        (sample_s, secs_since(t), pool)
    };
    let (one_sample, one_seal, one) = timed(1);
    let (many_sample, many_seal, many) = timed(cfg.threads);
    assert_eq!(one.total_nodes(), many.total_nodes(), "sampling depends on the thread count");
    (one_sample / many_sample.max(1e-9), one_seal / many_seal.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_jobs_are_thread_invariant() {
        let cfg = SolveConfig::tiny();
        assert_eq!(summaries(&cfg, 1), summaries(&cfg, 2));
    }

    #[test]
    fn tiny_replay_matches_the_jobs() {
        let cfg = SolveConfig::tiny();
        let mut tracer = Tracer::default();
        let out = run_traced(&cfg, 3, &mut tracer);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let again = run_traced(&cfg, 3, &mut Tracer::default());
        for name in ["diffusion.sets", "diffusion.entries", "dssa.iterations", "ssa.iterations"] {
            assert_eq!(out.metrics.get(name), again.metrics.get(name), "{name}");
            assert!(out.metrics.get(name).unwrap() > 0.0, "{name}");
        }
        assert_eq!(out.metrics.get("estimate_inf.sets"), again.metrics.get("estimate_inf.sets"));
    }
}

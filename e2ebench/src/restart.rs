//! `restart`: set-up bakes a multi-epoch pool with `SeedQueryEngine::save`
//! (so the fsync stays out of the timed phase); each timed operation is a
//! strict `SeedQueryEngine::from_store` load followed by the first answer.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sns_core::{PoolStore, SamplingContext, SeedAnswer, SeedQuery, SeedQueryEngine};
use sns_diffusion::Model;
use sns_graph::gen::datasets::{self, DatasetSpec};
use sns_graph::Graph;
use sns_rrset::{CoverageView, GainSnapshot, GreedyScratch, SeedConstraints};

use crate::clock::{Cpu, Lap, Stopwatch};
use crate::report::{median, OpTimes};
use crate::trace::Tracer;
use crate::{secs_since, Outcome, MIB};

#[derive(Debug, Clone)]
pub struct RestartConfig {
    pub dataset: DatasetSpec,
    pub scale: f64,
    pub graph_seed: u64,
    /// Sampling seed of the baked pool. Pinned: the arena's capacity,
    /// and so `mem_mib`, jumps with each stream's set sizes.
    pub pool_seed: u64,
    pub epoch_sets: u64,
    pub epochs: u32,
    pub threads: usize,
    /// The first query asks for `first_k.0 + seed % first_k.1` seeds.
    pub first_k: (usize, u64),
    /// Timed loads after each set-up.
    pub loads_per_setup: usize,
    /// Loads in the traced run's fixed round.
    pub traced_loads: usize,
}

impl RestartConfig {
    pub fn full() -> Self {
        RestartConfig {
            dataset: datasets::NETHEPT,
            scale: 1.0,
            graph_seed: 42,
            pool_seed: 1,
            epoch_sets: 25_000,
            epochs: 4,
            threads: 2,
            first_k: (40, 21),
            loads_per_setup: 30,
            traced_loads: 20,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        RestartConfig {
            scale: 0.05,
            epoch_sets: 1000,
            epochs: 3,
            loads_per_setup: 2,
            traced_loads: 2,
            ..RestartConfig::full()
        }
    }

    fn first_k(&self, seed: u64) -> usize {
        self.first_k.0 + (seed % self.first_k.1) as usize
    }
}

struct Baked {
    graph: Graph,
    query: SeedQuery,
    dir: PathBuf,
    answer: SeedAnswer,
    engine: SeedQueryEngine,
}

fn context<'g>(g: &'g Graph, seed: u64, threads: usize) -> SamplingContext<'g> {
    SamplingContext::new(g, Model::IndependentCascade).with_seed(seed).with_threads(threads)
}

/// Set-up: graph, pool sampled as sealed epochs, saved to a fresh store
/// directory, and the baked engine's answer to the first query.
fn bake(cfg: &RestartConfig, seed: u64, dir: &Path) -> (Baked, f64) {
    let t = Instant::now();
    let graph = cfg.dataset.generate(cfg.scale, cfg.graph_seed).expect("stand-in graph generates");
    let graph_ms = secs_since(t) * 1e3;
    let ctx = context(&graph, cfg.pool_seed, cfg.threads);
    let mut engine = SeedQueryEngine::sample(&ctx, cfg.epoch_sets);
    for _ in 1..cfg.epochs {
        engine.extend(&ctx, cfg.epoch_sets);
    }
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("old store removable");
    }
    engine.save(dir).expect("store saves");
    let query = SeedQuery::top_k(cfg.first_k(seed));
    let answer = engine.answer(&query).expect("first query is valid");
    drop(ctx);
    (Baked { graph, query, dir: dir.to_path_buf(), answer, engine }, graph_ms)
}

fn store_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("store directory readable") {
        let meta = entry.expect("store entry readable").metadata().expect("metadata readable");
        if meta.is_file() {
            total += meta.len();
        }
    }
    total
}

/// What one load-and-answer operation took and produced.
struct Loaded {
    lap: Lap,
    /// The first answer alone.
    answer_lap: Lap,
    /// Returned so that dropping it stays outside the timing.
    engine: Option<SeedQueryEngine>,
    answer: Result<SeedAnswer, String>,
}

/// One timed operation: strict load, then the first answer.
fn load_and_answer(ctx: &SamplingContext<'_>, baked: &Baked) -> Loaded {
    let sw = Stopwatch::start(Cpu::Process);
    match SeedQueryEngine::from_store(&baked.dir, ctx) {
        Ok(engine) => {
            let a = Stopwatch::start(Cpu::Process);
            let answer = engine.answer(&baked.query).map_err(|e| e.to_string());
            let answer_lap = a.lap();
            Loaded { lap: sw.lap(), answer_lap, engine: Some(engine), answer }
        }
        Err(e) => Loaded {
            lap: sw.lap(),
            answer_lap: Lap::default(),
            engine: None,
            answer: Err(e.to_string()),
        },
    }
}

fn check(baked: &Baked, answer: &Result<SeedAnswer, String>, out: &mut Outcome) {
    match answer {
        Ok(a) if *a == baked.answer => {}
        Ok(_) => out.fail("the loaded engine answered differently from the baking engine".into()),
        Err(e) => {
            out.failed += 1;
            out.fail(format!("strict load failed: {e}"));
        }
    }
}

/// Untraced run: set-up and `loads_per_setup` load-and-answer
/// operations, repeated until `seconds` elapse. Set-up is timed before
/// every batch of loads, so its median spans the run like the loads' does.
pub fn run(cfg: &RestartConfig, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let dir = work.join(format!("store-{seed}"));
    let mut out = Outcome::default();
    let mut rounds: Vec<OpTimes> = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut mem = 0.0;
    let mut summary = String::new();
    let started = Instant::now();
    while rounds.is_empty() || secs_since(started) < seconds {
        let sw = Stopwatch::start(Cpu::Process);
        let (baked, _) = bake(cfg, seed, &dir);
        setups.push(sw.lap());
        let ctx = context(&baked.graph, cfg.pool_seed, cfg.threads);
        let mut round = OpTimes::default();
        for _ in 0..cfg.loads_per_setup {
            let loaded = load_and_answer(&ctx, &baked);
            round.push(loaded.lap);
            out.attempted += 1;
            check(&baked, &loaded.answer, &mut out);
            if let Some(engine) = loaded.engine {
                mem = (engine.pool().memory_bytes() + engine.stats().cached_bytes) as f64 / MIB;
            }
        }
        rates.push(round.cpu_rate());
        rounds.push(round);
        summary = format!(
            "{}-set store ({:.1} MiB on disk)",
            baked.engine.pool().len(),
            store_bytes(&dir) as f64 / MIB
        );
    }
    out.log(format!("restart: loads of a {summary}"));
    out.e2e(&setups, &rounds, 90.0, &rates, mem);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Traced run: a fixed number of untraced loads, then the same loads
/// replayed as store decode (`PoolStore::load`), fingerprint check and
/// engine restore, and the first answer's snapshot builds, merge and
/// selection.
pub fn run_traced(cfg: &RestartConfig, seed: u64, work: &Path, tr: &mut Tracer) -> Outcome {
    let dir = work.join(format!("store-{seed}"));
    let (baked, graph_ms) = bake(cfg, seed, &dir);
    let ctx = context(&baked.graph, cfg.pool_seed, cfg.threads);
    let mut out = Outcome::default();
    let mut untraced = OpTimes::default();
    let mut first_answer = OpTimes::default();
    for _ in 0..cfg.traced_loads {
        let loaded = load_and_answer(&ctx, &baked);
        untraced.push(loaded.lap);
        first_answer.push(loaded.answer_lap);
        out.attempted += 1;
        check(&baked, &loaded.answer, &mut out);
    }

    let expected = baked.engine.fingerprint().expect("sampled engines carry a fingerprint");
    let mut scratch = GreedyScratch::new();
    let (mut load_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let (mut builds, mut merges) = (0u64, 0u64);
    let started = Instant::now();
    for i in 0..cfg.traced_loads {
        tr.set_request(i as u64);
        let t = Instant::now();
        let loaded = tr.span("store", "load", || PoolStore::at(&dir).load(cfg.threads));
        load_ms.push(secs_since(t) * 1e3);
        let (pool, fingerprint) = match loaded {
            Ok(x) => x,
            Err(e) => {
                out.fail(format!("replayed load failed: {e}"));
                break;
            }
        };
        let t = Instant::now();
        let engine = tr.span("store", "restore", || {
            fingerprint.matches_sampling(expected).map(|()| {
                SeedQueryEngine::from_pool(pool, fingerprint.gamma).with_threads(cfg.threads)
            })
        });
        restore_ms.push(secs_since(t) * 1e3);
        let Ok(engine) = engine else {
            out.fail("replayed fingerprint check failed".into());
            break;
        };
        let pool = engine.pool();
        let bounds = pool.epoch_boundaries().to_vec();
        let mut parts = Vec::new();
        let mut start = 0;
        for end in bounds {
            let snap = tr.span("snapshot", "build", || {
                GainSnapshot::build(&CoverageView::build(&pool, start..end))
            });
            parts.push(Arc::new(snap));
            builds += 1;
            start = end;
        }
        let merged = tr.span("snapshot", "merge", || {
            GainSnapshot::merge(&parts.iter().map(Arc::as_ref).collect::<Vec<_>>())
        });
        merges += 1;
        let seeds = tr.span("coverage", "plain", || {
            merged
                .view(&pool)
                .select_from_snapshot_constrained(
                    &merged,
                    baked.query.k,
                    &SeedConstraints::none(),
                    &mut scratch,
                )
                .seeds
        });
        if seeds != baked.answer.seeds {
            out.fail("replayed first answer diverged".into());
        }
    }
    let traced_s = secs_since(started);

    let bytes = store_bytes(&dir) as f64;
    let m = &mut out.metrics;
    m.set("graph.build_ms", graph_ms);
    m.set("graph.arcs", baked.graph.num_arcs() as f64);
    let load = median(&load_ms);
    m.set("store.load_ms", load);
    m.set("store.bytes", bytes);
    m.set("store.mib_per_s", bytes / MIB / (load / 1e3));
    m.set("store.restore_ms", median(&restore_ms));
    m.set("snapshot.build_ms", tr.busy_ms("snapshot", Some("build")));
    m.set("snapshot.merge_ms", tr.busy_ms("snapshot", Some("merge")));
    m.set("snapshot.builds", builds as f64);
    m.set("snapshot.merges", merges as f64);
    let select_ms = tr.busy_ms("coverage", None);
    m.set("coverage.select_ms", select_ms);
    m.set("coverage.plain_us", select_ms * 1e3 / cfg.traced_loads as f64);
    m.set("coverage.selects", cfg.traced_loads as f64);
    m.set("coverage.us_per_seed", select_ms * 1e3 / (cfg.traced_loads * baked.query.k) as f64);
    m.set("engine.query_p50_ms", first_answer.wall_p50_ms());
    out.attribute(tr, untraced.total().wall_s, traced_s);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_restart_reloads_the_baked_answers() {
        let work = PathBuf::from(".bench_work/test-restart");
        let out = run(&RestartConfig::tiny(), 3, 0.2, &work);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let mut tr = Tracer::default();
        let traced = run_traced(&RestartConfig::tiny(), 3, &work, &mut tr);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        let again = run_traced(&RestartConfig::tiny(), 3, &work, &mut Tracer::default());
        for name in ["store.bytes", "snapshot.builds", "snapshot.merges"] {
            assert_eq!(traced.metrics.get(name), again.metrics.get(name), "{name}");
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}

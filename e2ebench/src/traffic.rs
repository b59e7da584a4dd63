//! `serve` and `grow`: one closed-loop client sends batches of seed
//! queries through `AdmissionQueue` and `answer_planned` against a frozen
//! multi-epoch pool on the NetHEPT stand-in. In `grow`, a grower thread
//! adds 1k-set epochs through `Grower::extend` while the client keeps
//! answering.
//!
//! A round replays one fixed, seeded query sequence against a fresh
//! engine over the same base pool, so every round does identical work
//! and its counters repeat exactly; a run repeats whole rounds until its
//! time is up.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sns_core::planner::BatchPlan;
use sns_core::{
    AdmissionQueue, GroupKey, NodeCosts, Priority, QueryStats, SamplingContext, SeedAnswer,
    SeedQuery, SeedQueryEngine,
};
use sns_diffusion::Model;
use sns_graph::gen::datasets::{self, DatasetSpec};
use sns_graph::Graph;
use sns_rrset::{
    CoverageView, GainSnapshot, GreedyScratch, RrCollection, SeedConstraints, WeightedGainSnapshot,
};
use sns_tvm::TargetWeights;

use crate::clock::{Cpu, Lap, Stopwatch};
use crate::report::{percentile, Metrics, OpTimes};
use crate::trace::Tracer;
use crate::{secs_since, Outcome, MIB};

#[derive(Debug, Clone)]
pub struct TrafficConfig {
    pub dataset: DatasetSpec,
    pub scale: f64,
    pub graph_seed: u64,
    /// Sampling seed of the base pool and of its growth. Pinned, so the
    /// pool's capacity (part of `mem_mib`) is the same for every workload
    /// seed; the workload seed draws the topics and the query stream.
    pub pool_seed: u64,
    /// The base pool: `epochs` sealed epochs of `epoch_sets` sets each.
    pub epoch_sets: u64,
    pub epochs: u32,
    pub engine_threads: usize,
    pub batch: usize,
    pub batches_per_round: usize,
    pub topics: usize,
    pub zipf_s: f64,
    pub topic_share: f64,
    pub budget_share: f64,
    pub ks: Vec<usize>,
    /// Growths per round (0: no grower thread).
    pub growths: usize,
    pub grow_sets: u64,
    /// Every `verify_every`-th batch is re-answered by a reference engine.
    pub verify_every: usize,
    /// Snapshot-cache byte budget (`None`: the engine's default).
    pub cache_budget: Option<u64>,
}

impl TrafficConfig {
    pub fn serve() -> Self {
        TrafficConfig {
            dataset: datasets::NETHEPT,
            scale: 1.0,
            graph_seed: 42,
            pool_seed: 1,
            epoch_sets: 25_000,
            epochs: 8,
            engine_threads: 2,
            batch: 8,
            batches_per_round: 225,
            topics: 8,
            zipf_s: 1.1,
            topic_share: 0.35,
            budget_share: 0.15,
            ks: vec![10, 50, 200],
            growths: 0,
            grow_sets: 1000,
            verify_every: 15,
            cache_budget: None,
        }
    }

    pub fn grow() -> Self {
        TrafficConfig {
            engine_threads: 1,
            batches_per_round: 40,
            growths: 40,
            ..TrafficConfig::serve()
        }
    }

    #[cfg(test)]
    pub fn tiny(growths: usize, engine_threads: usize) -> Self {
        TrafficConfig {
            scale: 0.05,
            epoch_sets: 1500,
            epochs: 4,
            engine_threads,
            batches_per_round: 24,
            topics: 3,
            growths,
            grow_sets: 300,
            verify_every: 1,
            ..TrafficConfig::serve()
        }
    }

    fn base_len(&self) -> u32 {
        u32::try_from(self.epoch_sets * u64::from(self.epochs)).expect("pool fits u32 ids")
    }

    /// Batches between growth commands.
    fn batches_per_growth(&self) -> usize {
        self.batches_per_round.checked_div(self.growths).map_or(usize::MAX, |b| b.max(1))
    }
}

/// Everything a round needs that set-up builds once.
struct Fixture {
    graph: Graph,
    topics: Vec<TargetWeights>,
    costs: Arc<[f64]>,
    /// The sealed base pool, sampled on stream 0 of `pool_seed`.
    base: Arc<RrCollection>,
    /// The set-up engine; also the reference that re-answers `serve`.
    reference: SeedQueryEngine,
}

fn context<'g>(g: &'g Graph, seed: u64, threads: usize) -> SamplingContext<'g> {
    SamplingContext::new(g, Model::IndependentCascade).with_seed(seed).with_threads(threads)
}

/// Set-up: graph, topics, and the base pool baked as sealed epochs (each
/// frozen into the engine's cache at publish), then one warm-up query.
fn build_fixture(cfg: &TrafficConfig, seed: u64) -> (Fixture, f64) {
    let t = Instant::now();
    let graph = cfg.dataset.generate(cfg.scale, cfg.graph_seed).expect("stand-in graph generates");
    let graph_ms = secs_since(t) * 1e3;
    let topics = (0..cfg.topics)
        .map(|i| {
            TargetWeights::synthetic_topic(&graph, 0.15, 1.0, seed ^ (i as u64 + 1))
                .expect("valid synthetic topic")
        })
        .collect();
    // One shared per-node cost table (cheapest node costs 0.5).
    let costs: Arc<[f64]> = (0..graph.num_nodes()).map(|v| 0.5 + f64::from(v % 4) * 0.5).collect();
    let ctx = context(&graph, cfg.pool_seed, 2);
    let mut reference = SeedQueryEngine::sample(&ctx, cfg.epoch_sets).with_threads(2);
    for _ in 1..cfg.epochs {
        reference.extend(&ctx, cfg.epoch_sets);
    }
    reference.answer(&SeedQuery::top_k(cfg.ks[0])).expect("warm-up query is valid");
    let base = reference.pool();
    drop(ctx);
    (Fixture { graph, topics, costs, base, reference }, graph_ms)
}

/// Zipf(s) over `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The seeded query stream of a round.
struct QueryGen<'f> {
    cfg: &'f TrafficConfig,
    fixture: &'f Fixture,
    zipf: Zipf,
    rng: StdRng,
}

impl<'f> QueryGen<'f> {
    fn new(cfg: &'f TrafficConfig, fixture: &'f Fixture, seed: u64) -> Self {
        QueryGen {
            cfg,
            fixture,
            zipf: Zipf::new(cfg.topics, cfg.zipf_s),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED),
        }
    }

    /// One query over `0..len`: hot ranges (the pool and its halves) or a
    /// cold random quarter; plain top-k, budgeted, or topic-weighted.
    fn next(&mut self, len: u32) -> SeedQuery {
        let rng = &mut self.rng;
        let k = self.cfg.ks[rng.gen_range(0..self.cfg.ks.len())];
        let range = match rng.gen_range(0..10u32) {
            0..=3 => 0..len,
            4..=5 => 0..len / 2,
            6 => len / 2..len,
            _ => {
                let start = rng.gen_range(0..=len - len / 4);
                start..start + len / 4
            }
        };
        let u: f64 = rng.gen();
        if u < self.cfg.topic_share {
            self.fixture.topics[self.zipf.sample(rng)].seed_query(k).over_range(range)
        } else if u < self.cfg.topic_share + self.cfg.budget_share {
            if rng.gen_bool(0.5) {
                SeedQuery::budgeted(k as f64).over_range(range)
            } else {
                SeedQuery::budgeted(k as f64 * 0.75)
                    .with_costs(NodeCosts::per_node(self.fixture.costs.clone()))
                    .over_range(range)
            }
        } else {
            SeedQuery::top_k(k).over_range(range)
        }
    }
}

/// The deterministic record of one round.
#[derive(Debug, Clone, Default, PartialEq)]
struct RoundCounters {
    queries: u64,
    refused: u64,
    expired: u64,
    sojourn_p50: u64,
    sojourn_p99: u64,
    stats: QueryStats,
    growths: u64,
    final_len: u64,
    pool_bytes: u64,
}

/// One round's timings and the batches it served.
#[derive(Default)]
struct Round {
    counters: RoundCounters,
    query_s: OpTimes,
    growth_s: OpTimes,
    admit_s: f64,
    ack_wait_s: f64,
    /// `(batch, answers, known pool length)` in service order.
    batches: Vec<(Vec<SeedQuery>, Vec<SeedAnswer>, u32)>,
    /// Batch index at which each growth was commanded, with the pool
    /// length its ack reported.
    growth_log: Vec<(usize, u64)>,
}

fn run_round(cfg: &TrafficConfig, fx: &Fixture, seed: u64, keep_all: bool) -> Round {
    let mut engine = SeedQueryEngine::from_pool((*fx.base).clone(), fx.reference.gamma())
        .with_threads(cfg.engine_threads);
    if let Some(bytes) = cfg.cache_budget {
        engine = engine.with_cache_budget(bytes);
    }
    let ctx = context(&fx.graph, cfg.pool_seed, cfg.engine_threads);
    let mut gen = QueryGen::new(cfg, fx, seed);
    let mut queue = AdmissionQueue::new(cfg.batch);
    let mut known_len = cfg.base_len();
    let mut now = 0u64;
    let mut sojourns = Vec::new();
    let mut round = Round::default();
    let per_growth = cfg.batches_per_growth();
    let (cmd_tx, cmd_rx) = mpsc::channel::<u64>();
    let (ack_tx, ack_rx) = mpsc::channel::<(u64, Lap)>();
    // With a grower thread working beside the client, each side's calls
    // are charged to its own thread's CPU clock (both run at one thread).
    assert!(cfg.growths == 0 || cfg.engine_threads == 1, "grow runs the engine at one thread");
    let query_cpu = if cfg.growths > 0 { Cpu::Thread } else { Cpu::Process };
    std::thread::scope(|s| {
        if cfg.growths > 0 {
            let (engine, ctx) = (&engine, &ctx);
            s.spawn(move || {
                for additional in cmd_rx {
                    let sw = Stopwatch::start(Cpu::Thread);
                    let outcome = engine.grower().extend(ctx, additional);
                    if ack_tx.send((outcome.pool_len(), sw.lap())).is_err() {
                        break;
                    }
                }
            });
        } else {
            drop((cmd_rx, ack_tx));
        }
        let mut pending = false;
        let absorb = |round: &mut Round, known_len: &mut u32| {
            let t = Instant::now();
            let (len, lap) = ack_rx.recv().expect("grower thread alive");
            round.ack_wait_s += secs_since(t);
            round.growth_s.push(lap);
            round.counters.growths += 1;
            if let Some(last) = round.growth_log.last_mut() {
                last.1 = len;
            }
            *known_len = u32::try_from(len).expect("pool fits u32 ids");
        };
        for b in 0..cfg.batches_per_round {
            if b % per_growth == 0 && round.growth_log.len() < cfg.growths {
                // Sync point: the client learns the previous growth's pool
                // length before commanding the next one, so every query
                // range (and so every counter) is independent of timing.
                if pending {
                    absorb(&mut round, &mut known_len);
                }
                cmd_tx.send(cfg.grow_sets).expect("grower thread alive");
                round.growth_log.push((b, 0));
                pending = true;
            }
            let t = Instant::now();
            for _ in 0..cfg.batch {
                if queue.admit(gen.next(known_len), Priority::Normal, None, now, known_len).is_err()
                {
                    round.counters.refused += 1;
                }
            }
            let drained = queue.drain(now, cfg.batch);
            round.admit_s += secs_since(t);
            let mut cursor = now;
            for p in &drained {
                cursor += p.cost;
                sojourns.push(cursor - p.arrived);
            }
            now = cursor;
            let batch: Vec<SeedQuery> = drained.into_iter().map(|p| p.query).collect();
            let sw = Stopwatch::start(query_cpu);
            let answers = engine.answer_planned(&batch).expect("admitted queries are valid");
            round.query_s.push_batch(sw.lap(), batch.len());
            round.counters.queries += batch.len() as u64;
            if keep_all || b % cfg.verify_every == 0 {
                round.batches.push((batch, answers, known_len));
            }
        }
        drop(cmd_tx);
        if pending {
            absorb(&mut round, &mut known_len);
        }
    });
    sojourns.sort_unstable();
    let as_f64: Vec<f64> = sojourns.iter().map(|&s| s as f64).collect();
    let c = &mut round.counters;
    c.expired = queue.stats().expired;
    c.sojourn_p50 = percentile(&as_f64, 50.0) as u64;
    c.sojourn_p99 = percentile(&as_f64, 99.0) as u64;
    c.stats = engine.stats();
    let pool = engine.pool();
    c.final_len = pool.len() as u64;
    c.pool_bytes = pool.memory_bytes();
    round
}

/// Re-answers the kept batches with a reference engine whose pool holds
/// the same prefix: every served answer must be bit-identical.
fn verify(round: &Round, reference: &SeedQueryEngine, out: &mut Outcome) {
    for (batch, answers, known_len) in &round.batches {
        for (q, a) in batch.iter().zip(answers) {
            match reference.answer(q) {
                Ok(r) if &r == a => {}
                Ok(_) => out.fail(format!(
                    "answer diverged from the reference (pool {known_len}) for {q:?}"
                )),
                Err(e) => out.fail(format!("reference refused {q:?}: {e}")),
            }
        }
    }
}

/// The reference for `grow`: the base pool grown once to the round's
/// final length (the same deterministic stream, so the same prefix).
fn grown_reference(cfg: &TrafficConfig, fx: &Fixture, final_len: u64) -> SeedQueryEngine {
    let mut engine = SeedQueryEngine::from_pool((*fx.base).clone(), fx.reference.gamma());
    let ctx = context(&fx.graph, cfg.pool_seed, 2);
    engine = engine.with_threads(2);
    engine.extend(&ctx, final_len - u64::from(cfg.base_len()));
    engine
}

fn mem_mib(c: &RoundCounters) -> f64 {
    (c.pool_bytes + c.stats.cached_bytes) as f64 / MIB
}

/// Untraced run: set-up and one round, repeated until `seconds` elapse.
/// Set-up is timed before every round, so its median spans the run like
/// the operations' does.
pub fn run(cfg: &TrafficConfig, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut query_rounds: Vec<OpTimes> = Vec::new();
    let mut growth_rounds: Vec<OpTimes> = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<RoundCounters> = None;
    let started = Instant::now();
    while query_rounds.is_empty() || secs_since(started) < seconds {
        let sw = Stopwatch::start(Cpu::Process);
        let (fx, _) = build_fixture(cfg, seed);
        setups.push(sw.lap());
        let round = run_round(cfg, &fx, seed, false);
        query_rounds.push(round.query_s.clone());
        growth_rounds.push(round.growth_s.clone());
        // Queries answered per CPU second, also in `grow`: there it is the
        // read cost beside the writes.
        rates.push(round.query_s.cpu_rate());
        out.attempted += round.counters.queries + round.counters.growths;
        out.failed += round.counters.refused + round.counters.expired;
        if cfg.growths > 0 {
            verify(&round, &grown_reference(cfg, &fx, round.counters.final_len), &mut out);
        } else {
            verify(&round, &fx.reference, &mut out);
        }
        match &first {
            None => first = Some(round.counters.clone()),
            Some(c) => compare_rounds(c, &round.counters, cfg, &mut out),
        }
    }
    let c = first.expect("one round ran");
    out.log(format!(
        "{}: per round {} queries, {} growths, {} planner groups, {} plain / {} weighted hits, \
         {} evictions",
        if cfg.growths > 0 { "grow" } else { "serve" },
        c.queries,
        c.growths,
        c.stats.planner_groups,
        c.stats.snapshot_hits,
        c.stats.weighted_hits,
        c.stats.evictions
    ));
    let listed = |v: &[f64]| v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(", ");
    let op_ms: Vec<f64> = if cfg.growths > 0 { &growth_rounds } else { &query_rounds }
        .iter()
        .map(OpTimes::cpu_p50_ms)
        .collect();
    out.log(format!(
        "per round: op CPU ms {}; queries per CPU second {}",
        listed(&op_ms),
        listed(&rates)
    ));
    let (ops, tail) = if cfg.growths > 0 { (&growth_rounds, 90.0) } else { (&query_rounds, 99.0) };
    out.e2e(&setups, ops, tail, &rates, mem_mib(&c));
    out
}

/// Rounds replay the same input, so their counters must agree. The
/// snapshot cache is shared by concurrent workers (engine threads, and
/// the grower's publish-time freeze), whose racing double-builds and LRU
/// stamps may move its counters; those differences are reported, not
/// failed.
fn compare_rounds(
    first: &RoundCounters,
    now: &RoundCounters,
    cfg: &TrafficConfig,
    out: &mut Outcome,
) {
    let planner = |c: &RoundCounters| {
        (
            c.queries,
            c.refused,
            c.expired,
            c.sojourn_p50,
            c.sojourn_p99,
            c.stats.planned_batches,
            c.stats.planner_groups,
            c.stats.planner_builds_saved,
            c.growths,
            c.final_len,
            c.pool_bytes,
        )
    };
    if planner(first) != planner(now) {
        out.fail(format!("round counters differ: {first:?} vs {now:?}"));
    } else if first != now {
        let concurrent = cfg.engine_threads > 1 || cfg.growths > 0;
        let note =
            format!("cache counters moved between rounds: {:?} vs {:?}", first.stats, now.stats);
        if concurrent {
            out.log(note);
        } else {
            out.fail(note);
        }
    }
}

/// Traced run: one round untraced, then the same round replayed through
/// the public calls of the planner, snapshot, cache mirror, selection and
/// (in `grow`) the grower's clone → extend → seal → freeze.
pub fn run_traced(cfg: &TrafficConfig, seed: u64, tracer: &mut Tracer) -> Outcome {
    let (fx, graph_ms) = build_fixture(cfg, seed);
    let mut out = Outcome::default();
    let round = run_round(cfg, &fx, seed, true);
    let c = &round.counters;
    out.attempted = c.queries + c.growths;
    out.failed = c.refused + c.expired;
    let untraced_s = round.query_s.total().wall_s + round.growth_s.total().wall_s + round.admit_s;

    let started = Instant::now();
    let mirror = replay(cfg, &fx, &round, tracer, &mut out);
    let traced_s = secs_since(started);

    let m = &mut out.metrics;
    m.set("graph.build_ms", graph_ms);
    m.set("graph.arcs", fx.graph.num_arcs() as f64);
    let s = &c.stats;
    let hits = s.snapshot_hits + s.weighted_hits;
    let misses = s.snapshot_misses + s.weighted_misses;
    m.set("cache.hits", hits as f64);
    m.set("cache.misses", misses as f64);
    m.set("cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    m.set("cache.evictions", s.evictions as f64);
    m.set("cache.mib", s.cached_bytes as f64 / MIB);
    m.set("snapshot.builds", mirror.builds as f64);
    m.set("snapshot.merges", s.merges as f64);
    m.set("planner.groups", s.planner_groups as f64);
    m.set("planner.builds_saved", s.planner_builds_saved as f64);
    m.set("planner.refused", c.refused as f64);
    m.set("planner.expired", c.expired as f64);
    m.set("planner.sojourn_p50", c.sojourn_p50 as f64);
    m.set("planner.sojourn_p99", c.sojourn_p99 as f64);
    m.set("planner.admit_us", round.admit_s * 1e6);
    m.set("engine.query_p50_ms", round.query_s.wall_p50_ms());
    m.set("engine.query_p99_ms", round.query_s.wall_pct_ms(99.0));
    m.set("engine.queries_per_s", round.query_s.wall_rate());
    m.set("grower.extend_ms", round.growth_s.total().wall_s * 1e3);
    m.set("grower.ack_wait_ms", round.ack_wait_s * 1e3);
    m.set("grower.epochs", c.growths as f64);
    // The replay times the mirror's builds and merges, so the mirror must
    // follow the engine's cache policy. Without a grower the engine's
    // counters are exact at one thread: there a mismatch fails the run,
    // so a change of policy breaks the benchmark instead of silently
    // changing what the snapshot and cache layers measure.
    if cfg.growths == 0 {
        let exact = if cfg.engine_threads == 1 {
            c.stats
        } else {
            let one = TrafficConfig { engine_threads: 1, ..cfg.clone() };
            run_round(&one, &fx, seed, false).counters.stats
        };
        if let Some(e) = mirror_mismatch(&mirror, &exact) {
            out.fail(e);
        }
    } else if let Some(e) = mirror_mismatch(&mirror, s) {
        // The grower's publish-time freeze races the reads.
        out.log(e);
    }
    out.attribute(tracer, untraced_s, traced_s);
    out
}

/// What the replay's cache mirror counted.
#[derive(Default)]
struct MirrorCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
    builds: u64,
    epochs_frozen: u64,
    merges: u64,
}

/// The mirror's counters against the engine's `QueryStats`, if they differ.
fn mirror_mismatch(m: &MirrorCounts, s: &QueryStats) -> Option<String> {
    let mirror = (m.hits, m.misses, m.evictions, m.epochs_frozen, m.merges);
    let engine = (
        s.snapshot_hits + s.weighted_hits,
        s.snapshot_misses + s.weighted_misses,
        s.evictions,
        s.epochs_frozen,
        s.merges,
    );
    (mirror != engine).then(|| {
        format!(
            "cache mirror (hits, misses, evictions, epochs frozen, merges) = {mirror:?}, \
             engine = {engine:?}"
        )
    })
}

#[derive(Clone)]
enum Snap {
    Plain(Arc<GainSnapshot>),
    Weighted(Arc<WeightedGainSnapshot>),
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Plain(u32, u32, u32),
    Weighted(u32, u32, u64),
}

/// The engine's snapshot-cache policy replayed from outside: LRU over a
/// byte budget, per-epoch snapshots merged for ranges spanning epochs.
struct Mirror {
    map: BTreeMap<Key, (Snap, u64, u64)>,
    clock: u64,
    budget: u64,
    counts: MirrorCounts,
}

impl Mirror {
    fn get(&mut self, key: &Key) -> Option<Snap> {
        self.clock += 1;
        let entry = self.map.get_mut(key)?;
        entry.2 = self.clock;
        Some(entry.0.clone())
    }

    fn insert(&mut self, key: Key, snap: Snap, bytes: u64) {
        self.clock += 1;
        self.map.insert(key, (snap, bytes, self.clock));
        let mut total: u64 = self.map.values().map(|e| e.1).sum();
        while total > self.budget && self.map.len() > 1 {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.2)
                .map(|(k, _)| *k)
                .expect("another entry exists");
            total -= self.map.remove(&victim).expect("victim present").1;
            self.counts.evictions += 1;
        }
    }
}

fn signature(pool: &RrCollection, end: u32) -> u32 {
    pool.epoch_boundaries().partition_point(|&b| b <= end) as u32
}

/// `range` cut at the sealed epoch boundaries: `(segment, is_full_epoch)`.
fn segments(pool: &RrCollection, range: &Range<u32>) -> Vec<(Range<u32>, bool)> {
    let mut out = Vec::new();
    let (mut pos, mut epoch_start) = (range.start, 0u32);
    for &bound in pool.epoch_boundaries() {
        let epoch = epoch_start..bound;
        epoch_start = bound;
        if epoch.end <= pos {
            continue;
        }
        if epoch.start >= range.end {
            break;
        }
        let seg = pos.max(epoch.start)..range.end.min(epoch.end);
        if seg.start < seg.end {
            pos = seg.end;
            let full = seg == epoch;
            out.push((seg, full));
        }
    }
    if pos < range.end {
        out.push((pos..range.end, false));
    }
    out
}

fn build_plain(
    pool: &RrCollection,
    range: Range<u32>,
    tr: &mut Tracer,
    m: &mut Mirror,
) -> Arc<GainSnapshot> {
    m.counts.builds += 1;
    tr.span("snapshot", "build", || {
        Arc::new(GainSnapshot::build(&CoverageView::build(pool, range)))
    })
}

fn epoch_snapshot(
    pool: &RrCollection,
    epoch: &Range<u32>,
    tr: &mut Tracer,
    m: &mut Mirror,
) -> Arc<GainSnapshot> {
    let key = Key::Plain(epoch.start, epoch.end, signature(pool, epoch.end));
    if let Some(Snap::Plain(s)) = tr.span("cache", "lookup", || m.get(&key)) {
        return s;
    }
    let built = build_plain(pool, epoch.clone(), tr, m);
    m.counts.epochs_frozen += 1;
    let bytes = built.memory_bytes();
    tr.span("cache", "insert", || m.insert(key, Snap::Plain(built.clone()), bytes));
    built
}

fn plain_snapshot(
    pool: &RrCollection,
    range: &Range<u32>,
    tr: &mut Tracer,
    m: &mut Mirror,
) -> Arc<GainSnapshot> {
    let key = Key::Plain(range.start, range.end, signature(pool, range.end));
    if let Some(Snap::Plain(s)) = tr.span("cache", "lookup", || m.get(&key)) {
        m.counts.hits += 1;
        return s;
    }
    m.counts.misses += 1;
    let segs = segments(pool, range);
    let built = if segs.len() <= 1 || !segs.iter().any(|(_, full)| *full) {
        build_plain(pool, range.clone(), tr, m)
    } else {
        let parts: Vec<Arc<GainSnapshot>> = segs
            .iter()
            .map(|(seg, full)| {
                if *full {
                    epoch_snapshot(pool, seg, tr, m)
                } else {
                    build_plain(pool, seg.clone(), tr, m)
                }
            })
            .collect();
        m.counts.merges += 1;
        tr.span("snapshot", "merge", || {
            let refs: Vec<&GainSnapshot> = parts.iter().map(Arc::as_ref).collect();
            Arc::new(GainSnapshot::merge(&refs))
        })
    };
    let bytes = built.memory_bytes();
    tr.span("cache", "insert", || m.insert(key, Snap::Plain(built.clone()), bytes));
    built
}

fn weighted_snapshot(
    pool: &RrCollection,
    range: &Range<u32>,
    topic: u64,
    weights: &Arc<[f64]>,
    tr: &mut Tracer,
    m: &mut Mirror,
) -> Arc<WeightedGainSnapshot> {
    let key = Key::Weighted(range.start, range.end, topic);
    if let Some(Snap::Weighted(s)) = tr.span("cache", "lookup", || m.get(&key)) {
        m.counts.hits += 1;
        return s;
    }
    m.counts.misses += 1;
    m.counts.builds += 1;
    let built = tr.span("snapshot", "build", || {
        Arc::new(WeightedGainSnapshot::build(&CoverageView::build(pool, range.clone()), weights))
    });
    let bytes = built.memory_bytes() + (weights.len() * std::mem::size_of::<f64>()) as u64;
    tr.span("cache", "insert", || m.insert(key, Snap::Weighted(built.clone()), bytes));
    built
}

/// Replays the round: growths on a copy of the published pool, and every
/// batch planned, resolved and selected through public calls. Each
/// replayed answer's seeds must equal the served answer's.
fn replay(
    cfg: &TrafficConfig,
    fx: &Fixture,
    round: &Round,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> MirrorCounts {
    let ctx = context(&fx.graph, cfg.pool_seed, cfg.engine_threads);
    let sampler = ctx.sampler(0);
    let mut pool: Arc<RrCollection> = fx.base.clone();
    let mut mirror = Mirror {
        map: BTreeMap::new(),
        clock: 0,
        budget: cfg.cache_budget.unwrap_or(fx.reference.stats().budget_bytes),
        counts: MirrorCounts::default(),
    };
    let mut scratch = GreedyScratch::new();
    let mut growth = round.growth_log.iter().peekable();
    let (mut seal_entries, mut clone_bytes, mut selects, mut seeds_out) = (0u64, 0u64, 0u64, 0u64);
    let (mut sets, mut entries, mut edges) = (0u64, 0u64, 0u64);
    for (b, (batch, answers, known_len)) in round.batches.iter().enumerate() {
        tr.set_request(b as u64);
        while let Some(&&(at, len)) = growth.peek() {
            if at > b {
                break;
            }
            growth.next();
            // Grower::extend: clone the published pool, sample, seal one
            // epoch, freeze its snapshot.
            clone_bytes += pool.memory_bytes();
            let mut next = tr.span("collection", "clone", || (*pool).clone());
            let from = next.len() as u64;
            let (entries0, edges0) = (next.total_nodes(), next.total_edges_examined());
            tr.span("diffusion", "extend", || {
                next.extend_parallel(&sampler, from, cfg.grow_sets, cfg.engine_threads)
            });
            let pending = next.total_nodes();
            entries += pending - entries0;
            edges += next.total_edges_examined() - edges0;
            let _ = tr.span("collection", "seal", || next.seal_parallel(cfg.engine_threads));
            seal_entries += pending;
            sets += cfg.grow_sets;
            if next.len() as u64 != len {
                out.fail(format!("replayed growth reached {} sets, the grower {len}", next.len()));
            }
            let epoch =
                u32::try_from(from).expect("u32 ids")..u32::try_from(next.len()).expect("u32 ids");
            pool = Arc::new(next);
            let built = build_plain(&pool, epoch.clone(), tr, &mut mirror);
            mirror.counts.epochs_frozen += 1;
            let key = Key::Plain(epoch.start, epoch.end, signature(&pool, epoch.end));
            let bytes = built.memory_bytes();
            tr.span("cache", "insert", || mirror.insert(key, Snap::Plain(built), bytes));
        }
        let plan = tr.span("planner", "plan", || BatchPlan::build(batch, *known_len));
        for group in plan.groups() {
            let members = group.members.iter().map(|&i| (&batch[i], &answers[i]));
            let seeds: Vec<(Vec<u32>, &SeedAnswer)> = match group.key {
                GroupKey::Plain { start, end } => {
                    let snap = plain_snapshot(&pool, &(start..end), tr, &mut mirror);
                    members
                        .map(|(q, a)| {
                            let c = SeedConstraints { forced: &q.forced, excluded: &q.excluded };
                            let view = snap.view(&pool);
                            let name = if q.budget.is_some() { "budgeted" } else { "plain" };
                            let s = tr.span("coverage", name, || match q.budget {
                                Some(budget) => {
                                    view.select_budgeted_from_snapshot(
                                        &snap,
                                        budget,
                                        &q.costs,
                                        &c,
                                        &mut scratch,
                                    )
                                    .seeds
                                }
                                None => {
                                    view.select_from_snapshot_constrained(
                                        &snap,
                                        q.k,
                                        &c,
                                        &mut scratch,
                                    )
                                    .seeds
                                }
                            });
                            (s, a)
                        })
                        .collect()
                }
                GroupKey::Topic { start, end, topic } => {
                    let weights =
                        batch[group.members[0]].root_weights.clone().expect("topic query");
                    let snap =
                        weighted_snapshot(&pool, &(start..end), topic, &weights, tr, &mut mirror);
                    members
                        .map(|(q, a)| {
                            let c = SeedConstraints { forced: &q.forced, excluded: &q.excluded };
                            let view = snap.view(&pool);
                            let s = tr.span("coverage", "weighted", || {
                                view.select_weighted_from_snapshot(
                                    &snap,
                                    q.k,
                                    &weights,
                                    &c,
                                    &mut scratch,
                                )
                                .seeds
                            });
                            (s, a)
                        })
                        .collect()
                }
                GroupKey::Solo { .. } => {
                    out.fail("the query mix has no untopiced weighted queries".into());
                    Vec::new()
                }
            };
            for (s, a) in seeds {
                selects += 1;
                seeds_out += s.len() as u64;
                if s != a.seeds {
                    out.fail(format!("replayed selection diverged in batch {b}"));
                }
            }
        }
    }
    let m: &mut Metrics = &mut out.metrics;
    let sample_ms = tr.busy_ms("diffusion", None);
    m.set("diffusion.sample_ms", sample_ms);
    m.set("diffusion.sets", sets as f64);
    m.set("diffusion.entries", entries as f64);
    m.set("diffusion.edges_examined", edges as f64);
    m.set("diffusion.ns_per_edge", sample_ms * 1e6 / edges.max(1) as f64);
    m.set("collection.seal_ms", tr.busy_ms("collection", Some("seal")));
    m.set("collection.seal_entries", seal_entries as f64);
    m.set("collection.clone_ms", tr.busy_ms("collection", Some("clone")));
    m.set("collection.clone_mib", clone_bytes as f64 / MIB);
    let select_ms = tr.busy_ms("coverage", None);
    m.set("coverage.select_ms", select_ms);
    m.set("coverage.selects", selects as f64);
    for kind in ["plain", "budgeted", "weighted"] {
        let spans = tr.count("coverage", kind);
        let us = tr.busy_ms("coverage", Some(kind)) * 1e3 / spans.max(1) as f64;
        m.set(&format!("coverage.{kind}_us"), us);
    }
    m.set("coverage.us_per_seed", select_ms * 1e3 / seeds_out.max(1) as f64);
    m.set("snapshot.build_ms", tr.busy_ms("snapshot", Some("build")));
    m.set("snapshot.merge_ms", tr.busy_ms("snapshot", Some("merge")));
    m.set("planner.plan_us", tr.busy_ms("planner", None) * 1e3);
    mirror.counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(cfg: &TrafficConfig) -> RoundCounters {
        let (fx, _) = build_fixture(cfg, 5);
        let a = run_round(cfg, &fx, 5, false);
        let b = run_round(cfg, &fx, 5, false);
        assert_eq!(a.counters, b.counters);
        let mut out = Outcome::default();
        verify(&a, &fx.reference, &mut out);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        a.counters
    }

    #[test]
    fn tiny_serve_counters_are_exact_across_runs_and_threads() {
        let one = counters(&TrafficConfig::tiny(0, 1));
        let two = counters(&TrafficConfig::tiny(0, 2));
        assert_eq!(one, two);
        assert!(one.stats.snapshot_hits > 0 && one.stats.planner_groups > 0);
    }

    #[test]
    fn tiny_grow_counters_are_exact_and_answers_match_the_reference() {
        let cfg = TrafficConfig::tiny(6, 1);
        let (fx, _) = build_fixture(&cfg, 9);
        let a = run_round(&cfg, &fx, 9, false);
        let b = run_round(&cfg, &fx, 9, false);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.counters.growths, 6);
        let reference = grown_reference(&cfg, &fx, a.counters.final_len);
        let mut out = Outcome::default();
        verify(&a, &reference, &mut out);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    /// The replay's cache mirror counts exactly what the engine counts.
    #[test]
    fn tiny_cache_mirror_follows_the_engine() {
        // A budget small enough that the cold ranges evict.
        let cfg = TrafficConfig { cache_budget: Some(400_000), ..TrafficConfig::tiny(0, 1) };
        let (fx, _) = build_fixture(&cfg, 6);
        let round = run_round(&cfg, &fx, 6, true);
        let mut out = Outcome::default();
        let mirror = replay(&cfg, &fx, &round, &mut Tracer::default(), &mut out);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(mirror_mismatch(&mirror, &round.counters.stats), None);
        let s = &round.counters.stats;
        assert!(s.evictions > 0 && s.merges > 0 && s.snapshot_hits > 0, "{s:?}");
    }

    #[test]
    fn tiny_replay_reproduces_every_answer() {
        for cfg in [TrafficConfig::tiny(0, 2), TrafficConfig::tiny(6, 1)] {
            let out = run_traced(&cfg, 4, &mut Tracer::default());
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            assert!(out.metrics.get("coverage.selects").unwrap() > 0.0);
        }
    }
}

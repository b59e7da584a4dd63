//! The frozen-pool seed-query engine — the serving-side counterpart of
//! the one-shot SSA/D-SSA solvers.
//!
//! A solver run ends with a pool of RR sets whose greedy cover *is* the
//! answer; a service wants to keep that pool and answer many follow-up
//! questions against it: different budgets `k`, different pool slices,
//! "what if these influencers are unavailable" (excluded seeds), "we
//! already signed these" (forced seeds), and "how does it look for
//! *this* target group" (per-query weighted universes via TVM root
//! weights). [`SeedQueryEngine`] keeps a pool, freezes initial-gain
//! state in [`sns_rrset::GainSnapshot`]s, and answers [`SeedQuery`]
//! batches through the batch planner, thread-parallel across plan
//! groups; every answering thread reuses its own thread-local
//! [`GreedyScratch`].
//!
//! Every answer takes one path: the query resolves the frozen state it
//! selects from (one cache lookup — shared by a whole plan group), the
//! selection kernel [`CoverageView::select`] runs the query's objective
//! ([`Count`], [`Weighted`] or, for budgeted queries, [`Ratio`]) from
//! it — unless the entry's greedy prefix memo already holds the answer
//! (see below) — and one tail builds the [`SeedAnswer`]. Results are
//! **bit-identical** to calling [`sns_rrset::max_coverage_with`] (or
//! the kernel) directly, and batch answers are independent of thread
//! count and batch composition.
//!
//! # Epoch-incremental snapshots and the cache policy
//!
//! Snapshots are frozen **per sealed pool epoch** (the id ranges
//! [`RrCollection::epoch_boundaries`] exposes) and merged at query time
//! for ranges spanning several epochs — gain histograms sum, the heap
//! seed is rebuilt from the merged histogram, and the merged result is
//! cached per range. Because epoch boundaries are append-only,
//! [`SeedQueryEngine::extend`]ing the pool invalidates **nothing**: it
//! freezes only the new epoch, and every previously
//! cached snapshot keeps serving (a full-pool query after growth merges
//! the old epochs with the one new snapshot instead of rebuilding from
//! scratch). Each snapshot also carries its slice's rebased CSR offsets,
//! so a steady-state cache hit does zero `O(range_len)` view-rebase
//! work.
//!
//! The cache is LRU with a byte budget
//! ([`SeedQueryEngine::with_cache_budget`]): every entry — per-epoch,
//! merged, or weighted-by-topic ([`sns_rrset::WeightedGainSnapshot`],
//! keyed by the [`SeedQuery::topic`] id so repeated TVM queries skip the
//! per-query weighted histogram pass) — is accounted, least-recently-used
//! entries are evicted when the budget overflows, and hit/miss/evict
//! counters are surfaced through [`QueryStats`]. Eviction only ever
//! costs a rebuild, never correctness.
//!
//! Each cache entry also keeps a **greedy prefix memo**: lazy greedy is
//! prefix-consistent, so the top-`k` answer over a frozen snapshot is
//! the first `k` picks of the top-`K` run for any `k ≤ K`. The memo
//! holds the selection order and marginal gains of the deepest
//! memo-eligible answer served from the entry, and a query it covers is
//! answered by slicing it instead of running the kernel. Eligible are
//! queries with no forced and no excluded seeds that are top-`k`
//! ([`Count`], or [`Weighted`] on a topic entry) at depth `min(k, n)`,
//! or a [`NodeCosts::Uniform`] budget `B ≥ 1` — the bit-identical
//! degeneration to top-`⌊B⌋` — at depth `min(⌊B⌋, n)`. Per-node costs,
//! constraints and one-off weight vectors always run the kernel. The
//! memo is read after the snapshot resolve, so [`QueryStats`] counts
//! exactly what it counts without it; memo answers are bit-identical
//! to kernel answers (see the `cache` module for the publish protocol
//! and the memo's memory bound).
//!
//! # Grow-while-serving
//!
//! The engine's pool lives behind an [`EpochDirectory`]: an immutable,
//! fully sealed [`RrCollection`] per published generation. Every query
//! entry point pins the current generation with **one atomic load** —
//! no reader-side lock exists anywhere on the serving path (enforced by
//! `sns-lint locks/blocking`) — validates against that pin, and answers
//! from it, so each answer is bit-identical to a direct query against
//! one published pool prefix (linearizable at the pin).
//! [`SeedQueryEngine::grower`] hands out the single-writer growth
//! handle: [`Grower::extend`] clones the published pool, samples the
//! continuation of the deterministic stream, seals one new epoch,
//! pre-freezes its [`GainSnapshot`], and publishes the grown pool as
//! the next generation — writers never block readers, readers never
//! block writers.
//!
//! See `docs/ARCHITECTURE.md` (repository root) for the full pipeline,
//! epoch lifecycle, and concurrency-model diagrams.

use std::cell::RefCell;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sns_diffusion::RootDist;
use sns_graph::NodeId;
use sns_rrset::{
    Count, CoverageView, EpochDirectory, GainInit, GainSnapshot, GreedyScratch, NodeCosts,
    PoolStore, Ratio, Recovery, RrCollection, SaveStats, SeedConstraints, StoreFingerprint,
    Weighted, WeightedCoverageResult, WeightedGainSnapshot,
};

use crate::cache::{CacheKey, CachedSnapshot, PrefixMemo, SnapshotCache};
use crate::grower::{Grower, GrowerState, GrowthOutcome};
use crate::planner::BatchPlan;
use crate::{CoreError, RunResult, SamplingContext};

/// One seed-selection question against a frozen pool. Construct with
/// [`SeedQuery::top_k`] and refine with the builder methods; the
/// defaults mean "plain greedy over the whole pool".
#[derive(Debug, Clone, Default)]
pub struct SeedQuery {
    /// Seed budget (clamped to the node count like the solvers).
    pub k: usize,
    /// Pool id slice to select over; `None` means the whole pool.
    pub range: Option<Range<u32>>,
    /// Seeds selected unconditionally first, consuming budget and
    /// coverage (e.g. influencers already under contract).
    pub forced: Vec<NodeId>,
    /// Nodes the answer must never contain — not even as padding.
    pub excluded: Vec<NodeId>,
    /// Per-node target weights `b(v)`: when set, the query maximizes the
    /// covered *weight* mass (`w_set = b(root)`, uniform-root pools) and
    /// the influence estimate becomes a targeted influence. See
    /// `sns_rrset::snapshot` for the estimator. Shared by `Arc` so
    /// constructing and cloning queries never copies the n-length vector
    /// (`sns_tvm::TargetWeights::seed_query` hands out the same
    /// allocation for every query on a topic).
    pub root_weights: Option<Arc<[f64]>>,
    /// Stable identity of the weight vector, for snapshot reuse: queries
    /// carrying the same topic id (and therefore the same weights — the
    /// caller's contract, verified by `Arc` identity) share one cached
    /// [`sns_rrset::WeightedGainSnapshot`] per range instead of
    /// re-running the weighted gain pass. `sns_tvm::TargetWeights` sets
    /// this automatically; leave `None` for one-off weight vectors.
    pub topic: Option<u64>,
    /// Cost budget `B` replacing the cardinality constraint: when set,
    /// seeds are picked by cost-effectiveness (`gain/cost`) until no
    /// affordable node remains, and `k` is ignored. See
    /// [`SeedQuery::with_budget`].
    pub budget: Option<f64>,
    /// Per-node selection costs for budgeted queries (ignored without a
    /// budget). Defaults to [`NodeCosts::Uniform`]; per-node vectors are
    /// shared and compared by `Arc` identity like `root_weights`.
    pub costs: NodeCosts,
}

impl SeedQuery {
    /// The plain question: the best `k` seeds over the whole pool.
    pub fn top_k(k: usize) -> Self {
        SeedQuery { k, ..SeedQuery::default() }
    }

    /// The budgeted question: the best seeds affordable within `budget`
    /// over the whole pool, at uniform unit costs until
    /// [`SeedQuery::with_costs`] supplies a vector.
    pub fn budgeted(budget: f64) -> Self {
        SeedQuery { budget: Some(budget), ..SeedQuery::default() }
    }

    /// Restricts selection to a pool id slice.
    pub fn over_range(mut self, range: Range<u32>) -> Self {
        self.range = Some(range);
        self
    }

    /// Pre-selects `seeds` (in order) before the greedy loop.
    pub fn with_forced(mut self, seeds: Vec<NodeId>) -> Self {
        self.forced = seeds;
        self
    }

    /// Forbids `nodes` from appearing in the answer.
    pub fn with_excluded(mut self, nodes: Vec<NodeId>) -> Self {
        self.excluded = nodes;
        self
    }

    /// Targets the query at the group weighted by `weights` (one
    /// finite nonnegative entry per node). Accepts a `Vec<f64>` or an
    /// already-shared `Arc<[f64]>`; pass the same `Arc` across queries
    /// to avoid re-validating allocations.
    pub fn with_root_weights(mut self, weights: impl Into<Arc<[f64]>>) -> Self {
        self.root_weights = Some(weights.into());
        self
    }

    /// Declares the weight vector's stable identity (see
    /// [`SeedQuery::topic`]). Must accompany `root_weights`; the same id
    /// must always name the same weights. Hand-managed ids should stay
    /// below `1 << 63` — `sns_tvm::TargetWeights` mints its automatic
    /// ids from the upper half, so the namespaces never collide. (A
    /// collision is detected by `Arc` identity and only costs cache
    /// thrash, never a wrong answer.)
    pub fn with_topic(mut self, topic_id: u64) -> Self {
        self.topic = Some(topic_id);
        self
    }

    /// Replaces the cardinality constraint with a cost budget `B`: the
    /// answer picks seeds by cost-effectiveness until the budget is
    /// exhausted ([`sns_rrset::BudgetedCoverageResult`] semantics, with
    /// the `max(greedy, best single)` guarantee). `k` is ignored while a
    /// budget is set; with [`NodeCosts::Uniform`] and `budget = k` the
    /// answer is bit-identical to the plain top-`k` path. Incompatible
    /// with `root_weights`/`topic` — per-node *benefits* fold into
    /// sampling instead (WRIS roots drawn ∝ `b(v)` via
    /// [`SamplingContext::with_weighted_roots`]), keeping the selection
    /// objective a plain coverage count.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets per-node selection costs for a budgeted query (requires
    /// [`SeedQuery::with_budget`]). Pass the same [`NodeCosts`] value —
    /// for per-node vectors, the same `Arc` — across queries: like topic
    /// weights, cost vectors are compared by identity, never deep-scanned
    /// twice.
    pub fn with_costs(mut self, costs: NodeCosts) -> Self {
        self.costs = costs;
        self
    }
}

/// Answer to one [`SeedQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeedAnswer {
    /// Selected seeds, in selection order (forced seeds first).
    pub seeds: Vec<NodeId>,
    /// Covered in-range sets (unweighted queries) or covered weight mass
    /// (weighted queries).
    pub covered: f64,
    /// `Γ·covered/|slice|` — the Lemma-1 influence estimate of `seeds`
    /// over the queried slice (targeted influence for weighted queries).
    pub influence_estimate: f64,
    /// Marginal (weighted) coverage gain of each seed when selected.
    pub marginal_gains: Vec<f64>,
    /// The pool id slice the query ran over.
    pub range: Range<u32>,
}

/// Snapshot-cache and query counters of a [`SeedQueryEngine`], as
/// returned by [`SeedQueryEngine::stats`]. All counters are cumulative
/// since engine construction. Under concurrent batches a racing
/// double-build can count one extra miss/build (the winners' entries are
/// identical, so correctness is unaffected); sequential use is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Unweighted queries answered from a cached (range-level) snapshot.
    pub snapshot_hits: u64,
    /// Unweighted queries that had to build or merge a snapshot.
    pub snapshot_misses: u64,
    /// Topic-keyed weighted queries answered from a cached
    /// [`WeightedGainSnapshot`].
    pub weighted_hits: u64,
    /// Topic-keyed weighted queries that had to build one. (Weighted
    /// queries without a topic id are always uncached and count nowhere.)
    pub weighted_misses: u64,
    /// Cache entries evicted by the byte budget.
    pub evictions: u64,
    /// Per-epoch [`GainSnapshot`]s frozen (each epoch at most once,
    /// unless evicted and re-needed).
    pub epochs_frozen: u64,
    /// Multi-epoch merges materialized ([`GainSnapshot::merge`]).
    pub merges: u64,
    /// Bytes currently held by cached snapshots.
    pub cached_bytes: u64,
    /// The configured cache byte budget.
    pub budget_bytes: u64,
    /// Batches executed through the planner
    /// ([`SeedQueryEngine::answer_planned`]).
    pub planned_batches: u64,
    /// Planner groups formed across all planned batches (one snapshot
    /// resolution each).
    pub planner_groups: u64,
    /// Snapshot resolutions saved by grouping: queries beyond the first
    /// of their group ([`crate::planner::BatchPlan::builds_saved`]).
    pub planner_builds_saved: u64,
}

/// Default snapshot-cache budget: plenty for tens of frozen ranges on
/// million-node pools, small next to the pool arena itself.
const DEFAULT_CACHE_BUDGET: u64 = 128 << 20;

/// Drains the batch answer slots in query order. Every slot is filled by
/// construction (each index is claimed by exactly one worker / plan
/// group); an empty slot means a bug in this crate and surfaces as
/// [`CoreError::Internal`] rather than a panic, per the panic-path
/// contract.
fn collect_answers(slots: Vec<OnceLock<SeedAnswer>>) -> Result<Vec<SeedAnswer>, CoreError> {
    let mut answers = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner() {
            Some(answer) => answers.push(answer),
            None => return Err(CoreError::Internal("a batch answer slot was never filled")),
        }
    }
    Ok(answers)
}

/// The frozen selection state a pre-validated query resolves to: one
/// cache lookup, shared by every member of a plan group it
/// [serves](Resolved::serves).
enum Resolved {
    /// Top-k and budgeted queries: the range's plain snapshot and its
    /// cache entry's prefix memo.
    Plain(Arc<GainSnapshot>, Arc<PrefixMemo>),
    /// Topic-weighted queries: the `(range, topic)` weighted snapshot,
    /// the weights it was built with and the entry's prefix memo.
    Topic(Arc<WeightedGainSnapshot>, Arc<[f64]>, Arc<PrefixMemo>),
    /// One-off weight vectors: nothing cached, a fresh weighted gain pass
    /// per query.
    Fresh(Arc<[f64]>),
}

impl Resolved {
    /// Whether `query` (over the same range) may be answered from this
    /// state: any unweighted query from a plain snapshot, a weighted one
    /// only from state built with its very weight vector (`Arc`
    /// identity).
    fn serves(&self, query: &SeedQuery) -> bool {
        match (self, &query.root_weights) {
            (Resolved::Plain(..), None) => true,
            (Resolved::Topic(_, w, _) | Resolved::Fresh(w), Some(q)) => Arc::ptr_eq(w, q),
            _ => false,
        }
    }

    /// The prefix memo of the cache entry this state came from — none
    /// for one-off weights, which cache nothing.
    fn memo(&self) -> Option<&PrefixMemo> {
        match self {
            Resolved::Plain(_, memo) | Resolved::Topic(_, _, memo) => Some(memo),
            Resolved::Fresh(_) => None,
        }
    }
}

thread_local! {
    /// Selection scratch reused by every answering thread — its
    /// stamp/gain tables stay at high-water size instead of costing an
    /// `O(n + range)` allocation-plus-zeroing per query or batch, which
    /// would rival the very histogram work the snapshot path saves.
    /// Thread-local rather than engine-owned so no answer path acquires
    /// a mutex.
    static ANSWER_SCRATCH: RefCell<GreedyScratch> = RefCell::new(GreedyScratch::new());
}

/// Runs `f` with this thread's [`ANSWER_SCRATCH`]. Scratch state is
/// generation-stamped and fully re-initialized per selection, so what an
/// earlier selection left in it never shows in an answer. A re-entrant
/// borrow (an answer path called from within one — impossible today)
/// falls back to a fresh scratch rather than panicking on a serving path.
fn with_answer_scratch<R>(f: impl FnOnce(&mut GreedyScratch) -> R) -> R {
    ANSWER_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut GreedyScratch::new()),
    })
}

/// A directory of sealed RR-set pool generations plus an
/// epoch-incremental snapshot cache, serving [`SeedQuery`] batches while
/// a [`Grower`] publishes new generations (see the module docs).
#[derive(Debug)]
pub struct SeedQueryEngine {
    /// The pool directory: one immutable, fully sealed [`RrCollection`]
    /// per published generation. Queries pin the current generation with
    /// one atomic load; the [`Grower`] publishes new generations through
    /// the writer handle in [`SeedQueryEngine::writer`]. The directory
    /// never outlives the writer (both live here), which is the
    /// [`EpochDirectory`] liveness contract.
    pub(crate) directory: Arc<EpochDirectory<RrCollection>>,
    /// Per-epoch, merged-range and weighted-by-topic snapshots with LRU
    /// eviction — lock-free lookups, copy-on-write inserts (see
    /// [`SnapshotCache`]). Snapshot contents are a pure function of the
    /// sealed pool slice (and weights), so a racing double-build is
    /// harmless — both instances are identical and either may be cached.
    pub(crate) cache: SnapshotCache,
    gamma: f64,
    pub(crate) threads: usize,
    /// The writer-side state ([`GrowerState`]): the directory publish
    /// handle plus the deterministic sample cursor, serialized behind
    /// the engine's only growth lock. No query path touches it.
    pub(crate) writer: Mutex<GrowerState>,
    /// Sampling identity of the pool, set by the constructors that know
    /// it ([`SeedQueryEngine::sample`], [`SeedQueryEngine::from_store`])
    /// and required by [`SeedQueryEngine::save`]. `None` for
    /// [`SeedQueryEngine::from_pool`] engines, whose pool provenance the
    /// engine cannot vouch for.
    fingerprint: Option<StoreFingerprint>,
}

impl SeedQueryEngine {
    /// Freezes `pool` for serving as directory generation 0. `gamma` is
    /// the universe mass behind influence estimates (`n` for uniform-root
    /// pools, `Σ b(v)` if the pool itself was WRIS-sampled).
    pub fn from_pool(pool: RrCollection, gamma: f64) -> Self {
        let next_sample_index = pool.len() as u64;
        let (directory, dir_writer) = EpochDirectory::new(Arc::new(pool));
        SeedQueryEngine {
            directory,
            cache: SnapshotCache::new(DEFAULT_CACHE_BUDGET),
            gamma,
            threads: 1,
            writer: Mutex::new(GrowerState { dir_writer, next_sample_index }),
            fingerprint: None,
        }
    }

    /// Samples a fresh `count`-set pool from `ctx` (stream 0, the same
    /// deterministic stream the solvers draw from, parallel per
    /// `ctx.threads()`) and freezes it. The paper's estimate-then-select
    /// split as a service: size the pool once with the RIS thresholds of
    /// [`crate::bounds`] or a prior [`crate::Ssa`]/[`crate::Dssa`] run,
    /// then answer every follow-up question from the frozen samples.
    pub fn sample(ctx: &SamplingContext<'_>, count: u64) -> Self {
        let mut pool = RrCollection::new(ctx.graph().num_nodes());
        pool.extend_parallel(&ctx.sampler(0), 0, count, ctx.threads());
        let mut engine = Self::from_pool(pool, ctx.gamma()).with_threads(ctx.threads());
        engine.fingerprint = Some(Self::context_fingerprint(ctx));
        engine
    }

    /// The [`StoreFingerprint`] a context's sampling identity maps to:
    /// what [`SeedQueryEngine::save`] records and
    /// [`SeedQueryEngine::from_store`] demands back.
    fn context_fingerprint(ctx: &SamplingContext<'_>) -> StoreFingerprint {
        let roots = match ctx.roots() {
            RootDist::Uniform => "uniform",
            RootDist::Weighted(_) => "weighted",
        };
        let mut meta = vec![("roots".to_string(), roots.to_string())];
        // Content checksum of the root weight vector: Γ alone cannot
        // distinguish two vectors with equal mass, so a persisted
        // weighted pool must refuse to reload under a permuted vector
        // loudly instead of silently mis-serving.
        if let Some(ck) = ctx.roots_checksum() {
            meta.push(("roots_checksum".to_string(), format!("{ck:#018x}")));
        }
        StoreFingerprint {
            graph_hash: ctx.graph().content_hash(),
            num_nodes: ctx.graph().num_nodes(),
            model: ctx.model().short_name().to_string(),
            rng_seed: ctx.seed(),
            gamma: ctx.gamma(),
            meta,
        }
    }

    /// Attaches stopping-rule provenance from a solver run to the
    /// engine's fingerprint, so a saved store records *why* the pool has
    /// its size (binding condition, iterations, set counts). No
    /// effect on [`SeedQueryEngine::from_pool`] engines — they carry no
    /// fingerprint and cannot be saved in the first place.
    pub fn with_run_metadata(mut self, run: &RunResult) -> Self {
        if let Some(fp) = &mut self.fingerprint {
            fp.meta.extend([
                ("binding".to_string(), format!("{:?}", run.binding)),
                ("iterations".to_string(), run.iterations.to_string()),
                ("rr_sets_main".to_string(), run.rr_sets_main.to_string()),
                ("rr_sets_verify".to_string(), run.rr_sets_verify.to_string()),
                ("influence_estimate".to_string(), run.influence_estimate.to_string()),
                ("hit_cap".to_string(), run.hit_cap.to_string()),
            ]);
        }
        self
    }

    /// The engine's sampling fingerprint, if its constructor knew one.
    pub fn fingerprint(&self) -> Option<&StoreFingerprint> {
        self.fingerprint.as_ref()
    }

    /// Persists the frozen pool to the store directory at `dir`
    /// ([`sns_rrset::PoolStore`]): checksummed per-epoch segments plus an
    /// atomically committed manifest carrying the engine's fingerprint.
    /// Incremental — saving after [`SeedQueryEngine::extend`] writes only
    /// the new epochs. Requires a fingerprint, i.e. an engine built by
    /// [`SeedQueryEngine::sample`] or [`SeedQueryEngine::from_store`]
    /// (use [`sns_rrset::PoolStore::save`] directly to persist a foreign
    /// pool under a hand-made fingerprint).
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<SaveStats, CoreError> {
        let fingerprint = self.fingerprint.as_ref().ok_or_else(|| {
            CoreError::InvalidParams(
                "engine carries no sampling fingerprint (built with from_pool); \
                 only sample()/from_store() engines know what to record"
                    .into(),
            )
        })?;
        Ok(PoolStore::at(dir.as_ref()).save(&self.pool(), fingerprint)?)
    }

    /// Loads a pool saved by [`SeedQueryEngine::save`] and freezes it for
    /// serving — the "bake then serve" restart path that skips
    /// resampling. Every epoch is checksum-verified, and the store's
    /// fingerprint must match `ctx`'s sampling identity (same graph
    /// content, model, seed, Γ), so a store can never silently serve
    /// answers for a different network. The fingerprint is checked on
    /// the manifest alone before any epoch is read, so a store baked for
    /// another sampling identity is refused without being decoded.
    /// Strict: any damage is a typed [`CoreError::Store`]; see
    /// [`SeedQueryEngine::from_store_recovering`] for the
    /// salvage-the-prefix alternative.
    pub fn from_store(dir: impl AsRef<Path>, ctx: &SamplingContext<'_>) -> Result<Self, CoreError> {
        let (store, expected) = Self::matching_store(dir.as_ref(), ctx)?;
        let (pool, fingerprint) = store.load(ctx.threads())?;
        Self::engine_from_loaded(pool, fingerprint, &expected, ctx)
    }

    /// Like [`SeedQueryEngine::from_store`], but recovers the longest
    /// valid epoch prefix when the store is damaged: the engine serves
    /// the verified sets immediately, and because sampling is
    /// deterministic per index, `engine.extend(ctx, sets_lost)`
    /// regenerates the lost tail bit-identically. Manifest damage and
    /// fingerprint mismatches are still hard errors.
    pub fn from_store_recovering(
        dir: impl AsRef<Path>,
        ctx: &SamplingContext<'_>,
    ) -> Result<(Self, Recovery), CoreError> {
        let (store, expected) = Self::matching_store(dir.as_ref(), ctx)?;
        let (pool, fingerprint, recovery) = store.load_recovering(ctx.threads())?;
        Ok((Self::engine_from_loaded(pool, fingerprint, &expected, ctx)?, recovery))
    }

    /// Opens the store at `dir` after checking its manifest's fingerprint
    /// against `ctx`'s, before any epoch is decoded; returns the
    /// expected fingerprint for the recheck after loading.
    fn matching_store(
        dir: &Path,
        ctx: &SamplingContext<'_>,
    ) -> Result<(PoolStore, StoreFingerprint), CoreError> {
        let store = PoolStore::at(dir);
        let expected = Self::context_fingerprint(ctx);
        store.read_fingerprint()?.matches_sampling(&expected)?;
        Ok((store, expected))
    }

    fn engine_from_loaded(
        pool: RrCollection,
        fingerprint: StoreFingerprint,
        expected: &StoreFingerprint,
        ctx: &SamplingContext<'_>,
    ) -> Result<Self, CoreError> {
        // Checked again on the manifest `load` read: a save may have
        // committed between the two reads.
        fingerprint.matches_sampling(expected)?;
        let mut engine = Self::from_pool(pool, fingerprint.gamma).with_threads(ctx.threads());
        engine.fingerprint = Some(fingerprint);
        Ok(engine)
    }

    /// Sets the worker-thread budget for
    /// [`SeedQueryEngine::answer_planned`] (answers never depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the snapshot-cache byte budget (default 128 MiB). When
    /// cached snapshots exceed it, least-recently-used entries are
    /// evicted; an evicted range is rebuilt on its next query, so the
    /// budget trades latency for memory, never correctness. Answers do
    /// not depend on it.
    pub fn with_cache_budget(self, bytes: u64) -> Self {
        self.cache.set_budget(bytes);
        self
    }

    /// Grows the pool while serving: samples `additional` sets
    /// (continuing the deterministic stream, so the result is
    /// bit-identical to having sampled the final size up front), seals
    /// them as **one new epoch**, and publishes the grown pool as the
    /// next directory generation. Nothing cached is invalidated — epoch
    /// boundaries are append-only, so every previously frozen snapshot
    /// keeps serving its range, and the new epoch's snapshot is frozen
    /// at publish time. This is the serving side of the SSA/D-SSA
    /// doubling schedule: the pool keeps extending, queries keep
    /// answering, and snapshot work stays proportional to the *growth*,
    /// not the pool.
    ///
    /// Convenience for [`SeedQueryEngine::grower`]'s
    /// [`Grower::extend`], which needs only `&self` — use the grower
    /// directly to grow a shared engine while other threads answer.
    pub fn extend(&mut self, ctx: &SamplingContext<'_>, additional: u64) -> GrowthOutcome {
        self.grower().extend(ctx, additional)
    }

    /// The single-writer growth handle (see [`Grower`]). Needs only
    /// `&self`: one thread can grow while others answer from the same
    /// shared engine. Concurrent growers serialize on the writer mutex.
    pub fn grower(&self) -> Grower<'_> {
        Grower::new(self)
    }

    /// The currently published directory generation (0 after
    /// construction, bumped by every epoch-publishing
    /// [`Grower::extend`]).
    pub fn generation(&self) -> u64 {
        self.directory.generation()
    }

    /// The engine's pool directory — pin generations directly when a
    /// caller needs to hold several pool versions at once (tests, audit
    /// tooling); queries pin internally.
    pub fn directory(&self) -> &Arc<EpochDirectory<RrCollection>> {
        &self.directory
    }

    /// The engine's cumulative cache/query counters.
    pub fn stats(&self) -> QueryStats {
        self.cache.stats()
    }

    /// The currently published pool generation, pinned: the returned
    /// `Arc` stays valid (and bit-identical) forever, even across
    /// concurrent growth — later generations are new pools, not
    /// mutations of this one.
    pub fn pool(&self) -> Arc<RrCollection> {
        self.directory.pin().1
    }

    /// The universe mass Γ behind influence estimates.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Answers one query against the currently published pool
    /// generation (pinned with one atomic load — no locks on this
    /// path), reusing a thread-local selection scratch. Per-range gain
    /// snapshots are cached either way.
    pub fn answer(&self, query: &SeedQuery) -> Result<SeedAnswer, CoreError> {
        let (_, pool) = self.directory.pin();
        self.validate(query, &pool)?;
        Ok(with_answer_scratch(|scratch| self.answer_validated(query, &pool, scratch)))
    }

    /// Answers a batch through the batch planner: queries are grouped by
    /// the snapshot they need ([`crate::planner::BatchPlan`] — the pool
    /// range for plain queries, `(range, topic)` for topic-weighted
    /// ones) and each group resolves its snapshot **exactly once**,
    /// shared by every member. Answers are bit-identical to answering
    /// each query with [`SeedQueryEngine::answer`] (property-tested):
    /// planning changes who pays for a snapshot resolution, never the
    /// answer. The whole batch is validated before any work starts.
    /// Workers parallelize across *groups*, so the win condition is
    /// skewed traffic — many queries over few distinct (range, topic)
    /// keys — exactly what production batches look like. The plan's group and sharing counts are
    /// recorded in [`QueryStats`].
    pub fn answer_planned(&self, queries: &[SeedQuery]) -> Result<Vec<SeedAnswer>, CoreError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        // One pin for the whole batch: every member is validated and
        // answered against the same pool generation, so a batch racing
        // concurrent growth is equivalent to running entirely before or
        // entirely after the publish.
        let (_, pool) = self.directory.pin();
        for (i, q) in queries.iter().enumerate() {
            self.validate(q, &pool)
                .map_err(|e| CoreError::InvalidParams(format!("query {i}: {e}")))?;
        }
        let plan = BatchPlan::build(queries, pool.id_range().end);
        self.cache.note_planned(plan.num_groups() as u64, plan.builds_saved());
        let groups = plan.groups();
        let slots: Vec<OnceLock<SeedAnswer>> = queries.iter().map(|_| OnceLock::new()).collect();
        // Workers claim groups in order; which worker answers a group
        // never changes its answer.
        let next = AtomicUsize::new(0);
        let work = || {
            with_answer_scratch(|scratch| loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                let Some(group) = groups.get(g) else { break };
                self.answer_group(queries, &group.members, &pool, scratch, &slots);
            })
        };
        let workers = self.threads.min(groups.len()).max(1);
        if workers == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }
        collect_answers(slots)
    }

    /// Executes one plan group: the first member resolves the group's
    /// snapshot once, and every member it serves is answered from it.
    /// Members it cannot serve (a same-topic-different-weights contract
    /// breach) resolve their own — degraded sharing, never a wrong
    /// answer.
    fn answer_group(
        &self,
        queries: &[SeedQuery],
        members: &[usize],
        pool: &RrCollection,
        scratch: &mut GreedyScratch,
        slots: &[OnceLock<SeedAnswer>],
    ) {
        // Member indices come from `BatchPlan::build` over these same
        // queries, so every lookup below succeeds and every slot is set
        // exactly once. The serving path still refuses to panic on a
        // broken invariant: an out-of-range member is skipped (surfacing
        // as `CoreError::Internal` when the answers are collected) and a
        // double set is ignored — answers are deterministic, so a second
        // set would be value-identical.
        let mut shared: Option<Resolved> = None;
        for &i in members {
            let Some(query) = queries.get(i) else { continue };
            let range = query.range.clone().unwrap_or_else(|| pool.id_range());
            let shared = shared.get_or_insert_with(|| self.resolve(query, pool, &range));
            let answer = if shared.serves(query) {
                self.answer_with(query, pool, range, shared, scratch)
            } else {
                self.answer_validated(query, pool, scratch)
            };
            if let Some(slot) = slots.get(i) {
                let _ = slot.set(answer);
            }
        }
    }

    /// Validates `query` against one pinned pool generation — the same
    /// generation the caller will answer from, so bounds cannot shift
    /// between validation and selection under concurrent growth.
    fn validate(&self, query: &SeedQuery, pool: &RrCollection) -> Result<(), CoreError> {
        let err = |msg: String| Err(CoreError::InvalidParams(msg));
        let n = pool.num_nodes();
        if query.k == 0 && query.budget.is_none() {
            return err("k must be >= 1".into());
        }
        if let Some(r) = &query.range {
            if r.start > r.end || r.end as usize > pool.len() {
                return err(format!("range {r:?} out of bounds for a pool of {} sets", pool.len()));
            }
        }
        if let Some(budget) = query.budget {
            if !budget.is_finite() || budget <= 0.0 {
                return err(format!("budget {budget} is not finite and positive"));
            }
            if query.root_weights.is_some() {
                return err(
                    "budgeted queries run on uniform-root pools; per-node benefits fold into \
                     sampling (SamplingContext::with_weighted_roots), not into the selection \
                     objective"
                        .into(),
                );
            }
            if let NodeCosts::PerNode(c) = &query.costs {
                if c.len() != n as usize {
                    return err(format!("{} costs for {n} nodes", c.len()));
                }
                if let Some((v, &bad)) =
                    c.iter().enumerate().find(|(_, c)| !c.is_finite() || **c <= 0.0)
                {
                    return err(format!("cost c({v}) = {bad} is not finite and positive"));
                }
            }
        } else if matches!(query.costs, NodeCosts::PerNode(_)) {
            return err("per-node costs set without a budget".into());
        }
        // The selection kernel's forced-seed rule: distinct forced seeds,
        // charged in order, must fit the budget — unit costs against `k`
        // for top-k queries (whose costs are uniform, checked above).
        // Duplicates are selected and charged once.
        let budget = query.budget.unwrap_or(query.k.min(n as usize) as f64);
        let mut remaining = budget;
        let mut charged: Vec<NodeId> = Vec::new();
        for &v in query.forced.iter().filter(|&&v| v < n) {
            if !charged.contains(&v) {
                charged.push(v);
                let c = query.costs.cost(v);
                if c > remaining {
                    return err(format!("distinct forced seeds overrun the budget {budget}"));
                }
                remaining -= c;
            }
        }
        for &v in query.forced.iter().chain(&query.excluded) {
            if v >= n {
                return err(format!("node {v} out of range (n = {n})"));
            }
        }
        if let Some(f) = query.forced.iter().find(|f| query.excluded.contains(f)) {
            return err(format!("node {f} is both forced and excluded"));
        }
        if let Some(w) = &query.root_weights {
            if w.len() != n as usize {
                return err(format!("{} weights for {n} nodes", w.len()));
            }
            if let Some((v, &bad)) = w.iter().enumerate().find(|(_, w)| !w.is_finite() || **w < 0.0)
            {
                return err(format!("weight b({v}) = {bad} is not finite and nonnegative"));
            }
        } else if query.topic.is_some() {
            return err("topic id set without root weights".into());
        }
        Ok(())
    }

    /// Answers a pre-validated query. Infallible and side-effect-free
    /// modulo the snapshot cache — the invariant the parallel batch path
    /// relies on.
    fn answer_validated(
        &self,
        query: &SeedQuery,
        pool: &RrCollection,
        scratch: &mut GreedyScratch,
    ) -> SeedAnswer {
        let range = query.range.clone().unwrap_or_else(|| pool.id_range());
        let resolved = self.resolve(query, pool, &range);
        self.answer_with(query, pool, range, &resolved, scratch)
    }

    /// Resolves the frozen state a pre-validated query selects from over
    /// `range` — exactly the grouping the planner keys on. Top-k and
    /// budgeted queries share the range's plain snapshot (snapshots are
    /// cost-agnostic); topic-weighted queries use the `(range, topic)`
    /// weighted snapshot; one-off weight vectors cache nothing.
    fn resolve(&self, query: &SeedQuery, pool: &RrCollection, range: &Range<u32>) -> Resolved {
        match (&query.root_weights, query.topic) {
            (Some(weights), Some(topic)) => {
                let (snap, memo) = self.weighted_snapshot_for(pool, range, topic, weights);
                Resolved::Topic(snap, Arc::clone(weights), memo)
            }
            (Some(weights), None) => Resolved::Fresh(Arc::clone(weights)),
            (None, _) => {
                let (snap, memo) = self.snapshot_for(pool, range);
                Resolved::Plain(snap, memo)
            }
        }
    }

    /// How many greedy picks `query` asks for, if its answer is a prefix
    /// of the greedy order its resolved snapshot's memo records: no
    /// forced or excluded seeds, and either a top-`k` query (plain or
    /// topic-weighted) at depth `min(k, n)`, or a uniform-cost budget
    /// `B ≥ 1` — the bit-identical degeneration to top-`⌊B⌋` — at depth
    /// `min(⌊B⌋, n)`. Per-node costs and constrained queries keep running
    /// the kernel, and so do budgets below one unit, which afford no seed.
    fn memo_depth(query: &SeedQuery, n: u32) -> Option<usize> {
        if !query.forced.is_empty() || !query.excluded.is_empty() {
            return None;
        }
        let n = n as usize;
        match (query.budget, &query.costs) {
            (None, _) => Some(query.k.min(n)),
            // `as` saturates, and a budget past the node count picks all n.
            (Some(budget), NodeCosts::Uniform) if budget >= 1.0 => {
                Some((budget.floor() as usize).min(n))
            }
            (Some(_), _) => None,
        }
    }

    /// The one answer tail: answers a pre-validated query from its
    /// resolved state and builds the [`SeedAnswer`]. A query whose
    /// [memo depth](Self::memo_depth) the entry's prefix memo already
    /// holds is answered by slicing the memo; every other query runs the
    /// selection kernel — a frozen snapshot lends its offsets, so a
    /// cache hit skips the `O(range_len)` view rebase too — and offers a
    /// memo-eligible result back to the memo. With uniform costs and
    /// `budget = k`, a budgeted answer is bit-identical to the top-`k`
    /// one.
    fn answer_with(
        &self,
        query: &SeedQuery,
        pool: &RrCollection,
        range: Range<u32>,
        resolved: &Resolved,
        scratch: &mut GreedyScratch,
    ) -> SeedAnswer {
        let memo = resolved.memo().zip(Self::memo_depth(query, pool.num_nodes()));
        let r = match memo.and_then(|(memo, depth)| memo.prefix(depth)) {
            Some(prefix) => prefix,
            None => {
                let r = Self::select(query, pool, &range, resolved, scratch);
                if let Some((memo, _)) = memo {
                    memo.offer(&r);
                }
                r
            }
        };
        let len = f64::from(range.end - range.start);
        let influence_estimate = if len == 0.0 { 0.0 } else { self.gamma * r.covered_weight / len };
        SeedAnswer {
            seeds: r.seeds,
            covered: r.covered_weight,
            influence_estimate,
            marginal_gains: r.marginal_gains,
            range,
        }
    }

    /// Runs the selection kernel for a pre-validated query from its
    /// resolved state, with the query's own objective and constraints.
    fn select(
        query: &SeedQuery,
        pool: &RrCollection,
        range: &Range<u32>,
        resolved: &Resolved,
        scratch: &mut GreedyScratch,
    ) -> WeightedCoverageResult {
        let c = SeedConstraints { forced: &query.forced, excluded: &query.excluded };
        let k = query.k;
        match (resolved, query.budget) {
            (Resolved::Plain(snap, _), Some(budget)) => {
                let ratio = Ratio { budget, costs: &query.costs };
                snap.view(pool).select(ratio, GainInit::Frozen(snap), &c, scratch).into()
            }
            (Resolved::Plain(snap, _), None) => {
                snap.view(pool).select(Count { k }, GainInit::Frozen(snap), &c, scratch).into()
            }
            (Resolved::Topic(snap, weights, _), _) => {
                let weighted = Weighted { k, weights };
                snap.view(pool).select(weighted, GainInit::Frozen(snap), &c, scratch)
            }
            (Resolved::Fresh(weights), _) => CoverageView::build(pool, range.clone()).select(
                Weighted { k, weights },
                GainInit::Histogram,
                &c,
                scratch,
            ),
        }
    }

    /// Decomposes `range` against the sealed epoch boundaries into
    /// maximal segments: `(segment, is_full_epoch)`. Full epochs freeze
    /// reusable snapshots; partial head/tail segments (unaligned starts,
    /// pending sets past the last boundary) are built per merge.
    fn epoch_segments(pool: &RrCollection, range: &Range<u32>) -> Vec<(Range<u32>, bool)> {
        let mut segments = Vec::new();
        let mut pos = range.start;
        let mut epoch_start = 0u32;
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
                let full = seg == epoch;
                pos = seg.end;
                segments.push((seg, full));
            }
        }
        if pos < range.end {
            segments.push((pos..range.end, false));
        }
        segments
    }

    /// Returns the frozen snapshot for `range`, from cache or by
    /// building it — directly for single-segment ranges, by merging
    /// per-epoch snapshots (frozen once each, themselves cached) for
    /// ranges spanning several epochs. Counts one query-level hit or
    /// miss per call. Returns the cache entry's prefix memo alongside.
    fn snapshot_for(
        &self,
        pool: &RrCollection,
        range: &Range<u32>,
    ) -> (Arc<GainSnapshot>, Arc<PrefixMemo>) {
        let key = Self::plain_key(range);
        if let Some((CachedSnapshot::Plain(snap), memo)) = self.cache.get(&key) {
            self.cache.note_snapshot_hit();
            return (snap, memo);
        }
        self.cache.note_snapshot_miss();
        let segments = Self::epoch_segments(pool, range);
        let built = if segments.iter().filter(|(_, full)| *full).count() == 0 || segments.len() <= 1
        {
            // No reusable epoch inside (or the range *is* one epoch):
            // build in one pass.
            Self::build_plain(pool, range)
        } else {
            let parts: Vec<Arc<GainSnapshot>> = segments
                .iter()
                .map(|(seg, full)| {
                    if *full {
                        self.epoch_snapshot(pool, seg)
                    } else {
                        Self::build_plain(pool, seg)
                    }
                })
                .collect();
            let refs: Vec<&GainSnapshot> = parts.iter().map(Arc::as_ref).collect();
            let merged = Arc::new(GainSnapshot::merge(&refs));
            self.cache.note_merge();
            merged
        };
        let memo = self.cache.insert(key, CachedSnapshot::Plain(Arc::clone(&built)));
        (built, memo)
    }

    /// The frozen snapshot of one full epoch, from cache or built (and
    /// cached) now. Epoch lookups refresh LRU order but do not count as
    /// query-level hits/misses; builds count into `epochs_frozen`.
    fn epoch_snapshot(&self, pool: &RrCollection, epoch: &Range<u32>) -> Arc<GainSnapshot> {
        match self.cache.get(&Self::plain_key(epoch)) {
            Some((CachedSnapshot::Plain(snap), _)) => snap,
            _ => self.freeze_epoch(pool, epoch),
        }
    }

    /// Freezes one just-sealed epoch's snapshot into the cache —
    /// [`Grower::extend`]'s publish-time pre-freeze, so the first query
    /// against a grown pool finds the new epoch already cached instead
    /// of paying a build on the serving path. Each epoch is sealed
    /// exactly once, so this builds unconditionally (counting into
    /// `epochs_frozen` like any epoch build).
    pub(crate) fn freeze_epoch(
        &self,
        pool: &RrCollection,
        epoch: &Range<u32>,
    ) -> Arc<GainSnapshot> {
        let built = Self::build_plain(pool, epoch);
        self.cache.note_epoch_frozen();
        self.cache.insert(Self::plain_key(epoch), CachedSnapshot::Plain(Arc::clone(&built)));
        built
    }

    /// The plain-snapshot cache key of `range` (see [`CacheKey`]).
    fn plain_key(range: &Range<u32>) -> CacheKey {
        CacheKey::Plain { start: range.start, end: range.end }
    }

    /// A from-scratch plain snapshot of `range`.
    fn build_plain(pool: &RrCollection, range: &Range<u32>) -> Arc<GainSnapshot> {
        Arc::new(GainSnapshot::build(&CoverageView::build(pool, range.clone())))
    }

    /// The frozen weighted snapshot for `(range, topic)`, verified
    /// against the query's weight vector by `Arc` identity — an id
    /// collision with different weights degrades to a rebuild, never a
    /// wrong answer. Counts one weighted hit or miss per call. Returns
    /// the cache entry's prefix memo alongside.
    fn weighted_snapshot_for(
        &self,
        pool: &RrCollection,
        range: &Range<u32>,
        topic: u64,
        weights: &Arc<[f64]>,
    ) -> (Arc<WeightedGainSnapshot>, Arc<PrefixMemo>) {
        let key = CacheKey::Weighted { start: range.start, end: range.end, topic };
        if let Some((CachedSnapshot::Weighted(snap, cached_weights), memo)) = self.cache.get(&key) {
            if Arc::ptr_eq(&cached_weights, weights) {
                self.cache.note_weighted_hit();
                return (snap, memo);
            }
        }
        self.cache.note_weighted_miss();
        let built = Arc::new(WeightedGainSnapshot::build(
            &CoverageView::build(pool, range.clone()),
            weights,
        ));
        let memo = self
            .cache
            .insert(key, CachedSnapshot::Weighted(Arc::clone(&built), Arc::clone(weights)));
        (built, memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dssa, Params};
    use sns_diffusion::Model;
    use sns_graph::{gen, WeightModel};
    use sns_rrset::{max_coverage_with, StoreError};

    fn engine(sets: u64, seed: u64) -> SeedQueryEngine {
        let g = gen::erdos_renyi(300, 1800, seed).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(seed);
        SeedQueryEngine::sample(&ctx, sets)
    }

    /// The unplanned reference: every query answered on its own.
    fn answer_each(e: &SeedQueryEngine, batch: &[SeedQuery]) -> Vec<SeedAnswer> {
        batch.iter().map(|q| e.answer(q).unwrap()).collect()
    }

    #[test]
    fn engine_matches_direct_max_coverage() {
        let e = engine(2000, 1);
        for k in [1usize, 5, 20] {
            let ans = e.answer(&SeedQuery::top_k(k)).unwrap();
            let direct = max_coverage_with(&e.pool(), k, 0..2000, &mut GreedyScratch::new());
            assert_eq!(ans.seeds, direct.seeds, "k = {k}");
            assert_eq!(ans.covered, direct.covered as f64);
        }
        // ranged query against the matching direct call
        let ans = e.answer(&SeedQuery::top_k(4).over_range(500..1500)).unwrap();
        let direct = max_coverage_with(&e.pool(), 4, 500..1500, &mut GreedyScratch::new());
        assert_eq!(ans.seeds, direct.seeds);
        assert_eq!(ans.range, 500..1500);
    }

    #[test]
    fn batch_is_order_preserving_and_thread_invariant() {
        let e = engine(1500, 2);
        let queries: Vec<SeedQuery> = (1..=12)
            .map(|k| {
                let q = SeedQuery::top_k(k);
                if k % 2 == 0 {
                    q.over_range(0..750)
                } else {
                    q
                }
            })
            .collect();
        let sequential = e.answer_planned(&queries).unwrap();
        let parallel = engine(1500, 2).with_threads(4).answer_planned(&queries).unwrap();
        assert_eq!(sequential, parallel);
        for (k, ans) in (1..=12).zip(&sequential) {
            assert_eq!(ans.seeds.len(), k);
        }
    }

    #[test]
    fn snapshot_cache_serves_repeated_ranges() {
        let e = engine(1000, 3);
        let a = e.answer(&SeedQuery::top_k(3).over_range(0..500)).unwrap();
        let b = e.answer(&SeedQuery::top_k(3).over_range(0..500)).unwrap();
        assert_eq!(a, b);
        let s = e.stats();
        assert_eq!((s.snapshot_hits, s.snapshot_misses), (1, 1));
        e.answer(&SeedQuery::top_k(3)).unwrap();
        let s = e.stats();
        assert_eq!((s.snapshot_hits, s.snapshot_misses), (1, 2));
        assert!(s.cached_bytes > 0);
        assert_eq!(s.budget_bytes, 128 << 20);
        assert_eq!(s.evictions, 0);

        // Repeated top-k, uniform-budget and topic queries at growing k,
        // singly and planned: the prefix memo answers most of them, and
        // every counter stays exactly where the kernel-only engine left
        // it for the same sequence.
        let weights: Arc<[f64]> = (0..300u32).map(|v| f64::from(v % 7) * 0.3).collect();
        let mut batch = Vec::new();
        for k in [2usize, 5, 5, 9, 3, 12] {
            for range in [0..500, 0..1000, 250..750] {
                let queries = [
                    SeedQuery::top_k(k).over_range(range.clone()),
                    SeedQuery::budgeted(k as f64 + 0.5).over_range(range.clone()),
                    SeedQuery::top_k(k)
                        .over_range(range)
                        .with_root_weights(Arc::clone(&weights))
                        .with_topic(7),
                ];
                for q in &queries {
                    e.answer(q).unwrap();
                }
                batch.extend(queries);
            }
        }
        e.answer_planned(&batch).unwrap();
        let expected = QueryStats {
            snapshot_hits: 39,
            snapshot_misses: 3,
            weighted_hits: 18,
            weighted_misses: 3,
            evictions: 0,
            epochs_frozen: 0,
            merges: 0,
            cached_bytes: 70_888,
            budget_bytes: 128 << 20,
            planned_batches: 1,
            planner_groups: 6,
            planner_builds_saved: 48,
        };
        assert_eq!(e.stats(), expected);
    }

    #[test]
    fn growing_the_pool_freezes_only_the_new_epoch() {
        let g = gen::erdos_renyi(300, 1800, 8).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(8);
        let mut e = SeedQueryEngine::sample(&ctx, 1000);
        assert_eq!(e.pool().epoch_boundaries(), &[1000]);
        let old_epoch = e.answer(&SeedQuery::top_k(4).over_range(0..1000)).unwrap();

        e.extend(&ctx, 500);
        assert_eq!(e.pool().epoch_boundaries(), &[1000, 1500], "one new epoch, old one intact");
        // the grown pool is bit-identical to sampling 1500 up front
        let oneshot = SeedQueryEngine::sample(&ctx, 1500);
        let full = e.answer(&SeedQuery::top_k(4)).unwrap();
        assert_eq!(full, oneshot.answer(&SeedQuery::top_k(4)).unwrap());
        assert_eq!(full.range, 0..1500);
        // and the full-range answer merged the cached old epoch with one
        // newly frozen epoch instead of rebuilding from scratch
        let s = e.stats();
        assert_eq!(s.epochs_frozen, 1, "only the new epoch was frozen");
        assert_eq!(s.merges, 1);
        // the pre-growth snapshot still serves its range: pure cache hit
        let hits_before = s.snapshot_hits;
        assert_eq!(e.answer(&SeedQuery::top_k(4).over_range(0..1000)).unwrap(), old_epoch);
        let s = e.stats();
        assert_eq!(s.snapshot_hits, hits_before + 1, "extension must not invalidate old epochs");
        assert_eq!(s.epochs_frozen, 1);
    }

    #[test]
    fn empty_batch_returns_empty_without_touching_the_engine() {
        let e = engine(400, 12);
        let before = e.stats();
        assert_eq!(e.answer_planned(&[]).unwrap(), Vec::new());
        // no cache traffic, no planner accounting, no snapshot builds
        assert_eq!(e.stats(), before);
        assert_eq!(before.snapshot_misses, 0);
        assert_eq!(before.planned_batches, 0);
    }

    #[test]
    fn planned_batch_matches_unplanned_and_counts_groups() {
        let e = engine(2000, 20);
        // 9 queries over 3 distinct plain keys: full ×3, 0..1000 ×4,
        // 500..1500 ×2 — plus constraint variations inside a group.
        let batch = vec![
            SeedQuery::top_k(3),
            SeedQuery::top_k(5).over_range(0..1000),
            SeedQuery::top_k(7),
            SeedQuery::top_k(4).over_range(0..1000).with_excluded(vec![2]),
            SeedQuery::top_k(2).over_range(500..1500),
            SeedQuery::top_k(6).over_range(0..1000).with_forced(vec![1]),
            SeedQuery::top_k(9),
            SeedQuery::top_k(1).over_range(0..1000),
            SeedQuery::top_k(8).over_range(500..1500),
        ];
        let unplanned = answer_each(&e, &batch);
        let after_unplanned = e.stats();
        assert_eq!(
            (after_unplanned.snapshot_hits, after_unplanned.snapshot_misses),
            (6, 3),
            "unplanned: every query pays its own lookup"
        );
        let planned = e.answer_planned(&batch).unwrap();
        assert_eq!(planned, unplanned);
        let s = e.stats();
        assert_eq!(s.planned_batches, 1);
        assert_eq!(s.planner_groups, 3);
        assert_eq!(s.planner_builds_saved, 6, "9 queries over 3 shared snapshots");
        // the planned pass resolved each snapshot once: 3 lookups total
        // (all hits — the unplanned pass populated the cache), not 9
        assert_eq!(s.snapshot_hits - after_unplanned.snapshot_hits, 3, "{s:?}");
        assert_eq!(s.snapshot_misses, after_unplanned.snapshot_misses);
        // planned execution is thread-invariant too
        let planned4 = engine(2000, 20).with_threads(4).answer_planned(&batch).unwrap();
        assert_eq!(planned4, unplanned);
    }

    #[test]
    fn planned_topic_groups_share_and_breaches_degrade_gracefully() {
        let e = engine(1500, 21);
        let weights: Arc<[f64]> = (0..300).map(|v| if v % 3 == 0 { 2.0 } else { 0.0 }).collect();
        let same_topic_other_arc: Arc<[f64]> = weights.to_vec().into();
        let batch = vec![
            SeedQuery::top_k(4).with_root_weights(weights.clone()).with_topic(5),
            SeedQuery::top_k(6).with_root_weights(weights.clone()).with_topic(5),
            // same topic id, different Arc: the contract breach must fall
            // back to the per-query path, never produce a wrong answer
            SeedQuery::top_k(6).with_root_weights(same_topic_other_arc).with_topic(5),
            // no topic id: a solo group, per-query weighted path
            SeedQuery::top_k(4).with_root_weights(weights.clone()),
        ];
        let planned = e.answer_planned(&batch).unwrap();
        let unplanned = answer_each(&e, &batch);
        assert_eq!(planned, unplanned);
        let s = e.stats();
        // groups: {topic 5} ×3 members + solo — builds saved only counts
        // the shareable group's extra members
        assert_eq!(s.planner_groups, 2);
        assert_eq!(s.planner_builds_saved, 2);
    }

    #[test]
    fn forced_and_excluded_seeds_respected() {
        let e = engine(1200, 4);
        let plain = e.answer(&SeedQuery::top_k(5)).unwrap();
        let star = plain.seeds[0];
        let without = e.answer(&SeedQuery::top_k(5).with_excluded(vec![star])).unwrap();
        assert!(!without.seeds.contains(&star));
        assert!(without.covered <= plain.covered);
        let forced = e.answer(&SeedQuery::top_k(5).with_forced(vec![7, 9])).unwrap();
        assert_eq!(&forced.seeds[..2], &[7, 9]);
        assert_eq!(forced.seeds.len(), 5);
    }

    #[test]
    fn duplicate_forced_seeds_count_once_against_k() {
        // One forced-seed rule for top-k and budgeted queries alike: the
        // distinct forced seeds must fit, duplicates are taken once.
        let e = engine(1200, 4);
        let dup = e.answer(&SeedQuery::top_k(1).with_forced(vec![7, 7])).unwrap();
        assert_eq!(dup, e.answer(&SeedQuery::top_k(1).with_forced(vec![7])).unwrap());
        assert_eq!(dup.seeds, vec![7]);
        let planned = e.answer_planned(&[SeedQuery::top_k(1).with_forced(vec![7, 7])]).unwrap();
        assert_eq!(planned, vec![dup]);
        assert!(e.answer(&SeedQuery::top_k(1).with_forced(vec![7, 8])).is_err());
    }

    #[test]
    fn weighted_query_targets_the_group() {
        // Weight only nodes 0..30: the engine must report targeted
        // influence ≤ the group mass and pick seeds covering it.
        let e = engine(3000, 5);
        let mut w = vec![0.0f64; 300];
        for slot in w.iter_mut().take(30) {
            *slot = 1.0;
        }
        let ans = e.answer(&SeedQuery::top_k(5).with_root_weights(w.clone())).unwrap();
        assert_eq!(ans.seeds.len(), 5);
        // Γ_query = 30, estimate uses the engine's Γ = n with the
        // weighted coverage — bounded by the actual group reach
        assert!(ans.influence_estimate <= 30.0 * 1.5, "Î_T = {}", ans.influence_estimate);
        assert!(ans.covered > 0.0);
    }

    #[test]
    fn validation_rejects_malformed_queries() {
        let e = engine(500, 6);
        assert!(e.answer(&SeedQuery::top_k(0)).is_err());
        assert!(e.answer(&SeedQuery::top_k(1).over_range(0..501)).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let backwards = SeedQuery::top_k(1).over_range(10..5);
        assert!(e.answer(&backwards).is_err());
        assert!(e.answer(&SeedQuery::top_k(1).with_forced(vec![1, 2])).is_err());
        assert!(e.answer(&SeedQuery::top_k(1).with_forced(vec![300])).is_err());
        assert!(e
            .answer(&SeedQuery::top_k(3).with_forced(vec![5]).with_excluded(vec![5]))
            .is_err());
        assert!(e.answer(&SeedQuery::top_k(1).with_root_weights(vec![1.0; 3])).is_err());
        assert!(e.answer(&SeedQuery::top_k(1).with_root_weights(vec![-1.0; 300])).is_err());
        // a batch with one bad query fails closed, naming the query
        let batch = [SeedQuery::top_k(1), SeedQuery::top_k(0)];
        let err = e.answer_planned(&batch).unwrap_err().to_string();
        assert!(err.contains("query 1"), "{err}");
    }

    #[test]
    fn validation_rejects_malformed_budgeted_queries() {
        let e = engine(500, 6);
        assert!(e.answer(&SeedQuery::budgeted(f64::NAN)).is_err());
        assert!(e.answer(&SeedQuery::budgeted(f64::INFINITY)).is_err());
        assert!(e.answer(&SeedQuery::budgeted(0.0)).is_err());
        assert!(e.answer(&SeedQuery::budgeted(-2.0)).is_err());
        // per-node costs without a budget are meaningless
        let costs = NodeCosts::per_node(vec![1.0; 300].into());
        assert!(e.answer(&SeedQuery::top_k(3).with_costs(costs.clone())).is_err());
        // budgets and root weights don't compose (benefits fold into
        // sampling, not into the selection objective)
        assert!(e.answer(&SeedQuery::budgeted(3.0).with_root_weights(vec![1.0; 300])).is_err());
        // cost table must be one finite positive cost per node
        let short = NodeCosts::per_node(vec![1.0; 3].into());
        assert!(e.answer(&SeedQuery::budgeted(3.0).with_costs(short)).is_err());
        let bad = NodeCosts::per_node(
            (0..300).map(|v| if v == 7 { -1.0 } else { 1.0 }).collect::<Vec<_>>().into(),
        );
        assert!(e.answer(&SeedQuery::budgeted(3.0).with_costs(bad)).is_err());
        // forced seeds alone must fit the budget
        assert!(e.answer(&SeedQuery::budgeted(1.5).with_forced(vec![1, 2])).is_err());
        // ...but duplicates are charged once, like selection charges them
        assert!(e.answer(&SeedQuery::budgeted(1.5).with_forced(vec![1, 1])).is_ok());
        // well-formed budgeted queries pass
        assert!(e.answer(&SeedQuery::budgeted(3.0).with_costs(costs)).is_ok());
    }

    /// Fresh-histogram budgeted selection straight through the kernel.
    fn direct_budgeted(
        e: &SeedQueryEngine,
        budget: f64,
        costs: &NodeCosts,
        range: Range<u32>,
    ) -> sns_rrset::BudgetedCoverageResult {
        CoverageView::build(&e.pool(), range).select(
            Ratio { budget, costs },
            GainInit::Histogram,
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        )
    }

    #[test]
    fn budgeted_query_matches_direct_selection() {
        let e = engine(2000, 30);
        let costs: Arc<[f64]> = (0..300u32).map(|v| 0.5 + f64::from(v % 7)).collect();
        for budget in [0.5, 4.0, 12.5] {
            let q = SeedQuery::budgeted(budget).with_costs(NodeCosts::per_node(costs.clone()));
            let ans = e.answer(&q).unwrap();
            let direct = direct_budgeted(&e, budget, &q.costs, 0..2000);
            assert_eq!(ans.seeds, direct.seeds, "budget = {budget}");
            assert_eq!(ans.covered, direct.covered as f64);
            assert_eq!(
                ans.marginal_gains,
                direct.marginal_gains.iter().map(|&g| g as f64).collect::<Vec<_>>()
            );
            // Î = Γ · Cov/|R| with Γ = n = 300 over 2000 sets
            assert_eq!(ans.influence_estimate, 300.0 * direct.covered as f64 / 2000.0);
        }
        // ranged budgeted query against the matching direct call
        let q = SeedQuery::budgeted(6.0)
            .with_costs(NodeCosts::per_node(costs.clone()))
            .over_range(500..1500);
        let ans = e.answer(&q).unwrap();
        let direct = direct_budgeted(&e, 6.0, &q.costs, 500..1500);
        assert_eq!(ans.seeds, direct.seeds);
        assert_eq!(ans.range, 500..1500);
    }

    #[test]
    fn budgeted_uniform_costs_degenerate_to_top_k() {
        // Uniform costs + budget = k must be bit-identical to the plain
        // cardinality query — same seeds, same floats, same everything.
        let e = engine(1500, 31);
        let e4 = engine(1500, 31).with_threads(4);
        for k in [1usize, 4, 9] {
            for range in [None, Some(0..750u32), Some(300..1100u32)] {
                let mut topk = SeedQuery::top_k(k);
                let mut budgeted = SeedQuery::budgeted(k as f64);
                if let Some(r) = range.clone() {
                    topk = topk.over_range(r.clone());
                    budgeted = budgeted.over_range(r);
                }
                let expected = e.answer(&topk).unwrap();
                assert_eq!(e.answer(&budgeted).unwrap(), expected, "k = {k}, {range:?}");
                assert_eq!(e4.answer(&budgeted).unwrap(), expected, "4 threads");
            }
        }
        // constraints ride along unchanged
        let topk = SeedQuery::top_k(6).with_forced(vec![3]).with_excluded(vec![0, 11]);
        let budgeted = SeedQuery::budgeted(6.0).with_forced(vec![3]).with_excluded(vec![0, 11]);
        assert_eq!(e.answer(&budgeted).unwrap(), e.answer(&topk).unwrap());
    }

    #[test]
    fn planned_budgeted_batches_group_with_plain_queries() {
        let e = engine(2000, 32);
        let costs: Arc<[f64]> = (0..300u32).map(|v| 1.0 + f64::from(v % 3)).collect();
        let batch = vec![
            SeedQuery::top_k(3),
            SeedQuery::budgeted(4.0),
            SeedQuery::budgeted(6.0)
                .with_costs(NodeCosts::per_node(costs.clone()))
                .over_range(0..1000),
            SeedQuery::top_k(5).over_range(0..1000),
            SeedQuery::budgeted(2.5).with_costs(NodeCosts::per_node(costs)),
        ];
        let unplanned = answer_each(&e, &batch);
        let planned = e.answer_planned(&batch).unwrap();
        assert_eq!(planned, unplanned, "planned ≡ per-query");
        let s = e.stats();
        // budgeted queries share the plain snapshot groups: full range
        // {0, 1, 4} and 0..1000 {2, 3} — two groups, three builds saved
        assert_eq!(s.planner_groups, 2);
        assert_eq!(s.planner_builds_saved, 3);
        // planned execution is thread-invariant
        let planned4 = engine(2000, 32).with_threads(4).answer_planned(&batch).unwrap();
        assert_eq!(planned4, unplanned);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sns-engine-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn poisoned_mutexes_do_not_wedge_the_engine() {
        let g = gen::erdos_renyi(300, 1800, 9).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(9);
        let e = SeedQueryEngine::sample(&ctx, 600);
        let baseline = e.answer(&SeedQuery::top_k(3)).unwrap();
        // Poison both writer-side mutexes the way a crashed worker
        // would: panic while holding the lock.
        fn poison<T>(m: &Mutex<T>) {
            let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = m.lock().unwrap();
                panic!("worker dies holding the lock");
            }));
            assert!(crash.is_err());
            assert!(m.is_poisoned());
        }
        poison(&e.cache.writer);
        poison(&e.writer);
        // the engine still answers — bit-identically — and every
        // mutex-crossing entry point stays usable
        assert_eq!(e.answer(&SeedQuery::top_k(3)).unwrap(), baseline);
        assert!(e.answer_planned(&[SeedQuery::top_k(2), SeedQuery::top_k(4)]).is_ok());
        let _ = e.stats();
        let mut e = e.with_cache_budget(1 << 20);
        assert_eq!(e.answer(&SeedQuery::top_k(3)).unwrap(), baseline);
        // growth recovers the poisoned writer mutex too: the directory
        // and sample cursor were only mutated after fallible work
        let grown = e.extend(&ctx, 100);
        assert_eq!(grown.epoch(), Some(600..700));
        assert_eq!(grown.pool_len(), 700);
        assert_eq!(e.generation(), 1);
    }

    #[test]
    fn grower_reports_seal_outcome_and_generation() {
        let g = gen::erdos_renyi(300, 1800, 40).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(40);
        let mut e = SeedQueryEngine::sample(&ctx, 500);
        assert_eq!(e.generation(), 0);
        let grown = e.extend(&ctx, 250);
        assert_eq!(grown.generation(), 1);
        assert_eq!(grown.epoch(), Some(500..750));
        assert_eq!(grown.pool_len(), 750);
        assert_eq!(e.generation(), 1);
        // nothing pending: no epoch sealed, no generation churn
        let noop = e.extend(&ctx, 0);
        assert_eq!(noop.epoch(), None);
        assert_eq!(noop.generation(), 1);
        assert_eq!(noop.pool_len(), 750);
        assert_eq!(e.generation(), 1);
    }

    #[test]
    fn pinned_pools_survive_concurrent_growth() {
        let g = gen::erdos_renyi(300, 1800, 41).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(41);
        let e = SeedQueryEngine::sample(&ctx, 1000);
        let pool0 = e.pool();
        let before = e.answer(&SeedQuery::top_k(4).over_range(0..1000)).unwrap();
        // growth needs only &self: serving handles keep answering while
        // the grower publishes the next generation
        let grown = e.grower().extend(&ctx, 500);
        assert_eq!(grown.generation(), 1);
        assert_eq!(pool0.len(), 1000, "a pinned pool is immutable forever");
        assert_eq!(e.pool().len(), 1500);
        // the superseded generation stays reachable while pinned
        assert_eq!(e.directory().pin_generation(0).map(|p| p.len()), Some(1000));
        // and prefix answers are unchanged by the publish
        assert_eq!(e.answer(&SeedQuery::top_k(4).over_range(0..1000)).unwrap(), before);
    }

    #[test]
    fn store_refuses_a_permuted_root_weight_vector() {
        let g = gen::erdos_renyi(300, 1800, 42).build(WeightModel::WeightedCascade).unwrap();
        let weights: Vec<f64> = (0..300).map(|v| f64::from(v % 5 + 1)).collect();
        let mut permuted = weights.clone();
        permuted.reverse();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade)
            .with_seed(42)
            .with_weighted_roots(&weights)
            .unwrap();
        let e = SeedQueryEngine::sample(&ctx, 300);
        let dir = temp_dir("permuted-weights");
        e.save(&dir).unwrap();
        // same Γ (small-integer partial sums are exact in f64), same
        // graph, model and seed — only the content checksum can tell
        // the two vectors apart
        let wrong = SamplingContext::new(&g, Model::IndependentCascade)
            .with_seed(42)
            .with_weighted_roots(&permuted)
            .unwrap();
        assert_eq!(ctx.gamma().to_bits(), wrong.gamma().to_bits());
        let err = SeedQueryEngine::from_store(&dir, &wrong).unwrap_err();
        assert!(matches!(err, CoreError::Store(_)));
        assert!(err.to_string().contains("roots_checksum"), "{err}");
        // the original vector still loads and serves
        assert!(SeedQueryEngine::from_store(&dir, &ctx).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_load_round_trip_preserves_answers_and_metadata() {
        let g = gen::erdos_renyi(300, 1800, 13).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(21);
        let run = Dssa::new(Params::new(4, 0.3, 0.1).unwrap()).run(&ctx).unwrap();
        let baked = SeedQueryEngine::sample(&ctx, 1200).with_run_metadata(&run);
        let dir = temp_dir("roundtrip");
        let stats = baked.save(&dir).unwrap();
        assert!(stats.epochs_written >= 1);

        let served = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
        let queries: Vec<SeedQuery> = (1..=6).map(SeedQuery::top_k).collect();
        assert_eq!(
            served.answer_planned(&queries).unwrap(),
            baked.answer_planned(&queries).unwrap()
        );
        // stopping-rule provenance survives the round trip
        let fp = served.fingerprint().unwrap();
        assert!(fp.meta.iter().any(|(k, v)| k == "binding" && !v.is_empty()), "{fp:?}");
        assert!(fp.meta.iter().any(|(k, _)| k == "rr_sets_main"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extend_then_save_appends_only_new_epochs() {
        let g = gen::erdos_renyi(300, 1800, 14).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(22);
        let mut e = SeedQueryEngine::sample(&ctx, 800);
        let dir = temp_dir("extend");
        e.save(&dir).unwrap();
        e.extend(&ctx, 400);
        let stats = e.save(&dir).unwrap();
        assert_eq!((stats.epochs_reused, stats.epochs_written), (1, 1));

        let mut served = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
        assert_eq!(served.pool().epoch_boundaries(), e.pool().epoch_boundaries());
        assert_eq!(
            served.answer(&SeedQuery::top_k(5)).unwrap(),
            e.answer(&SeedQuery::top_k(5)).unwrap()
        );
        // the loaded engine continues the deterministic sample stream
        served.extend(&ctx, 300);
        let oneshot = SeedQueryEngine::sample(&ctx, 1500);
        assert_eq!(
            served.answer(&SeedQuery::top_k(5)).unwrap(),
            oneshot.answer(&SeedQuery::top_k(5)).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_prefix_plus_extend_reproduces_the_pool() {
        let g = gen::erdos_renyi(300, 1800, 18).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(25);
        let mut e = SeedQueryEngine::sample(&ctx, 500);
        e.extend(&ctx, 500); // two epochs on disk
        let dir = temp_dir("recover");
        e.save(&dir).unwrap();
        std::fs::remove_file(dir.join("epoch-00001.rr")).unwrap();

        assert!(matches!(SeedQueryEngine::from_store(&dir, &ctx), Err(CoreError::Store(_))));
        let (mut rec, recovery) = SeedQueryEngine::from_store_recovering(&dir, &ctx).unwrap();
        let Recovery::Recovered { epochs_lost, sets_lost } = recovery else {
            panic!("expected a recovery, got {recovery:?}")
        };
        assert_eq!((epochs_lost, sets_lost), (1, 500));
        // recovered-prefix answers ≡ a pool sampled to that prefix
        let prefix = SeedQueryEngine::sample(&ctx, 500);
        assert_eq!(
            rec.answer(&SeedQuery::top_k(4)).unwrap(),
            prefix.answer(&SeedQuery::top_k(4)).unwrap()
        );
        // resampling exactly the lost tail restores the full pool
        rec.extend(&ctx, sets_lost);
        assert_eq!(
            rec.answer(&SeedQuery::top_k(4)).unwrap(),
            e.answer(&SeedQuery::top_k(4)).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_store_refuses_a_different_sampling_identity() {
        let g = gen::erdos_renyi(300, 1800, 15).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(23);
        let e = SeedQueryEngine::sample(&ctx, 300);
        let dir = temp_dir("refuse");
        e.save(&dir).unwrap();
        let wrong_seed = SamplingContext::new(&g, Model::IndependentCascade).with_seed(24);
        assert!(matches!(SeedQueryEngine::from_store(&dir, &wrong_seed), Err(CoreError::Store(_))));
        let wrong_model = SamplingContext::new(&g, Model::LinearThreshold).with_seed(23);
        assert!(matches!(
            SeedQueryEngine::from_store(&dir, &wrong_model),
            Err(CoreError::Store(_))
        ));
        let g2 = gen::erdos_renyi(300, 1800, 99).build(WeightModel::WeightedCascade).unwrap();
        let wrong_graph = SamplingContext::new(&g2, Model::IndependentCascade).with_seed(23);
        assert!(matches!(
            SeedQueryEngine::from_store(&dir, &wrong_graph),
            Err(CoreError::Store(_))
        ));
        // the right context still loads
        assert!(SeedQueryEngine::from_store(&dir, &ctx).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_fingerprint_is_checked_before_any_epoch_is_read() {
        let g = gen::erdos_renyi(300, 1800, 16).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(26);
        let mut e = SeedQueryEngine::sample(&ctx, 300);
        e.extend(&ctx, 300); // two epochs on disk
        let dir = temp_dir("fingerprint-first");
        e.save(&dir).unwrap();
        std::fs::remove_file(dir.join("epoch-00001.rr")).unwrap();
        // a context for another graph is refused on the manifest alone,
        // before the missing epoch is ever looked for
        let g2 = gen::erdos_renyi(300, 1800, 98).build(WeightModel::WeightedCascade).unwrap();
        let other = SamplingContext::new(&g2, Model::IndependentCascade).with_seed(26);
        for err in [
            SeedQueryEngine::from_store(&dir, &other).unwrap_err(),
            SeedQueryEngine::from_store_recovering(&dir, &other).unwrap_err(),
        ] {
            assert!(
                matches!(err, CoreError::Store(StoreError::FingerprintMismatch { .. })),
                "{err}"
            );
        }
        // the matching context gets as far as the damage
        assert!(matches!(
            SeedQueryEngine::from_store(&dir, &ctx),
            Err(CoreError::Store(StoreError::Missing { .. }))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_pool_engines_cannot_save() {
        let g = gen::erdos_renyi(50, 200, 17).build(WeightModel::WeightedCascade).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade);
        let mut pool = sns_rrset::RrCollection::new(50);
        pool.extend_parallel(&ctx.sampler(0), 0, 50, 1);
        let e = SeedQueryEngine::from_pool(pool, 50.0);
        assert!(e.fingerprint().is_none());
        // fails before touching the filesystem — the path is never created
        let never = std::env::temp_dir().join("sns-engine-store-never-created");
        assert!(matches!(e.save(&never), Err(CoreError::InvalidParams(_))));
        assert!(!never.exists());
    }

    #[test]
    fn engine_reuses_a_solver_sized_pool() {
        // The intended deployment: D-SSA sizes the pool, the engine
        // serves from a pool of that size and reproduces the solution.
        let g = gen::erdos_renyi(300, 1800, 7).build(WeightModel::WeightedCascade).unwrap();
        let params = Params::new(5, 0.3, 0.1).unwrap();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(11);
        let run = Dssa::new(params).run(&ctx).unwrap();
        let e = SeedQueryEngine::sample(&ctx, run.rr_sets_main);
        // D-SSA selected over its find half [0, main/2)
        let ans =
            e.answer(&SeedQuery::top_k(5).over_range(0..run.rr_sets_main as u32 / 2)).unwrap();
        assert_eq!(ans.seeds, run.seeds, "engine must reproduce the solver's cover");
    }
}

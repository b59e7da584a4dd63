//! The engine's snapshot cache, restructured for lock-free reads.
//!
//! PR-4 made snapshots epoch-incremental; this module makes looking them
//! up wait-free for query workers. The map of cached snapshots is an
//! immutable [`BTreeMap`] published through an
//! [`EpochDirectory`](sns_rrset::EpochDirectory) — readers pin the
//! current map generation with one atomic load and search it without
//! acquiring anything. Mutation is copy-on-write behind a single writer
//! mutex: an insert clones the map, applies the change plus any LRU
//! evictions, and publishes the new map as the next generation. Readers
//! that pinned the old map keep using it (their `Arc` keeps it alive);
//! new lookups see the new one.
//!
//! LRU stamps ride *outside* the copy-on-write value: each entry is an
//! `Arc<CacheEntry>` shared by every published map generation, and its
//! `last_used` stamp is an atomic the lock-free read path updates in
//! place. Eviction order therefore sees every touch, even ones made
//! through older pinned maps. Counters are plain atomics; under
//! sequential use they reproduce the exact values the pre-refactor
//! locked cache reported (the engine's pinned counter tests keep
//! passing unchanged), and under concurrency they are exact except for
//! the documented racing double-build, which may count one extra miss.
//!
//! # The greedy prefix memo
//!
//! Lazy greedy is prefix-consistent: over one frozen snapshot, the top-k
//! answer is the first `k` picks of the top-`K` run for every `k ≤ K`.
//! Each entry therefore carries a [`PrefixMemo`] — the selection order
//! and marginal gains of the deepest memo-eligible answer served from
//! its snapshot so far — and the engine answers any query the memo
//! covers by slicing it instead of running the selection kernel (which
//! queries are eligible is the engine's call; see `engine.rs`). The
//! kernel stays the only code that makes a selection: a memo only ever
//! holds a kernel output, and it is replaced only by a longer one.
//!
//! Memo reads are lock-free like map reads: one [`EpochDirectory`] pin
//! on the entry's memo. A publish runs under `try_lock` and is simply
//! skipped when another worker holds the memo's writer — that worker is
//! publishing an equally valid prefix, and a skipped offer only costs a
//! later kernel run.
//!
//! Memo bytes are **not** charged against the byte budget: eviction
//! order — and with it every hit, miss, merge and eviction count —
//! stays exactly what it is without the memo. The bound is small: 12 B
//! per memoized pick (a 4-byte id and an 8-byte gain), so at most
//! 12 B × the deepest `k` served from the entry (itself at most the
//! node count), plus a fixed few hundred bytes for the memo's directory
//! and under 100 B for each superseded memo (its directory slot keeps a
//! weak pointer to the emptied allocation). Every publish lengthens the
//! memo, so an entry supersedes at most one memo per distinct depth
//! served from it. A memo is dropped with its entry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

use sns_graph::NodeId;
use sns_rrset::{
    DirectoryWriter, EpochDirectory, GainSnapshot, WeightedCoverageResult, WeightedGainSnapshot,
};

use crate::engine::QueryStats;

/// Key of one snapshot-cache entry. `Ord` because the cache map is a
/// `BTreeMap` — iteration order (and therefore any eviction tie-break)
/// must be deterministic, per the workspace determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum CacheKey {
    /// Unweighted snapshot of `start..end`, built when `epochs` sealed
    /// boundaries were ≤ `end`. With today's growth paths the signature
    /// is constant per range — every constructor and the grower fully
    /// seal the pool before publishing it, so no queried `end` ever
    /// gains a later boundary at or below it. It is part of the key so
    /// that a future non-sealing append path re-keys (rather than serves
    /// forever) entries that covered then-pending sets: the stale entry
    /// would still be *correct* (ranges are immutable), just built
    /// without the epoch structure, and ages out by LRU.
    Plain {
        /// Range start (pool set id).
        start: u32,
        /// Range end (exclusive).
        end: u32,
        /// Sealed-boundary count at or below `end` when built.
        epochs: u32,
    },
    /// Weighted snapshot of `start..end` under the weight vector named
    /// by `topic`. No epoch signature: weighted snapshots are built
    /// whole-range and an id range's contents never change.
    Weighted {
        /// Range start (pool set id).
        start: u32,
        /// Range end (exclusive).
        end: u32,
        /// The weight vector's stable identity ([`crate::SeedQuery::topic`]).
        topic: u64,
    },
}

/// One cached snapshot (see [`CacheKey`]).
#[derive(Debug, Clone)]
pub(crate) enum CachedSnapshot {
    Plain(Arc<GainSnapshot>),
    /// Holds the weight vector the snapshot was built with: `Arc`
    /// identity verifies the caller's same-topic-same-weights contract,
    /// and keeping the allocation alive ensures the address cannot be
    /// recycled into a false match.
    Weighted(Arc<WeightedGainSnapshot>, Arc<[f64]>),
}

impl CachedSnapshot {
    fn bytes(&self) -> u64 {
        match self {
            CachedSnapshot::Plain(s) => s.memory_bytes(),
            // The retained weight vector counts against the budget: the
            // cache entry keeps it alive even after the caller drops its
            // handle, so it is memory this cache pins.
            CachedSnapshot::Weighted(s, w) => {
                s.memory_bytes() + (w.len() * std::mem::size_of::<f64>()) as u64
            }
        }
    }
}

/// One cache entry. Shared by `Arc` across published map generations so
/// the atomic `last_used` stamp is one cell no matter how many map
/// versions reference the entry. (`pub(crate)` only because the
/// `writer` field it flows through is — nothing outside this module
/// touches entries.)
#[derive(Debug)]
pub(crate) struct CacheEntry {
    snap: CachedSnapshot,
    bytes: u64,
    /// LRU stamp, updated in place by lock-free readers.
    last_used: AtomicU64,
    /// Greedy picks already served from `snap` (not counted in `bytes`).
    memo: Arc<PrefixMemo>,
}

/// One published memo state: the first `seeds.len()` greedy picks over
/// an entry's snapshot and their marginal gains, as the kernel
/// returned them.
#[derive(Debug, Default)]
struct Prefix {
    seeds: Vec<NodeId>,
    gains: Vec<f64>,
}

/// The greedy prefix memo of one cache entry (see the module docs).
#[derive(Debug)]
pub(crate) struct PrefixMemo {
    /// The published prefix; readers pin it with one atomic load.
    published: Arc<EpochDirectory<Prefix>>,
    /// The publish handle, only ever taken with `try_lock`.
    writer: Mutex<DirectoryWriter<Prefix>>,
}

impl PrefixMemo {
    fn new() -> Self {
        let (published, writer) = EpochDirectory::new(Arc::new(Prefix::default()));
        PrefixMemo { published, writer: Mutex::new(writer) }
    }

    /// The first `depth` picks, if the memo holds that many — shaped as
    /// the kernel shapes them: `covered_weight` is the left fold of the
    /// gains from `0.0`, the same fold the weighted objective runs (and
    /// exact for count gains, whose sums are integers), so a prefix
    /// carries the kernel's bits. Lock-free: one directory pin.
    pub(crate) fn prefix(&self, depth: usize) -> Option<WeightedCoverageResult> {
        let (_, prefix) = self.published.pin();
        let seeds = prefix.seeds.get(..depth)?;
        let gains = prefix.gains.get(..depth)?;
        Some(WeightedCoverageResult {
            seeds: seeds.to_vec(),
            covered_weight: gains.iter().fold(0.0, |s, &g| s + g),
            marginal_gains: gains.to_vec(),
        })
    }

    /// Offers the kernel's selection for a memo-eligible query over the
    /// entry's snapshot — by prefix consistency, the first
    /// `picked.seeds.len()` picks of the greedy order. It is published
    /// only if it is longer than the current memo. Never
    /// blocks: a contended writer means another worker is publishing,
    /// and this offer is dropped. (A poisoned writer is recovered — the
    /// memo is only ever replaced whole, so no half-written state
    /// exists.)
    pub(crate) fn offer(&self, picked: &WeightedCoverageResult) {
        let mut writer = match self.writer.try_lock() {
            Ok(writer) => writer,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        if picked.seeds.len() > writer.current().seeds.len() {
            writer.publish(Arc::new(Prefix {
                seeds: picked.seeds.clone(),
                gains: picked.marginal_gains.clone(),
            }));
        }
    }
}

/// The published, immutable cache state: a snapshot-keyed map whose
/// values are shared entries (see [`CacheEntry`]).
type CacheMap = BTreeMap<CacheKey, Arc<CacheEntry>>;

/// Cumulative counters, all relaxed atomics — bumped from the lock-free
/// read path and the writer alike. See [`QueryStats`] for field
/// semantics.
#[derive(Debug, Default)]
struct CacheCounters {
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
    weighted_hits: AtomicU64,
    weighted_misses: AtomicU64,
    evictions: AtomicU64,
    epochs_frozen: AtomicU64,
    merges: AtomicU64,
    cached_bytes: AtomicU64,
    planned_batches: AtomicU64,
    planner_groups: AtomicU64,
    planner_builds_saved: AtomicU64,
}

/// The engine's snapshot cache: one map for per-epoch, merged-range and
/// weighted-by-topic snapshots, LRU-evicted against a byte budget.
/// Reads ([`SnapshotCache::get`], [`SnapshotCache::stats`]) acquire no
/// locks; only inserts serialize behind the writer mutex.
#[derive(Debug)]
pub(crate) struct SnapshotCache {
    /// The published map; readers pin it with one atomic load.
    map: Arc<EpochDirectory<CacheMap>>,
    /// The single-writer publish handle. `pub(crate)` so the engine's
    /// poison test can wound it the way a crashed worker would.
    pub(crate) writer: Mutex<DirectoryWriter<CacheMap>>,
    /// Monotone access clock backing the LRU order.
    clock: AtomicU64,
    /// Byte budget; plain atomic so reconfiguring it never blocks reads.
    budget: AtomicU64,
    counters: CacheCounters,
}

impl SnapshotCache {
    pub(crate) fn new(budget: u64) -> Self {
        let (map, writer) = EpochDirectory::new(Arc::new(CacheMap::new()));
        SnapshotCache {
            map,
            writer: Mutex::new(writer),
            clock: AtomicU64::new(0),
            budget: AtomicU64::new(budget),
            counters: CacheCounters::default(),
        }
    }

    /// Looks `key` up in the currently published map and refreshes its
    /// LRU stamp — no locks, one atomic pin. Returns the snapshot and
    /// the entry's prefix memo. Does not touch the hit/miss counters;
    /// the query-level callers decide what counts.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<(CachedSnapshot, Arc<PrefixMemo>)> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let (_, map) = self.map.pin();
        let entry = map.get(key)?;
        entry.last_used.store(now, Ordering::Relaxed);
        Some((entry.snap.clone(), Arc::clone(&entry.memo)))
    }

    /// Inserts (or replaces) `key` copy-on-write and publishes the new
    /// map, then evicts least-recently-used entries until the budget
    /// holds again. The entry just inserted is never evicted — a cache
    /// too small for one snapshot still serves it to its own query. The
    /// writer mutex recovers from poisoning: cache contents are pure
    /// functions of the sealed pool (at worst a half-done publish costs
    /// a rebuild), so a worker that panicked mid-insert must not wedge
    /// every subsequent miss. Returns the new entry's (empty) prefix
    /// memo.
    pub(crate) fn insert(&self, key: CacheKey, snap: CachedSnapshot) -> Arc<PrefixMemo> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let memo = Arc::new(PrefixMemo::new());
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut map: CacheMap = (**writer.current()).clone();
        let bytes = snap.bytes();
        let last_used = AtomicU64::new(now);
        map.insert(key, Arc::new(CacheEntry { snap, bytes, last_used, memo: Arc::clone(&memo) }));
        let budget = self.budget.load(Ordering::Relaxed);
        let mut total: u64 = map.values().map(|e| e.bytes).sum();
        // `len > 1` guarantees a non-inserted entry exists, but the
        // serving path must not panic on a broken invariant — a `None`
        // victim (impossible today) just stops evicting, leaving the
        // cache over budget until the next insert.
        while total > budget && map.len() > 1 {
            let victim = map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            let Some(evicted) = victim.and_then(|v| map.remove(&v)) else { break };
            total -= evicted.bytes;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.cached_bytes.store(total, Ordering::Relaxed);
        writer.publish(Arc::new(map));
        memo
    }

    /// Reconfigures the byte budget. Takes effect at the next insert;
    /// never blocks or invalidates readers.
    pub(crate) fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Assembles the cumulative counters — pure atomic loads, no locks.
    pub(crate) fn stats(&self) -> QueryStats {
        let c = &self.counters;
        QueryStats {
            snapshot_hits: c.snapshot_hits.load(Ordering::Relaxed),
            snapshot_misses: c.snapshot_misses.load(Ordering::Relaxed),
            weighted_hits: c.weighted_hits.load(Ordering::Relaxed),
            weighted_misses: c.weighted_misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            epochs_frozen: c.epochs_frozen.load(Ordering::Relaxed),
            merges: c.merges.load(Ordering::Relaxed),
            cached_bytes: c.cached_bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget.load(Ordering::Relaxed),
            planned_batches: c.planned_batches.load(Ordering::Relaxed),
            planner_groups: c.planner_groups.load(Ordering::Relaxed),
            planner_builds_saved: c.planner_builds_saved.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_snapshot_hit(&self) {
        self.counters.snapshot_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_snapshot_miss(&self) {
        self.counters.snapshot_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_weighted_hit(&self) {
        self.counters.weighted_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_weighted_miss(&self) {
        self.counters.weighted_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_merge(&self) {
        self.counters.merges.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_epoch_frozen(&self) {
        self.counters.epochs_frozen.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one planned batch: its group count and the snapshot
    /// resolutions its grouping saved.
    pub(crate) fn note_planned(&self, groups: u64, builds_saved: u64) {
        self.counters.planned_batches.fetch_add(1, Ordering::Relaxed);
        self.counters.planner_groups.fetch_add(groups, Ordering::Relaxed);
        self.counters.planner_builds_saved.fetch_add(builds_saved, Ordering::Relaxed);
    }
}

//! The single-writer growth handle: grow the pool while queries keep
//! serving, without a reader-side lock anywhere.
//!
//! [`Grower::extend`] clones the currently published pool, grows it by
//! `additional` deterministically sampled sets — one
//! [`RrCollection::extend_parallel`], which seals them as one new epoch —
//! pre-freezes the epoch's
//! [`GainSnapshot`](sns_rrset::GainSnapshot) into the engine's cache,
//! and publishes the grown pool as the next generation of the engine's
//! [`EpochDirectory`](sns_rrset::EpochDirectory). Query workers that
//! pinned the old generation keep answering against it untouched; new
//! queries pin the grown pool and find the new epoch's snapshot already
//! frozen — growth never induces a query-level cache miss.
//!
//! The clone-extend-publish shape is what makes the reader side
//! lock-free: readers never observe a pool mid-mutation because the pool
//! they pinned is immutable forever. The clone copies the set arena and
//! its offsets; the two tiers of the sealed inverted index are shared,
//! not copied. The growth's seal then counting-sorts only the new sets
//! and merges them behind the small recent tier into a fresh one, or,
//! once the recent tier would pass a quarter of the base, folds
//! everything into a fresh base; either way the published pool's tiers
//! stay untouched. Growth work is the `O(pool)` arena copy plus an
//! `O(recent + new)` merge, with the fold's whole-index copy amortized
//! over a quarter of the pool's sets; queries stay wait-free.
//!
//! Exclusive growth is enforced by a writer mutex on the engine
//! ([`SeedQueryEngine::grower`](crate::SeedQueryEngine::grower) hands
//! out borrows freely; concurrent `extend` calls serialize). That mutex
//! is the *only* lock growth takes, and no query path ever touches it.

use std::ops::Range;
use std::sync::{Arc, PoisonError};

use sns_rrset::{DirectoryWriter, RrCollection};

use crate::{SamplingContext, SeedQueryEngine};

/// The engine's writer-side state, owned by the engine behind its writer
/// mutex: the directory publish handle plus the deterministic sample
/// cursor.
#[derive(Debug)]
pub(crate) struct GrowerState {
    /// Publish handle of the engine's pool directory. Its `current()`
    /// value is always the latest published pool.
    pub(crate) dir_writer: DirectoryWriter<RrCollection>,
    /// Next sample index of the deterministic stream — growth continues
    /// where the constructor stopped, so a grown engine's pool is
    /// bit-identical to sampling the final size in one shot.
    pub(crate) next_sample_index: u64,
}

/// What one [`Grower::extend`] call did: the new epoch, if any, so a
/// grow loop can distinguish "nothing to add" from "a new epoch was
/// published".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthOutcome {
    generation: u64,
    epoch: Option<Range<u32>>,
    pool_len: u64,
}

impl GrowthOutcome {
    /// The directory generation serving after this call — a fresh one if
    /// an epoch was published, the unchanged current one otherwise.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The id range of the epoch the call sealed and published, or
    /// `None` if it added no sets.
    pub fn epoch(&self) -> Option<Range<u32>> {
        self.epoch.clone()
    }

    /// Sets in the pool this call left published.
    pub fn pool_len(&self) -> u64 {
        self.pool_len
    }
}

/// A borrowed growth handle on a [`SeedQueryEngine`] — see the module
/// docs. Obtain with [`SeedQueryEngine::grower`]; needs only `&self`, so
/// one thread can grow while others answer from the same shared engine.
#[derive(Debug)]
pub struct Grower<'e> {
    engine: &'e SeedQueryEngine,
}

impl<'e> Grower<'e> {
    pub(crate) fn new(engine: &'e SeedQueryEngine) -> Self {
        Grower { engine }
    }

    /// Grows the published pool by `additional` sets (continuing the
    /// deterministic stream, so the result is bit-identical to having
    /// sampled the final size up front) as **one new epoch** — one
    /// [`RrCollection::extend_parallel`] — pre-freezes that epoch's gain
    /// snapshot, and publishes the grown pool as the next directory
    /// generation. Queries running concurrently keep answering from
    /// whatever generation they pinned; nothing cached is invalidated
    /// (epoch boundaries are append-only).
    ///
    /// With `additional == 0` there is nothing to add: no epoch is
    /// sealed, no generation is published, and the returned
    /// [`GrowthOutcome::epoch`] is `None`.
    ///
    /// Concurrent `extend` calls serialize on the engine's writer mutex.
    /// The mutex recovers from poisoning: all writer state is mutated
    /// only after the fallible sampling/sealing work succeeded, so a
    /// panicking grower leaves the directory and cursor consistent and
    /// the next call simply retries.
    pub fn extend(&self, ctx: &SamplingContext<'_>, additional: u64) -> GrowthOutcome {
        let mut state = self.engine.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut pool: RrCollection = (**state.dir_writer.current()).clone();
        let threads = self.engine.threads;
        let epoch =
            pool.extend_parallel(&ctx.sampler(0), state.next_sample_index, additional, threads);
        let pool_len = pool.len() as u64;
        let generation = match &epoch {
            Some(epoch) => {
                let pool = Arc::new(pool);
                // Freeze the new epoch's snapshot *before* publishing:
                // the first query against the grown pool finds it cached
                // (no query-level miss), and queries pinned to older
                // generations never see its key.
                self.engine.freeze_epoch(&pool, epoch);
                let generation = state.dir_writer.publish(pool);
                state.next_sample_index += additional;
                generation
            }
            // Nothing added — keep serving the current generation
            // rather than publishing an identical clone.
            None => self.engine.directory.generation(),
        };
        GrowthOutcome { generation, epoch, pool_len }
    }
}

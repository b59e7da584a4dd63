//! The sealed inverted node→set-id index.
//!
//! The index is two immutable flat CSR tiers, each an (offsets, ids)
//! pair behind an `Arc`: a **base** tier over set ids `0..recent_first`
//! and a **recent** tier over `recent_first..len`. Each tier holds, for
//! each node in turn, the ascending ids of its sets containing that node,
//! so a query is at most two binary-searched slices, base then recent,
//! together ascending. A tier costs 4 bytes/entry plus one offset per
//! node (`u32` while it fits), where per-node `Vec`s cost a 24-byte
//! header per node plus power-of-two capacity slack.
//!
//! Every growth of a pool ends in a seal, so the tiers always cover the
//! whole arena. A seal counting-sorts only the sets added since the
//! previous seal and merges them, node by node, behind the recent tier
//! into a fresh recent tier: `O(recent + new entries + n)`. Once the
//! recent tier and the new sets together exceed [`FOLD_DIVISOR`]⁻¹ of
//! the base tier's sets, the seal folds base, recent and new into a
//! fresh base instead (`O(total entries + n)`) and leaves the recent tier
//! empty. The folds are geometric, so a run of small growths pays the
//! whole-index copy only once per base/4 new sets, and a growth at least
//! as large as the pool (every SSA/D-SSA doubling) always folds: those
//! pools keep one CSR.
//!
//! A seal never writes to a tier it did not build, so clones share both
//! tiers and a clone's growth leaves the source untouched.
//!
//! With several workers, each worker counting-sorts its own contiguous
//! chunk of the new sets into a chunk-local CSR; the merge appends, for
//! each node, the tier's ids and then each chunk's ids in chunk order.
//! Every entry is read once by one worker, and the result is
//! bit-identical for every worker count, which is what lets
//! `RrCollection` keep its sequential ≡ parallel guarantee. The layout
//! does depend on the seal schedule (where the folds fell); the answers
//! do not.

use std::ops::Range;
use std::sync::Arc;

use sns_graph::NodeId;

/// CSR offset array, width-adaptive: `u32` as long as the entry count
/// fits (true for any pool below 4 G index entries, i.e. everything but
/// the extreme billion-scale runs), halving the fixed per-node cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CsrOffsets {
    /// Narrow offsets, total entries `< 2^32`.
    Narrow(Vec<u32>),
    /// Wide offsets for pools beyond 4 G entries.
    Wide(Vec<u64>),
}

impl CsrOffsets {
    /// Width-adaptive packing of a dense `u64` offset array: narrows to
    /// `u32` whenever the final offset (= total entry count) fits, halving
    /// the fixed per-slot cost. Used by the inverted index, whose merge
    /// pass builds the `u64` array.
    pub(crate) fn from_wide(offsets: Vec<u64>) -> Self {
        if offsets.last().copied().unwrap_or(0) <= u32::MAX as u64 {
            CsrOffsets::Narrow(offsets.iter().map(|&o| o as u32).collect())
        } else {
            CsrOffsets::Wide(offsets)
        }
    }

    /// Width-adaptive rebase of a dense ascending `u64` offset slice:
    /// subtracts `base` from every offset and collects directly at the
    /// final width (no intermediate `u64` buffer — this runs on the
    /// per-selection-round hot path of [`crate::CoverageView::build`]).
    pub(crate) fn rebased(offsets: &[u64], base: u64) -> Self {
        if offsets.last().copied().unwrap_or(base) - base <= u32::MAX as u64 {
            CsrOffsets::Narrow(offsets.iter().map(|&o| (o - base) as u32).collect())
        } else {
            CsrOffsets::Wide(offsets.iter().map(|&o| o - base).collect())
        }
    }

    /// Concatenates rebased (zero-based) offset arrays of adjacent pool
    /// slices into the offset array of their union: each part contributes
    /// its per-slot extents shifted by the cumulative entry count of the
    /// parts before it. Width-adaptive like the other constructors. Used
    /// by `GainSnapshot::merge` to stitch per-epoch offset arrays without
    /// touching the pool arena.
    ///
    /// Every part must be a non-empty dense offset array starting at 0
    /// (what [`CsrOffsets::rebased`] produces).
    pub(crate) fn concat(parts: &[&CsrOffsets]) -> CsrOffsets {
        assert!(!parts.is_empty(), "cannot concatenate zero offset arrays");
        let total_entries: u64 = parts.iter().map(|p| p.last_entry()).sum();
        let total_slots: usize = parts.iter().map(|p| p.num_slots()).sum();
        if total_entries <= u32::MAX as u64 {
            let mut out = Vec::with_capacity(total_slots + 1);
            out.push(0u32);
            let mut base = 0u32;
            for part in parts {
                match part {
                    CsrOffsets::Narrow(o) => out.extend(o[1..].iter().map(|&v| base + v)),
                    CsrOffsets::Wide(o) => out.extend(
                        // guarded: total_entries (≥ every v) fits in u32
                        o[1..]
                            .iter()
                            .map(|&v| base + crate::narrow::try_u32(v).unwrap_or(u32::MAX)),
                    ),
                }
                base = *out.last().expect("offsets non-empty");
            }
            CsrOffsets::Narrow(out)
        } else {
            let mut out = Vec::with_capacity(total_slots + 1);
            out.push(0u64);
            let mut base = 0u64;
            for part in parts {
                match part {
                    CsrOffsets::Narrow(o) => out.extend(o[1..].iter().map(|&v| base + v as u64)),
                    CsrOffsets::Wide(o) => out.extend(o[1..].iter().map(|&v| base + v)),
                }
                base = *out.last().expect("offsets non-empty");
            }
            CsrOffsets::Wide(out)
        }
    }

    /// Final offset = total entry count spanned by this array.
    fn last_entry(&self) -> u64 {
        match self {
            CsrOffsets::Narrow(o) => o.last().copied().unwrap_or(0) as u64,
            CsrOffsets::Wide(o) => o.last().copied().unwrap_or(0),
        }
    }

    /// Number of slots (offset count minus the leading 0).
    fn num_slots(&self) -> usize {
        match self {
            CsrOffsets::Narrow(o) => o.len().saturating_sub(1),
            CsrOffsets::Wide(o) => o.len().saturating_sub(1),
        }
    }

    #[inline]
    pub(crate) fn span(&self, v: usize) -> Range<usize> {
        match self {
            CsrOffsets::Narrow(o) => o[v] as usize..o[v + 1] as usize,
            CsrOffsets::Wide(o) => o[v] as usize..o[v + 1] as usize,
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            CsrOffsets::Narrow(o) => o.is_empty(),
            CsrOffsets::Wide(o) => o.is_empty(),
        }
    }

    pub(crate) fn memory_bytes(&self) -> u64 {
        match self {
            CsrOffsets::Narrow(o) => (o.capacity() * std::mem::size_of::<u32>()) as u64,
            CsrOffsets::Wide(o) => (o.capacity() * std::mem::size_of::<u64>()) as u64,
        }
    }
}

/// One immutable node→set-ids CSR. A seal builds new ones and never
/// writes to an old one, so clones share them.
#[derive(Debug, PartialEq, Eq)]
struct SealedCsr {
    /// Node `v`'s ids live at `data[offsets[v]..offsets[v + 1]]`. Empty
    /// for a tier holding no sets.
    offsets: CsrOffsets,
    /// Concatenated ascending set ids, grouped by node.
    data: Vec<u32>,
}

impl SealedCsr {
    const EMPTY: SealedCsr =
        SealedCsr { offsets: CsrOffsets::Narrow(Vec::new()), data: Vec::new() };

    #[inline]
    fn slice(&self, v: usize) -> &[u32] {
        if self.offsets.is_empty() {
            return &[];
        }
        &self.data[self.offsets.span(v)]
    }

    /// Counting-sorts the arena sets `sets` into a CSR over `n` nodes.
    /// Pass 1 turns the node histogram in place into each node's end
    /// offset; pass 2 walks the sets backward, filling each node's ids
    /// from its end, so they come out ascending and every cursor finishes
    /// on its node's start offset. A transient CSR, so its offsets stay
    /// wide.
    fn sort(n: usize, data: &[NodeId], offsets: &[u64], sets: Range<usize>) -> SealedCsr {
        let entries = &data[offsets[sets.start] as usize..offsets[sets.end] as usize];
        let mut cursors = vec![0u64; n + 1];
        for &v in entries {
            cursors[v as usize] += 1;
        }
        let mut end = 0u64;
        for c in &mut cursors {
            end += *c;
            *c = end;
        }
        let mut ids = vec![0u32; entries.len()];
        for id in sets.rev() {
            let set_id = crate::narrow::set_count(id);
            for &v in &data[offsets[id] as usize..offsets[id + 1] as usize] {
                let cursor = &mut cursors[v as usize];
                *cursor -= 1;
                ids[*cursor as usize] = set_id;
            }
        }
        SealedCsr { offsets: CsrOffsets::Wide(cursors), data: ids }
    }

    /// Concatenates `parts` node by node, in order. The parts cover
    /// ascending, disjoint id ranges, so every node's list stays
    /// ascending. Allocated at exact size.
    fn merge(n: usize, parts: &[&SealedCsr]) -> SealedCsr {
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.data.len()).sum());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        for v in 0..n {
            for part in parts {
                data.extend_from_slice(part.slice(v));
            }
            offsets.push(data.len() as u64);
        }
        SealedCsr { offsets: CsrOffsets::from_wide(offsets), data }
    }

    fn memory_bytes(&self) -> u64 {
        self.offsets.memory_bytes() + (self.data.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// The ascending ids of the sets containing one node within an id range,
/// as the sealed index stores them: a base-tier slice, then a
/// recent-tier slice, every id of the first below every id of the second.
#[derive(Debug, Clone, Copy)]
pub struct SetIds<'a>([&'a [u32]; 2]);

impl<'a> SetIds<'a> {
    /// The two ascending slices, base tier first; either may be empty.
    pub fn slices(&self) -> [&'a [u32]; 2] {
        self.0
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.0[0].len() + self.0[1].len()
    }

    /// Whether there are no ids.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids, ascending, in one vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.0.concat()
    }
}

impl<'a> IntoIterator for SetIds<'a> {
    type Item = u32;
    type IntoIter =
        std::iter::Copied<std::iter::Chain<std::slice::Iter<'a, u32>, std::slice::Iter<'a, u32>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0[0].iter().chain(self.0[1]).copied()
    }
}

/// Equal when the ids are equal, wherever the tier boundary falls.
impl PartialEq for SetIds<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.into_iter().eq(*other)
    }
}

impl Eq for SetIds<'_> {}

/// The inverted index of an [`crate::RrCollection`]: the base and recent
/// CSR tiers over ids `0..indexed_sets()`, the epoch boundaries its seals
/// recorded, and the seals' cumulative work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SealedIndex {
    n: u32,
    /// The base tier over ids `0..recent_first`, shared by clones.
    base: Arc<SealedCsr>,
    /// The recent tier over ids `recent_first..indexed_sets()`, shared by
    /// clones; empty right after a fold.
    recent: Arc<SealedCsr>,
    /// First id of the recent tier: the pool end at the last fold.
    recent_first: u32,
    /// Cumulative set-id boundaries of the sealed epochs: epoch `e`
    /// covers ids `epoch_bounds[e - 1] .. epoch_bounds[e]` (with an
    /// implicit leading 0). One boundary per seal, strictly ascending,
    /// the last one being the sealed frontier. Append-only — once a
    /// boundary is recorded it never moves, which is what lets per-epoch
    /// gain snapshots stay valid across pool growth.
    epoch_bounds: Vec<u32>,
    /// New entries counting-sorted by every seal so far.
    entries_sorted: u64,
    /// Entries every seal so far copied into a fresh tier.
    entries_merged: u64,
}

/// Below this many new entries a seal is run single-threaded. A second
/// worker saves half of the counting sort but adds a thread spawn, an
/// `n`-sized histogram, one more part per node in the serial merge, and
/// the cross-core reads of its chunk there. On a 2-core host (NetHEPT
/// stand-in, `PoolStore::load`) it lowered neither wall nor CPU time
/// for 275k-entry epochs folded into a base (4 × 25k sets), and
/// it first paid at 550k entries (one 50k-set epoch, wall 15.1 → 12.2
/// ms). Below the break-even the second worker's CPU time also swings
/// with whether the other core is free.
const PARALLEL_COMPACT_MIN_ENTRIES: usize = 1 << 19;

/// A seal folds everything into a fresh base tier once the recent tier
/// plus the new sets exceed `1 / FOLD_DIVISOR` of the base tier's sets.
const FOLD_DIVISOR: u64 = 4;

impl SealedIndex {
    pub(crate) fn new(n: u32) -> Self {
        SealedIndex {
            n,
            base: Arc::new(SealedCsr::EMPTY),
            recent: Arc::new(SealedCsr::EMPTY),
            recent_first: 0,
            epoch_bounds: Vec::new(),
            entries_sorted: 0,
            entries_merged: 0,
        }
    }

    /// Number of sets the tiers cover (ids `0..indexed_sets`).
    pub(crate) fn indexed_sets(&self) -> u32 {
        self.epoch_bounds.last().copied().unwrap_or(0)
    }

    pub(crate) fn epoch_bounds(&self) -> &[u32] {
        &self.epoch_bounds
    }

    /// New entries counting-sorted by every seal of this index so far.
    pub(crate) fn entries_sorted(&self) -> u64 {
        self.entries_sorted
    }

    /// Entries every seal of this index so far copied into a fresh tier:
    /// recent + new for a growth that does not fold, everything for one
    /// that does.
    pub(crate) fn entries_merged(&self) -> u64 {
        self.entries_merged
    }

    /// Seals the current epoch: indexes the new sets `indexed_sets..len`
    /// into a fresh recent tier (or, past the fold fraction, a fresh
    /// base) and records the pool end as the epoch's boundary.
    /// `data`/`offsets` describe the **whole** arena, which must hold at
    /// least one set past the sealed frontier. Old tiers are never
    /// written to, so clones sharing them keep answering exactly as
    /// before.
    pub(crate) fn seal(&mut self, data: &[NodeId], offsets: &[u64], threads: usize) {
        let first = self.indexed_sets() as usize;
        let new_sets = offsets.len() - 1 - first;
        let new_entries = data.len() - offsets[first] as usize;
        // Clamp to real hardware parallelism: each worker past the
        // machine's cores only adds a thread spawn and an `n`-sized
        // histogram without running concurrently. The result is
        // worker-count-invariant either way.
        let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let workers = if threads <= 1 || new_entries < PARALLEL_COMPACT_MIN_ENTRIES {
            1
        } else {
            threads.min(hw).min(new_sets)
        };
        self.seal_in_chunks(data, offsets, workers);
    }

    /// [`SealedIndex::seal`] over exactly `workers` chunks of the new
    /// sets (at least 1), each balanced by entry count and
    /// counting-sorted by its own worker.
    fn seal_in_chunks(&mut self, data: &[NodeId], offsets: &[u64], workers: usize) {
        let n = self.n as usize;
        let total_sets = offsets.len() - 1;
        let first = self.indexed_sets() as usize;
        debug_assert!(first < total_sets, "a seal needs at least one new set");
        let (lo, hi) = (offsets[first], offsets[total_sets]);
        let bounds: Vec<usize> = (0..=workers)
            .map(|w| {
                if w == workers {
                    return total_sets;
                }
                let target = lo + (hi - lo) * w as u64 / workers as u64;
                first + offsets[first..total_sets].partition_point(|&o| o < target)
            })
            .collect();
        let sort = |c: usize| SealedCsr::sort(n, data, offsets, bounds[c]..bounds[c + 1]);
        let chunks: Vec<SealedCsr> = if workers == 1 {
            vec![sort(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|c| scope.spawn(move || sort(c))).collect();
                handles.into_iter().map(|h| h.join().expect("seal worker panicked")).collect()
            })
        };

        let recent_sets = (total_sets - self.recent_first as usize) as u64;
        let fold = recent_sets * FOLD_DIVISOR > u64::from(self.recent_first);
        let mut parts: Vec<&SealedCsr> = Vec::with_capacity(chunks.len() + 2);
        if fold {
            parts.push(&self.base);
        }
        parts.push(&self.recent);
        parts.extend(&chunks);
        let merged = SealedCsr::merge(n, &parts);
        self.entries_sorted += chunks.iter().map(|c| c.data.len() as u64).sum::<u64>();
        self.entries_merged += merged.data.len() as u64;
        let end = crate::narrow::set_count(total_sets);
        if fold {
            self.base = Arc::new(merged);
            self.recent = Arc::new(SealedCsr::EMPTY);
            self.recent_first = end;
        } else {
            self.recent = Arc::new(merged);
        }
        self.epoch_bounds.push(end);
    }

    /// Ids of the sets containing `v` whose id falls in `range`,
    /// ascending: a binary-searched slice of each tier the range
    /// reaches. An inverted range (`start >= end`) is empty.
    pub(crate) fn sets_containing_in(&self, v: NodeId, range: Range<u32>) -> SetIds<'_> {
        fn cut<'a>(ids: &'a [u32], range: &Range<u32>) -> &'a [u32] {
            let lo = ids.partition_point(|&id| id < range.start);
            let hi = ids.partition_point(|&id| id < range.end).max(lo);
            &ids[lo..hi]
        }
        let v = v as usize;
        let base =
            if range.start < self.recent_first { cut(self.base.slice(v), &range) } else { &[] };
        let recent =
            if range.end > self.recent_first { cut(self.recent.slice(v), &range) } else { &[] };
        SetIds([base, recent])
    }

    /// Whether `self` shares its base and its recent tier with `other`.
    #[cfg(test)]
    pub(crate) fn shares_tiers(&self, other: &Self) -> [bool; 2] {
        [Arc::ptr_eq(&self.base, &other.base), Arc::ptr_eq(&self.recent, &other.recent)]
    }

    /// First id of the recent tier.
    #[cfg(test)]
    pub(crate) fn recent_first(&self) -> u32 {
        self.recent_first
    }

    pub(crate) fn memory_bytes(&self) -> u64 {
        self.base.memory_bytes() + self.recent.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(sets: &[&[NodeId]]) -> (Vec<NodeId>, Vec<u64>) {
        let mut data = Vec::new();
        let mut offsets = vec![0u64];
        for s in sets {
            data.extend_from_slice(s);
            offsets.push(data.len() as u64);
        }
        (data, offsets)
    }

    /// Ids in `range` of the sets of `sets` that contain `v`.
    fn rescan(sets: &[Vec<NodeId>], v: NodeId, range: Range<u32>) -> Vec<u32> {
        let end = range.end.min(sets.len() as u32);
        (range.start..end).filter(|&id| sets[id as usize].contains(&v)).collect()
    }

    #[test]
    fn compaction_is_thread_count_invariant() {
        // Large epochs exceed PARALLEL_COMPACT_MIN_ENTRIES on their own,
        // so the multi-threaded sort really runs; the small ones
        // take the sequential path. One schedule gives one layout at
        // every thread count; different schedules fold at different
        // points, so across schedules only the answers must agree.
        const SETS: u32 = 48_000;
        let sets: Vec<Vec<NodeId>> = (0..SETS)
            .map(|i| {
                (0..64).filter(|v| (i.wrapping_mul(2654435761) >> (v % 17)) & 1 == 1).collect()
            })
            .collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        let (data, offsets) = arena(&refs);
        // A few large epochs, then many small ones.
        let mut bounds = vec![18_000, 36_000];
        bounds.extend((36_600..=SETS).step_by(600));
        let (head, _) = arena(&refs[..18_000]);
        assert!(head.len() >= PARALLEL_COMPACT_MIN_ENTRIES);
        let mut one_step = SealedIndex::new(64);
        one_step.seal(&data, &offsets, 1);
        let mut stepped_at_one: Option<SealedIndex> = None;
        for threads in [1, 2, 8] {
            let mut once = SealedIndex::new(64);
            once.seal(&data, &offsets, threads);
            assert_eq!(one_step, once, "one-step seal differs at {threads} threads");
            let mut stepped = SealedIndex::new(64);
            for &b in &bounds {
                let (data, offsets) = arena(&refs[..b as usize]);
                stepped.seal(&data, &offsets, threads);
            }
            assert_eq!(stepped.indexed_sets(), SETS);
            assert_eq!(stepped.epoch_bounds(), bounds.as_slice());
            assert!(stepped.recent_first() > 36_000, "the small epochs fold at least once");
            assert!(!stepped.recent.data.is_empty(), "the last small epochs stay recent");
            for v in 0..64 {
                let inverted = Range { start: 100, end: 50 };
                for range in [0..SETS, 0..36_000, 30_000..42_000, SETS - 1..SETS, inverted] {
                    assert_eq!(
                        stepped.sets_containing_in(v, range.clone()),
                        one_step.sets_containing_in(v, range.clone()),
                        "{}-step seal differs from one step at {threads} threads: node {v} \
                         range {range:?}",
                        bounds.len()
                    );
                }
            }
            match &stepped_at_one {
                None => stepped_at_one = Some(stepped),
                Some(one) => assert_eq!(one, &stepped, "stepped seal differs at {threads} threads"),
            }
        }
        for v in 0..64 {
            let ids = one_step.sets_containing_in(v, 0..SETS).to_vec();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "node {v} ids not ascending");
            assert_eq!(ids, rescan(&sets, v, 0..SETS), "node {v}");
        }
    }

    #[test]
    fn compaction_frees_the_pending_tier() {
        let mut ix = SealedIndex::new(8);
        let (data, offsets) = arena(&[&[0, 1, 2], &[3, 4], &[3]]);
        assert_eq!(ix.memory_bytes(), 0, "nothing is indexed before the first seal");
        assert!(ix.sets_containing_in(3, 0..3).is_empty());
        ix.seal(&data, &offsets, 1);
        assert!(ix.memory_bytes() > 0);
        assert_eq!(ix.sets_containing_in(3, 0..3).to_vec(), [1, 2]);
        assert_eq!(ix.sets_containing_in(3, 2..3).to_vec(), [2]);
        let inverted = Range { start: 2, end: 1 };
        assert!(ix.sets_containing_in(3, inverted).is_empty(), "inverted range is empty");
        assert!(ix.sets_containing_in(0, 1..9).is_empty());
    }

    #[test]
    fn a_growth_below_the_fold_fraction_merges_recent_plus_new() {
        let sets: Vec<Vec<NodeId>> =
            (0..130u32).map(|i| vec![i % 5, (i % 5 + 1 + i % 3) % 5]).collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        let entries = |r: Range<usize>| r.map(|i| sets[i].len() as u64).sum::<u64>();
        let mut ix = SealedIndex::new(5);
        let (data, offsets) = arena(&refs[..100]);
        ix.seal(&data, &offsets, 1);
        assert_eq!((ix.recent_first(), ix.entries_merged()), (100, entries(0..100)), "a fold");
        let (data, offsets) = arena(&refs[..110]);
        ix.seal(&data, &offsets, 1);
        assert_eq!(ix.recent_first(), 100, "10 new sets are not past 100 / 4");
        assert_eq!(ix.entries_merged(), entries(0..100) + entries(100..110));
        let (data, offsets) = arena(&refs[..125]);
        ix.seal(&data, &offsets, 1);
        assert_eq!(ix.recent_first(), 100, "25 recent sets are not past 100 / 4");
        let merged = ix.entries_merged();
        assert_eq!(merged, entries(0..100) + entries(100..110) + entries(100..125));
        let (data, offsets) = arena(&refs[..130]);
        ix.seal(&data, &offsets, 1);
        assert_eq!(ix.recent_first(), 130, "30 recent sets are past 100 / 4: a fold");
        assert_eq!(ix.entries_merged(), merged + entries(0..130));
        assert_eq!(ix.entries_sorted(), entries(0..130), "each entry is sorted once");
        assert_eq!(ix.memory_bytes(), 4 * 6 + 4 * entries(0..130), "one tier after a fold");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Over random growth schedules mixing folds and non-folds, at 1,
        /// 2 and 8 workers: after every seal, every node's ids over the
        /// whole pool and over random ranges (some straddling the tier
        /// boundary) equal a naive rescan; the recent tier starts at an
        /// epoch boundary and stays within the fold fraction; and the
        /// layout and work counters do not depend on the worker count.
        #[test]
        fn tiered_lookups_match_a_rescan(
            steps in proptest::collection::vec((1usize..60, 0u32..4), 1..12),
            salt in 0u32..1000,
            cuts in proptest::collection::vec((0u32..400, 0u32..400), 4),
        ) {
            const N: u32 = 24;
            // A large step sometimes, so the schedules fold mid-run too.
            let sizes: Vec<usize> =
                steps.iter().map(|&(c, big)| if big == 0 { 4 * c } else { c }).collect();
            let total: usize = sizes.iter().sum();
            let sets: Vec<Vec<NodeId>> = (0..total as u32)
                .map(|i| {
                    let h = (i ^ salt).wrapping_mul(2654435761);
                    (0..N).filter(|v| (h >> (v % 29)) & 3 == 0 || (i + v) % 11 == 0).collect()
                })
                .collect();
            let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
            let mut first: Option<SealedIndex> = None;
            for workers in [1, 2, 8] {
                let mut ix = SealedIndex::new(N);
                let mut len = 0;
                for &size in &sizes {
                    len += size;
                    let (data, offsets) = arena(&refs[..len]);
                    ix.seal_in_chunks(&data, &offsets, workers.min(size));
                    let end = len as u32;
                    let rf = ix.recent_first();
                    proptest::prop_assert!(rf == 0 || ix.epoch_bounds().contains(&rf));
                    proptest::prop_assert!(u64::from(end - rf) * FOLD_DIVISOR <= u64::from(rf));
                    let mut ranges = vec![0..end, rf.saturating_sub(3)..rf + 3, rf..end, 0..rf];
                    ranges.extend(cuts.iter().map(|&(a, b)| a % (end + 2)..b % (end + 2)));
                    for v in 0..N {
                        for range in &ranges {
                            let got = ix.sets_containing_in(v, range.clone()).to_vec();
                            proptest::prop_assert_eq!(got, rescan(&sets[..len], v, range.clone()));
                        }
                    }
                }
                match &first {
                    None => first = Some(ix),
                    Some(one) => proptest::prop_assert_eq!(one, &ix),
                }
            }
        }
    }
}

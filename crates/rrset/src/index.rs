//! The sealed inverted node→set-id index.
//!
//! The index is one immutable flat CSR pair (offsets, ids) over every
//! pooled set: the ids hold, for each node in turn, the ascending ids of
//! the sets containing it. It sits behind an `Arc`, so cloning a pool
//! shares it instead of copying it. Every growth of a pool ends in a
//! seal, so the CSR always covers the whole arena and a query is one
//! binary-searched slice of it. The CSR costs 8 bytes/node + 4
//! bytes/entry exactly, while per-node `Vec`s cost a 24-byte header per
//! node (empty or not) plus power-of-two capacity slack per non-empty
//! node.
//!
//! A seal counting-sorts only the sets added since the previous seal —
//! optionally multi-threaded: the new sets are split into chunks,
//! workers emit per-chunk node histograms, an exclusive prefix turns
//! those into disjoint write cursors, and workers scatter their node
//! ranges independently. One sequential pass over the nodes then merges
//! each node's sealed ids and new ids into a fresh CSR; the old one is
//! never written to, so clones still holding it are unaffected. So a
//! seal costs `O(new entries + n)` of sorting plus a `memcpy`-speed
//! merge copy of the index. The result is bit-identical for every worker
//! count and every seal schedule, which is what lets `RrCollection`
//! keep its sequential ≡ parallel reproducibility guarantee.

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

/// One immutable node→set-ids CSR. A seal builds a new one and never
/// writes to an old one, so clones share it.
#[derive(Debug, PartialEq, Eq)]
struct SealedCsr {
    /// Node `v`'s sealed ids live at `data[offsets[v]..offsets[v + 1]]`.
    /// Empty until the first seal.
    offsets: CsrOffsets,
    /// Concatenated ascending set ids, grouped by node.
    data: Vec<u32>,
}

/// The inverted index of an [`crate::RrCollection`]: the sealed CSR over
/// ids `0..indexed_sets()` and the epoch boundaries its seals recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SealedIndex {
    n: u32,
    /// The sealed CSR over ids `0..indexed_sets()`, shared by clones.
    sealed: Arc<SealedCsr>,
    /// Cumulative set-id boundaries of the sealed epochs: epoch `e`
    /// covers ids `epoch_bounds[e - 1] .. epoch_bounds[e]` (with an
    /// implicit leading 0). One boundary per seal, strictly ascending,
    /// the last one being the sealed frontier. Append-only — once a
    /// boundary is recorded it never moves, which is what lets per-epoch
    /// gain snapshots stay valid across pool growth.
    epoch_bounds: Vec<u32>,
}

/// Below this many arena entries a seal is run single-threaded —
/// thread spawn plus per-chunk histograms would dominate.
const PARALLEL_COMPACT_MIN_ENTRIES: usize = 1 << 16;

impl SealedIndex {
    pub(crate) fn new(n: u32) -> Self {
        SealedIndex {
            n,
            sealed: Arc::new(SealedCsr {
                offsets: CsrOffsets::Narrow(Vec::new()),
                data: Vec::new(),
            }),
            epoch_bounds: Vec::new(),
        }
    }

    /// Number of sets the sealed CSR covers (ids `0..indexed_sets`).
    pub(crate) fn indexed_sets(&self) -> u32 {
        self.epoch_bounds.last().copied().unwrap_or(0)
    }

    pub(crate) fn epoch_bounds(&self) -> &[u32] {
        &self.epoch_bounds
    }

    /// Seals the current epoch: counting-sorts only the new sets
    /// `indexed_sets..len` (optionally multi-threaded), merges them behind
    /// the sealed CSR into a fresh shared CSR, and records the pool end
    /// as the epoch's boundary. `data`/`offsets` describe the **whole**
    /// arena, which must hold at least one set past the sealed frontier.
    /// The previous sealed CSR is never written to, so clones sharing it
    /// keep answering exactly as before.
    pub(crate) fn seal(&mut self, data: &[NodeId], offsets: &[u64], threads: usize) {
        let n = self.n as usize;
        let total_sets = offsets.len() - 1;
        let first = self.indexed_sets() as usize;
        debug_assert!(first < total_sets, "a seal needs at least one new set");
        // The new sets: ids `first..total_sets`, entries `base..data.len()`.
        let base = offsets[first];
        let fresh = &data[base as usize..];
        let fresh_offsets = &offsets[first..];
        let fresh_sets = total_sets - first;
        let entries = fresh.len();
        // Clamp to real hardware parallelism: the scatter pass streams
        // the new sets once *per worker* (cheap next to its random writes
        // when workers run concurrently), so oversubscribing a small
        // machine turns that read amplification into pure serial
        // overhead. The result is worker-count-invariant either way.
        let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let workers = if threads <= 1 || entries < PARALLEL_COMPACT_MIN_ENTRIES {
            1
        } else {
            threads.min(hw).min(fresh_sets.max(1))
        };
        let at = |local: usize| (fresh_offsets[local] - base) as usize;
        let span = |local: usize| at(local)..at(local + 1);

        // Pass 1 — per-chunk node histograms of the new sets (workers own
        // contiguous *set* ranges, balanced by entry count so no worker
        // inherits all the long sets): hist[c][v] = entries of v in chunk
        // c. Summed into the per-node new-entry counts.
        let set_bounds: Vec<usize> = (0..=workers)
            .map(|w| {
                let target = base + (entries as u64 * w as u64 / workers as u64);
                fresh_offsets.partition_point(|&o| o < target).min(fresh_sets)
            })
            .collect();
        let mut counts: Vec<u64> = if workers == 1 {
            let mut h = vec![0u64; n];
            for &v in fresh {
                h[v as usize] += 1;
            }
            h
        } else {
            let hists: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|c| {
                        let chunk = &fresh[at(set_bounds[c])..at(set_bounds[c + 1])];
                        scope.spawn(move || {
                            let mut h = vec![0u64; n];
                            for &v in chunk {
                                h[v as usize] += 1;
                            }
                            h
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("histogram worker panicked")).collect()
            });
            let mut total = vec![0u64; n];
            for h in &hists {
                for (t, &c) in total.iter_mut().zip(h) {
                    *t += c;
                }
            }
            total
        };

        // Pass 2 — exclusive prefix sum over nodes: the new sets' CSR offsets.
        let mut fresh_index = vec![0u64; n + 1];
        for v in 0..n {
            fresh_index[v + 1] = fresh_index[v] + counts[v];
        }
        debug_assert_eq!(fresh_index[n] as usize, entries);

        // Pass 3 — scatter, parallel over *node* ranges: each worker owns
        // a contiguous node range balanced by entry count, hence a
        // disjoint contiguous region of `fresh_ids` (no sharing, no false
        // sharing — a set-chunked scatter would interleave writes within
        // each node's id list and thrash cache lines). Every worker
        // streams the new sets in ascending set-id order, which keeps
        // per-node id lists ascending. `counts` is repurposed as the
        // per-node write cursors.
        let first_id = crate::narrow::set_count(first);
        let fresh_len = crate::narrow::set_count(fresh_sets);
        let mut fresh_ids = vec![0u32; entries];
        if workers == 1 {
            counts.copy_from_slice(&fresh_index[..n]);
            let cursors = &mut counts;
            for local in 0..fresh_len {
                for &v in &fresh[span(local as usize)] {
                    fresh_ids[cursors[v as usize] as usize] = first_id + local;
                    cursors[v as usize] += 1;
                }
            }
        } else {
            let node_bounds: Vec<usize> = (0..=workers)
                .map(|w| {
                    let target = (entries as u64 * w as u64 / workers as u64).min(entries as u64);
                    fresh_index.partition_point(|&o| o < target).min(n)
                })
                .collect();
            std::thread::scope(|scope| {
                let mut rest: &mut [u32] = &mut fresh_ids;
                for w in 0..workers {
                    let (lo, hi) = (node_bounds[w], node_bounds[w + 1]);
                    let start = fresh_index[lo];
                    let (mine, after) = rest.split_at_mut((fresh_index[hi] - start) as usize);
                    rest = after;
                    let (fresh_index, span) = (&fresh_index, &span);
                    scope.spawn(move || {
                        let mut cursors: Vec<u64> =
                            fresh_index[lo..hi].iter().map(|&o| o - start).collect();
                        for local in 0..fresh_len {
                            for &v in &fresh[span(local as usize)] {
                                let vi = v as usize;
                                if vi < lo || vi >= hi {
                                    continue;
                                }
                                mine[cursors[vi - lo] as usize] = first_id + local;
                                cursors[vi - lo] += 1;
                            }
                        }
                    });
                }
            });
        }

        // Merge — one sequential pass over the nodes: node `v`'s sealed
        // ids, then its fresh ids. Every fresh id exceeds every sealed id,
        // so each list stays ascending. Allocated at exact size.
        let mut merged_offsets = Vec::with_capacity(n + 1);
        merged_offsets.push(0u64);
        let mut merged = Vec::with_capacity(self.sealed.data.len() + entries);
        for v in 0..n {
            merged.extend_from_slice(self.sealed_slice(v as NodeId));
            merged.extend_from_slice(
                &fresh_ids[fresh_index[v] as usize..fresh_index[v + 1] as usize],
            );
            merged_offsets.push(merged.len() as u64);
        }
        debug_assert_eq!(merged.len() as u64, data.len() as u64);
        self.sealed =
            Arc::new(SealedCsr { offsets: CsrOffsets::from_wide(merged_offsets), data: merged });
        self.epoch_bounds.push(crate::narrow::set_count(total_sets));
    }

    #[inline]
    fn sealed_slice(&self, v: NodeId) -> &[u32] {
        if self.sealed.offsets.is_empty() {
            return &[];
        }
        &self.sealed.data[self.sealed.offsets.span(v as usize)]
    }

    /// Ids of the sets containing `v` whose id falls in `range`,
    /// ascending: a binary-searched slice of `v`'s CSR ids. An inverted
    /// range (`start >= end`) is empty.
    pub(crate) fn sets_containing_in(&self, v: NodeId, range: Range<u32>) -> &[u32] {
        let ids = self.sealed_slice(v);
        let lo = ids.partition_point(|&id| id < range.start);
        let hi = ids.partition_point(|&id| id < range.end).max(lo);
        &ids[lo..hi]
    }

    /// Whether `self` and `other` share one sealed CSR allocation.
    #[cfg(test)]
    pub(crate) fn shares_sealed_tier(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.sealed, &other.sealed)
    }

    pub(crate) fn memory_bytes(&self) -> u64 {
        self.sealed.offsets.memory_bytes()
            + (self.sealed.data.capacity() * std::mem::size_of::<u32>()) as u64
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

    #[test]
    fn compaction_is_thread_count_invariant() {
        // Large epochs exceed PARALLEL_COMPACT_MIN_ENTRIES on their own,
        // so the multi-threaded sort really runs; the small ones
        // take the sequential path.
        const SETS: u32 = 8000;
        let sets: Vec<Vec<NodeId>> = (0..SETS)
            .map(|i| {
                (0..64).filter(|v| (i.wrapping_mul(2654435761) >> (v % 17)) & 1 == 1).collect()
            })
            .collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        let (data, offsets) = arena(&refs);
        // A few large epochs, then many small ones.
        let mut bounds = vec![3000, 6000];
        bounds.extend((6050..=SETS).step_by(50));
        let (head, _) = arena(&refs[..3000]);
        assert!(head.len() >= PARALLEL_COMPACT_MIN_ENTRIES);
        let mut one_step = SealedIndex::new(64);
        one_step.seal(&data, &offsets, 1);
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
            assert_eq!(
                one_step.sealed,
                stepped.sealed,
                "{}-step seal differs from one step at {threads} threads",
                bounds.len()
            );
        }
        for v in 0..64 {
            let ids = one_step.sets_containing_in(v, 0..SETS);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "node {v} ids not ascending");
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
        assert_eq!(ix.sets_containing_in(3, 0..3), &[1, 2]);
        assert_eq!(ix.sets_containing_in(3, 2..3), &[2]);
        let inverted = Range { start: 2, end: 1 };
        assert_eq!(ix.sets_containing_in(3, inverted), &[] as &[u32], "inverted range is empty");
        assert_eq!(ix.sets_containing_in(0, 1..9), &[] as &[u32]);
    }
}

//! Arena-backed RR-set pool with an epoch-sealed inverted index.
//!
//! # Storage layout
//!
//! Sets live in one flat node arena (`data`) addressed by per-set
//! offsets, exactly like the CSR graph storage in `sns-graph`. The
//! node→set-ids inverted index — the structure greedy Max-Coverage and
//! every coverage query traverse — is two immutable flat CSR tiers
//! (offsets plus 4-byte ids), a base and a recent one, each shared by
//! `Arc` between clones ([`crate::index`]). Ids come out ascending, so
//! range restriction is a binary search into at most two slices
//! ([`SetIds`]).
//!
//! Compared to the previous `node_to_sets: Vec<Vec<u32>>` layout this
//! removes one heap allocation + 24-byte `Vec` header per node and the
//! power-of-two capacity slack per non-empty node (~3× overhead at
//! billion scale), and it turns index construction into a parallel
//! counting sort instead of per-node `push` calls.
//!
//! # Growth is one sealed epoch
//!
//! A pool grows only through [`RrCollection::extend_parallel`] (sampled
//! sets) and [`RrCollection::append_epoch`] (given sets), and each call
//! appends its sets to the arena and seals them as **one epoch** before
//! it returns, so no reader ever sees an unindexed set. A seal
//! counting-sorts only the new sets and merges them behind the recent
//! tier into a fresh recent tier — `O(recent + new entries + n)` — until
//! the recent tier would pass a quarter of the base, when it folds
//! everything into a fresh base instead. SSA/D-SSA grow the pool only at
//! their doubling checkpoints (`Λ·2^(t−1)` sets at iteration `t`), so
//! each iteration costs exactly one seal, and each of those seals folds:
//! their pools keep one CSR. [`RrCollection::seal_entries_sorted`] and
//! [`RrCollection::seal_entries_merged`] count the seals' work.
//!
//! Cloning a pool copies the arena and its offsets; the index tiers are
//! shared, and growing the clone builds a fresh tier instead of writing
//! to a shared one, so a published pool never changes through its
//! clones.
//!
//! # Determinism
//!
//! Set ids are dense `0..len()` in insertion order, so the "first
//! `Λ·2^(t−1)` samples" semantics of SSA/D-SSA map directly onto id
//! ranges. Pool growth is **bit-identical** across thread counts: each
//! sample index owns its RNG stream, workers own contiguous index
//! ranges merged in order, epoch boundaries depend only on the growth
//! calls (each non-empty one records exactly one), and the counting sort
//! produces the same arrays for every worker count.

use std::ops::Range;

use sns_diffusion::RrSampler;
use sns_graph::NodeId;

use crate::index::{SealedIndex, SetIds};

/// A growing pool of RR sets (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct RrCollection {
    n: u32,
    /// Flattened node lists of all sets.
    data: Vec<NodeId>,
    /// `offsets[i]..offsets[i+1]` spans set `i` in `data`.
    offsets: Vec<u64>,
    /// Sealed inverted node→set-ids index.
    index: SealedIndex,
    /// Total in-edges examined while sampling all pooled sets.
    total_edges_examined: u64,
    /// Cumulative `total_edges_examined` frozen at each sealed epoch
    /// boundary, parallel to [`RrCollection::epoch_boundaries`]. A seal
    /// always reaches the end of the arena, so the entry for a boundary is
    /// the pool total at the moment that seal ran. The store serializes
    /// per-epoch deltas of this so a recovered prefix restores the exact
    /// sampling-cost accounting of its sets.
    epoch_edges: Vec<u64>,
}

impl RrCollection {
    /// Creates an empty pool over `n` nodes.
    pub fn new(n: u32) -> Self {
        RrCollection {
            n,
            data: Vec::new(),
            offsets: vec![0],
            index: SealedIndex::new(n),
            total_edges_examined: 0,
            epoch_edges: Vec::new(),
        }
    }

    /// Node-universe size this pool indexes.
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Number of pooled RR sets.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole pool as a set-id range (`0..len`), for the range-taking
    /// coverage and snapshot APIs. Set ids are `u32` by representation,
    /// so the narrowing is sanctioned ([`crate::narrow::set_count`]).
    pub fn id_range(&self) -> Range<u32> {
        0..crate::narrow::set_count(self.len())
    }

    /// Total number of node entries across all sets.
    pub fn total_nodes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Total in-edges examined while sampling (the RIS cost measure).
    pub fn total_edges_examined(&self) -> u64 {
        self.total_edges_examined
    }

    /// Number of epoch seals (compactions) performed so far — one per
    /// recorded epoch boundary.
    pub fn compactions(&self) -> u64 {
        self.index.epoch_bounds().len() as u64
    }

    /// Cumulative set-id boundaries of the sealed epochs, strictly
    /// ascending: epoch `e` covers ids
    /// `boundaries[e - 1] .. boundaries[e]` (with an implicit leading 0),
    /// and the last boundary is [`RrCollection::len`]. The list is
    /// **append-only** — a growth only adds a boundary past the previous
    /// one, never moves an existing one — so anything frozen against
    /// a past epoch (per-epoch [`crate::GainSnapshot`]s in particular)
    /// stays valid as the pool grows.
    pub fn epoch_boundaries(&self) -> &[u32] {
        self.index.epoch_bounds()
    }

    /// The sealed epochs as id ranges, in order (see
    /// [`RrCollection::epoch_boundaries`]).
    pub fn epochs(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        let bounds = self.index.epoch_bounds();
        (0..bounds.len()).map(move |e| {
            let lo = if e == 0 { 0 } else { bounds[e - 1] };
            lo..bounds[e]
        })
    }

    /// The nodes of set `id` (root first).
    pub fn set(&self, id: usize) -> &[NodeId] {
        let (s, e) = (self.offsets[id] as usize, self.offsets[id + 1] as usize);
        &self.data[s..e]
    }

    /// The raw set arena (`data`, `offsets`) — set `i` spans
    /// `data[offsets[i]..offsets[i + 1]]`. Used by [`crate::CoverageView`]
    /// to materialize its range-restricted forward CSR in one `memcpy`
    /// instead of `len` [`RrCollection::set`] calls.
    pub(crate) fn arena(&self) -> (&[NodeId], &[u64]) {
        (&self.data, &self.offsets)
    }

    /// Ids of the sets containing `v`, ascending.
    pub fn sets_containing(&self, v: NodeId) -> SetIds<'_> {
        self.index.sets_containing_in(v, self.id_range())
    }

    /// Ids of the sets containing `v` restricted to an id `range`,
    /// ascending: a binary-searched slice of each index tier the range
    /// reaches. An inverted range (`start >= end`) is empty.
    pub fn sets_containing_in(&self, v: NodeId, range: Range<u32>) -> SetIds<'_> {
        self.index.sets_containing_in(v, range)
    }

    /// Entries counting-sorted by every seal of this pool so far: each
    /// sealed entry once, whatever the thread count.
    pub fn seal_entries_sorted(&self) -> u64 {
        self.index.entries_sorted()
    }

    /// Entries every seal of this pool so far copied into a fresh index
    /// tier: the recent tier plus the new sets for a growth that does not
    /// fold, the whole index for one that does. Independent of the
    /// thread count.
    pub fn seal_entries_merged(&self) -> u64 {
        self.index.entries_merged()
    }

    /// Cumulative `total_edges_examined` at each sealed epoch boundary,
    /// parallel to [`RrCollection::epoch_boundaries`]. The store derives
    /// per-epoch deltas from this.
    pub(crate) fn epoch_edge_totals(&self) -> &[u64] {
        &self.epoch_edges
    }

    /// Grows the pool with samples `from_index .. from_index + count` of
    /// the sampler's deterministic stream and seals them as one new
    /// epoch, whose id range it returns (`None` when `count == 0`: no
    /// sets, no epoch). Generation fans out across `threads` workers;
    /// the pool is **bit-identical** for every `threads` value because
    /// each sample index owns its RNG stream and workers own contiguous
    /// index ranges merged back in order (see the module docs). Under
    /// 128 samples it runs one worker on the calling thread.
    pub fn extend_parallel(
        &mut self,
        sampler: &RrSampler<'_>,
        from_index: u64,
        count: u64,
        threads: usize,
    ) -> Option<Range<u32>> {
        if count == 0 {
            return None;
        }
        let workers = if count < 128 { 1 } else { threads.clamp(1, count as usize) };
        let chunk = count.div_ceil(workers as u64);
        // Worker `w` fills a private mini-arena with its contiguous index
        // range; merging in worker order makes the pool layout identical
        // for every worker count.
        let sample_chunk = |w: u64| {
            let end = (from_index + (w + 1) * chunk).min(from_index + count);
            let mut local = sampler.clone();
            let (mut data, mut ends, mut edges) = (Vec::new(), Vec::new(), 0u64);
            let mut rr = Vec::new();
            for i in from_index + w * chunk..end {
                edges += local.sample(i, &mut rr).edges_examined;
                data.extend_from_slice(&rr);
                ends.push(data.len() as u64);
            }
            (data, ends, edges)
        };
        let batches: Vec<(Vec<NodeId>, Vec<u64>, u64)> = if workers == 1 {
            vec![sample_chunk(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..workers as u64).map(|w| scope.spawn(move || sample_chunk(w))).collect();
                handles.into_iter().map(|h| h.join().expect("rr worker panicked")).collect()
            })
        };
        for (data, ends, edges) in batches {
            self.append_sets(&data, &ends);
            self.total_edges_examined += edges;
        }
        Some(self.seal(threads))
    }

    /// Appends the given `sets` in order and seals them as one new epoch,
    /// whose id range it returns (`None` for no sets: no epoch).
    /// `edges_examined` is the sampling cost of the whole batch. This is
    /// how pools are built from sets that were not sampled by an
    /// [`RrSampler`] stream — fixtures, oracles, hand-made examples.
    pub fn append_epoch(&mut self, sets: &[&[NodeId]], edges_examined: u64) -> Option<Range<u32>> {
        if sets.is_empty() {
            return None;
        }
        for rr in sets {
            self.append_arena(rr);
        }
        self.total_edges_examined += edges_examined;
        Some(self.seal(1))
    }

    /// Restores one sealed epoch from its serialized form: appends the
    /// epoch's arena slice verbatim (`set_ends` are the per-set end
    /// offsets rebased to the epoch start, leading 0 implicit), accounts
    /// its sampling cost, and seals it — one seal, so exactly the saved
    /// epoch boundary is recorded. `set_ends` must be non-empty.
    pub(crate) fn restore_sealed_epoch(
        &mut self,
        data: &[NodeId],
        set_ends: &[u64],
        edges_delta: u64,
        threads: usize,
    ) {
        let base = self.data.len() as u64;
        self.data.extend_from_slice(data);
        self.offsets.extend(set_ends.iter().map(|&e| base + e));
        self.total_edges_examined += edges_delta;
        let _ = self.seal(threads);
    }

    /// No-op: every growth already seals its sets. Kept only because the
    /// end-to-end benchmark still calls it; the paired benchmark change
    /// (ROADMAP C′) deletes it.
    #[doc(hidden)]
    pub fn seal_parallel(&mut self, _threads: usize) {}

    /// Copies one set into the arena. Every growth path funnels through
    /// here (or its batched form [`RrCollection::append_sets`]) and then
    /// through [`RrCollection::seal`].
    #[inline]
    fn append_arena(&mut self, rr: &[NodeId]) {
        debug_assert!(self.len() < u32::MAX as usize, "set-id space exhausted");
        self.data.extend_from_slice(rr);
        self.offsets.push(self.data.len() as u64);
    }

    /// [`RrCollection::append_arena`] for a batch of sets laid out back to
    /// back in `data`, set `i` ending at `ends[i]` (relative to `data`'s
    /// start): one bulk copy plus the ends rebased by the arena length.
    /// Both arrays first grow to exactly the capacity one `append_arena`
    /// per set would leave, so [`RrCollection::memory_bytes`] does not
    /// depend on how a growth was cut into batches.
    fn append_sets(&mut self, data: &[NodeId], ends: &[u64]) {
        debug_assert!(self.len() + ends.len() <= u32::MAX as usize, "set-id space exhausted");
        let (base, sets) = (self.data.len(), self.offsets.len());
        let (mut data_cap, mut offsets_cap) = (self.data.capacity(), self.offsets.capacity());
        for (i, &end) in ends.iter().enumerate() {
            data_cap = amortized_capacity(data_cap, base + end as usize);
            offsets_cap = amortized_capacity(offsets_cap, sets + i + 1);
        }
        self.data.reserve_exact(data_cap - base);
        self.offsets.reserve_exact(offsets_cap - sets);
        self.data.extend_from_slice(data);
        self.offsets.extend(ends.iter().map(|&e| base as u64 + e));
    }

    /// Seals the sets appended since the previous seal as one epoch: the
    /// one place the index and the epoch boundaries change. Indexes them
    /// into a fresh index tier (a counting sort over `threads` workers,
    /// bit-identical for every value), records the pool end as the new
    /// boundary with its cumulative edge total, and returns the epoch's
    /// id range. Callers append at least one set first.
    fn seal(&mut self, threads: usize) -> Range<u32> {
        let first = self.index.indexed_sets();
        self.index.seal(&self.data, &self.offsets, threads);
        self.epoch_edges.push(self.total_edges_examined);
        first..crate::narrow::set_count(self.len())
    }

    /// Test-only drift hooks for the save-time metadata guard: desync the
    /// arena offsets / the per-epoch edge totals / the sealed frontier the
    /// way a bookkeeping bug would, so tests can prove the guard turns the
    /// mismatch into a typed error instead of serializing garbage.
    #[cfg(test)]
    pub(crate) fn corrupt_last_offset_for_test(&mut self) {
        *self.offsets.last_mut().expect("offsets non-empty") += 1;
    }

    /// See [`RrCollection::corrupt_last_offset_for_test`].
    #[cfg(test)]
    pub(crate) fn truncate_epoch_edges_for_test(&mut self) {
        self.epoch_edges.pop();
    }

    /// See [`RrCollection::corrupt_last_offset_for_test`]: appends one
    /// set without sealing it, leaving the pool with an unsealed tail.
    #[cfg(test)]
    pub(crate) fn append_unsealed_for_test(&mut self, rr: &[NodeId]) {
        self.append_arena(rr);
    }

    /// Number of sets in `range` covered by `seeds` (`Cov_R(S)` of the
    /// paper, Eq. 1, restricted to a pool slice).
    ///
    /// `scratch` is a reusable `u64` bitset; it is resized to the range
    /// length and cleared on entry. An inverted range (`start >= end`) is
    /// empty: coverage 0, nothing allocated.
    pub fn coverage_of_range(
        &self,
        seeds: &[NodeId],
        range: Range<u32>,
        scratch: &mut Vec<u64>,
    ) -> u64 {
        let len = range.end.saturating_sub(range.start) as usize;
        scratch.clear();
        scratch.resize(len.div_ceil(64), 0);
        let mut covered = 0u64;
        for &s in seeds {
            for id in self.sets_containing_in(s, range.clone()) {
                let slot = (id - range.start) as usize;
                let (word, bit) = (slot / 64, 1u64 << (slot % 64));
                if scratch[word] & bit == 0 {
                    scratch[word] |= bit;
                    covered += 1;
                }
            }
        }
        covered
    }

    /// Number of pooled sets covered by `seeds` (`Cov_R(S)`, Eq. 1).
    pub fn coverage_of(&self, seeds: &[NodeId]) -> u64 {
        let mut scratch = Vec::new();
        self.coverage_of_range(seeds, self.id_range(), &mut scratch)
    }

    /// Exact byte footprint of the pool (arena + offsets + both tiers of
    /// the sealed inverted index, counting capacities). This is the
    /// quantity the memory experiments (Figs. 6–7) report.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let arena = self.data.capacity() * size_of::<NodeId>();
        let offsets = (self.offsets.capacity() + self.epoch_edges.capacity()) * size_of::<u64>();
        (arena + offsets) as u64 + self.index.memory_bytes()
    }

    /// Byte footprint of the inverted index alone (both tiers, counting
    /// capacities) — the component the sealed CSR layout shrinks relative
    /// to per-node `Vec`s.
    pub fn index_memory_bytes(&self) -> u64 {
        self.index.memory_bytes()
    }
}

/// The capacity a `Vec` of capacity `cap` has once `push` or
/// `extend_from_slice` made it hold `len` elements: std's amortized
/// growth, which doubles (at least to 4 elements for 4- and 8-byte items)
/// or grows to `len` when that is more.
fn amortized_capacity(cap: usize, len: usize) -> usize {
    if len <= cap {
        cap
    } else {
        len.max(2 * cap).max(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_diffusion::{Model, RrSampler};
    use sns_graph::WeightModel;

    /// A pool holding `sets` as one epoch, one examined edge per set.
    fn pool(n: u32, sets: &[&[NodeId]]) -> RrCollection {
        let mut rc = RrCollection::new(n);
        rc.append_epoch(sets, sets.len() as u64);
        rc
    }

    #[test]
    fn push_and_query() {
        let rc = pool(5, &[&[0, 1, 2], &[1], &[3, 1]]);
        assert_eq!(rc.len(), 3);
        assert_eq!(rc.total_nodes(), 6);
        assert_eq!(rc.set(0), &[0, 1, 2]);
        assert_eq!(rc.set(1), &[1]);
        assert_eq!(rc.sets_containing(1).to_vec(), [0, 1, 2]);
        assert!(rc.sets_containing(4).is_empty());
        assert_eq!(rc.total_edges_examined(), 3);
    }

    #[test]
    fn coverage_counts_each_set_once() {
        let rc = pool(5, &[&[0, 1], &[1, 2], &[3]]);
        // seeds {0, 1}: sets 0 and 1 covered (set 0 via both nodes, once)
        assert_eq!(rc.coverage_of(&[0, 1]), 2);
        assert_eq!(rc.coverage_of(&[3]), 1);
        assert_eq!(rc.coverage_of(&[4]), 0);
        assert_eq!(rc.coverage_of(&[0, 1, 2, 3]), 3);
    }

    #[test]
    fn range_restricted_queries() {
        let rc = pool(3, &[&[0], &[0, 1], &[1], &[0, 2]]);
        assert_eq!(rc.sets_containing_in(0, 1..4).to_vec(), [1, 3]);
        let mut scratch = Vec::new();
        assert_eq!(rc.coverage_of_range(&[0], 0..2, &mut scratch), 2);
        assert_eq!(rc.coverage_of_range(&[0], 2..4, &mut scratch), 1);
        assert_eq!(rc.coverage_of_range(&[1], 2..4, &mut scratch), 1);
    }

    #[test]
    fn queries_agree_across_seal_boundaries() {
        let mut rc = pool(3, &[&[0], &[0, 1]]);
        assert_eq!(rc.append_epoch(&[&[1], &[0, 2]], 2), Some(2..4));
        assert_eq!(rc.epoch_boundaries(), &[2, 4]);
        assert_eq!(rc.sets_containing(0).to_vec(), [0, 1, 3]);
        assert_eq!(rc.sets_containing_in(0, 1..4).to_vec(), [1, 3]);
        assert_eq!(rc.sets_containing_in(1, 1..3).to_vec(), [1, 2]);
        let mut scratch = Vec::new();
        assert_eq!(rc.coverage_of_range(&[0], 2..4, &mut scratch), 1);
        assert_eq!(rc.coverage_of(&[1]), 2);
    }

    #[test]
    fn parallel_growth_bit_identical_to_sequential() {
        let g =
            sns_graph::gen::erdos_renyi(300, 2400, 5).build(WeightModel::WeightedCascade).unwrap();
        for model in [Model::IndependentCascade, Model::LinearThreshold] {
            let sampler = RrSampler::with_config(&g, model, sns_diffusion::RootDist::Uniform, 11);
            let mut seq = RrCollection::new(300);
            assert_eq!(seq.extend_parallel(&sampler, 0, 1000, 1), Some(0..1000));
            let mut par = RrCollection::new(300);
            assert_eq!(par.extend_parallel(&sampler, 0, 1000, 8), Some(0..1000));
            assert_eq!(seq.len(), par.len());
            assert_eq!(seq.data, par.data);
            assert_eq!(seq.offsets, par.offsets);
            assert_eq!(seq.index, par.index, "sealed indexes must match bit-for-bit");
            assert_eq!(seq.total_edges_examined, par.total_edges_examined);
            assert_eq!(seq.epoch_edges, par.epoch_edges);
        }
    }

    #[test]
    fn memory_accounting_grows() {
        let mut rc = RrCollection::new(4);
        let empty = rc.memory_bytes();
        let sets: Vec<[NodeId; 2]> = (0..100u32).map(|i| [i % 4, (i + 1) % 4]).collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        rc.append_epoch(&refs, 0);
        assert!(rc.memory_bytes() > empty);
        assert!(rc.index_memory_bytes() > 0);
    }

    #[test]
    fn sealing_shrinks_the_index() {
        let mut rc = RrCollection::new(4);
        assert_eq!(rc.index_memory_bytes(), 0, "an empty pool indexes nothing");
        let sets: Vec<[NodeId; 2]> = (0..2000u32).map(|i| [i % 4, (i + 1) % 4]).collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        rc.append_epoch(&refs, 0);
        // the sealed index sits exactly at the flat-CSR floor: one u32
        // offset per node (plus one) and one u32 id per entry
        assert_eq!(rc.index_memory_bytes(), 4 * (4 + 1) + 4 * rc.total_nodes());
        assert_eq!(rc.sets_containing(0).len(), 1000);
    }

    #[test]
    fn epoch_boundaries_are_append_only_and_tile_the_sealed_prefix() {
        let mut rc = RrCollection::new(4);
        assert!(rc.epoch_boundaries().is_empty());
        assert_eq!(rc.append_epoch(&[&[0, 1], &[1, 2]], 2), Some(0..2));
        assert_eq!(rc.epoch_boundaries(), &[2]);
        assert_eq!(rc.epochs().collect::<Vec<_>>(), vec![0..2]);
        // an empty growth is a no-op: no rebuild, no epoch
        let compactions = rc.compactions();
        assert_eq!(rc.append_epoch(&[], 0), None);
        assert_eq!(rc.compactions(), compactions);
        assert_eq!(rc.epoch_boundaries(), &[2]);
        // a growth freezes exactly one new epoch; old bounds move
        // nowhere (the append-only contract per-epoch snapshots rely on)
        assert_eq!(rc.append_epoch(&[&[2, 3], &[3]], 2), Some(2..4));
        assert_eq!(rc.epoch_boundaries(), &[2, 4]);
        assert_eq!(rc.epochs().collect::<Vec<_>>(), vec![0..2, 2..4]);
        assert_eq!(rc.epoch_edge_totals(), &[2, 4]);
    }

    #[test]
    fn an_epoch_is_one_seal() {
        // Each non-empty growth records exactly one boundary at the pool
        // end, however many sets it adds; every read right after it sees
        // the whole pool through the index.
        let g = sns_graph::gen::erdos_renyi(8, 24, 3).build(WeightModel::WeightedCascade).unwrap();
        let sampler = RrSampler::with_config(
            &g,
            Model::IndependentCascade,
            sns_diffusion::RootDist::Uniform,
            5,
        );
        let rescan = |rc: &RrCollection, v: NodeId, range: Range<u32>| -> Vec<u32> {
            range.filter(|&id| rc.set(id as usize).contains(&v)).collect()
        };
        let check = |rc: &RrCollection| {
            let len = rc.len() as u32;
            for v in 0..8 {
                for range in [0..len, 0..len / 2, 2999..len, 1234..4321, 4000..len + 7] {
                    let got = rc.sets_containing_in(v, range.clone()).to_vec();
                    let expect = rescan(rc, v, range.start..range.end.min(len));
                    assert_eq!(got, expect, "node {v} range {range:?}");
                }
            }
        };
        let mut rc = RrCollection::new(8);
        assert_eq!(rc.extend_parallel(&sampler, 0, 5000, 2), Some(0..5000));
        assert_eq!((rc.epoch_boundaries(), rc.compactions()), (&[5000][..], 1));
        check(&rc);
        assert_eq!(rc.extend_parallel(&sampler, 5000, 0, 2), None, "no sets, no epoch");
        assert_eq!(rc.compactions(), 1);
        assert_eq!(rc.extend_parallel(&sampler, 5000, 1000, 1), Some(5000..6000));
        assert_eq!((rc.epoch_boundaries(), rc.compactions()), (&[5000, 6000][..], 2));
        assert_eq!(rc.epoch_edge_totals().len(), 2);
        assert_eq!(rc.epoch_edge_totals()[1], rc.total_edges_examined());
        check(&rc);
    }

    #[test]
    fn sealing_a_grown_clone_leaves_the_source_alone() {
        let sets: Vec<[NodeId; 2]> = (0..3000u32).map(|i| [i % 16, (i * 7 + 3) % 16]).collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        let source = pool(16, &refs);
        let answers = |rc: &RrCollection| -> Vec<Vec<u32>> {
            (0..16).map(|v| rc.sets_containing(v).to_vec()).collect()
        };
        let (source_answers, source_bytes) = (answers(&source), source.memory_bytes());
        let more: Vec<[NodeId; 1]> = (0..800u32).map(|i| [(i * 5) % 16]).collect();
        let more: Vec<&[NodeId]> = more.iter().map(|s| s.as_slice()).collect();
        let expect = |upto: u32| -> Vec<Vec<u32>> {
            (0..16u32)
                .map(|v| {
                    let mut ids = source_answers[v as usize].clone();
                    ids.extend((0..upto).filter(|i| (i * 5) % 16 == v).map(|i| 3000 + i));
                    ids
                })
                .collect()
        };

        // 500 new sets stay below a quarter of the 3000-set base: the
        // growth builds a recent tier and keeps sharing the base.
        let mut grown = source.clone();
        assert_eq!(grown.index.shares_tiers(&source.index), [true, true], "a clone shares both");
        assert_eq!(grown.append_epoch(&more[..500], 0), Some(3000..3500));
        assert_eq!(grown.index.shares_tiers(&source.index), [true, false]);
        assert_eq!(grown.seal_entries_merged() - source.seal_entries_merged(), 500);
        let (grown_answers, grown_bytes) = (answers(&grown), grown.memory_bytes());
        assert_eq!(grown_answers, expect(500));

        // 300 more make the recent tier 800 sets, past 3000 / 4: the
        // growth folds everything into a fresh base.
        let mut folded = grown.clone();
        assert_eq!(folded.append_epoch(&more[500..], 0), Some(3500..3800));
        assert_eq!(folded.index.shares_tiers(&grown.index), [false, false]);
        assert_eq!(folded.index.recent_first(), 3800);
        assert_eq!(folded.seal_entries_merged() - grown.seal_entries_merged(), 6800);
        assert_eq!(answers(&folded), expect(800));

        for (rc, bytes, epochs, answers_then) in [
            (&source, source_bytes, &[3000][..], &source_answers),
            (&grown, grown_bytes, &[3000, 3500][..], &grown_answers),
        ] {
            assert_eq!(rc.memory_bytes(), bytes);
            assert_eq!(rc.epoch_boundaries(), epochs);
            assert_eq!(&answers(rc), answers_then);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// No reader sees a tail: after every `extend_parallel` call, zero
        /// counts included, the last boundary is the pool end and exactly
        /// one boundary was added per non-empty call. However the growth
        /// is cut and at whatever thread count, the arena, the index and
        /// the edge total equal one `extend_parallel` of the same total.
        #[test]
        fn every_growth_is_one_sealed_epoch(
            steps in proptest::collection::vec((0u32..4, 1u64..400), 1..6),
        ) {
            let g = sns_graph::gen::erdos_renyi(60, 360, 2)
                .build(WeightModel::WeightedCascade)
                .unwrap();
            let sampler = RrSampler::with_config(
                &g,
                Model::IndependentCascade,
                sns_diffusion::RootDist::Uniform,
                9,
            );
            let counts: Vec<u64> =
                steps.iter().map(|&(die, c)| if die == 0 { 0 } else { c }).collect();
            let mut once = RrCollection::new(60);
            once.extend_parallel(&sampler, 0, counts.iter().sum(), 1);
            // The batched append leaves the capacities one append per set
            // leaves, so the byte footprint matches too.
            if !once.is_empty() {
                let sets: Vec<&[NodeId]> = (0..once.len()).map(|id| once.set(id)).collect();
                let mut per_set = RrCollection::new(60);
                per_set.append_epoch(&sets, once.total_edges_examined);
                proptest::prop_assert_eq!(per_set.data.capacity(), once.data.capacity());
                proptest::prop_assert_eq!(per_set.offsets.capacity(), once.offsets.capacity());
                proptest::prop_assert_eq!(per_set.memory_bytes(), once.memory_bytes());
            }
            let mut first: Option<RrCollection> = None;
            for threads in [1, 2, 8] {
                let mut rc = RrCollection::new(60);
                let mut from = 0u64;
                for &count in &counts {
                    let before = rc.epoch_boundaries().len();
                    let epoch = rc.extend_parallel(&sampler, from, count, threads);
                    let grown = (count > 0).then(|| from as u32..(from + count) as u32);
                    from += count;
                    proptest::prop_assert_eq!(epoch, grown);
                    proptest::prop_assert_eq!(
                        rc.epoch_boundaries().len(),
                        before + usize::from(count > 0)
                    );
                    let end = rc.epoch_boundaries().last().map_or(0, |&b| b as usize);
                    proptest::prop_assert_eq!(end, rc.len());
                    let edges = rc.epoch_edge_totals().last().copied().unwrap_or(0);
                    proptest::prop_assert_eq!(edges, rc.total_edges_examined());
                }
                proptest::prop_assert_eq!(&rc.data, &once.data);
                proptest::prop_assert_eq!(&rc.offsets, &once.offsets);
                proptest::prop_assert_eq!(rc.total_edges_examined, once.total_edges_examined);
                // One tier in `once`; a second (an offset per node plus
                // one) in `rc` while its recent tier holds sets.
                let two_tiers = rc.index.recent_first() < rc.len() as u32;
                let recent_offsets = if two_tiers { 4 * 61 } else { 0 };
                proptest::prop_assert_eq!(
                    rc.index_memory_bytes(),
                    once.index_memory_bytes() + recent_offsets
                );
                for v in 0..60 {
                    proptest::prop_assert_eq!(rc.sets_containing(v), once.sets_containing(v));
                }
                match &first {
                    None => first = Some(rc),
                    Some(one) => {
                        proptest::prop_assert_eq!(&rc.index, &one.index);
                        proptest::prop_assert_eq!(&rc.epoch_edges, &one.epoch_edges);
                        proptest::prop_assert_eq!(rc.memory_bytes(), one.memory_bytes());
                    }
                }
            }
        }
    }

    #[test]
    fn inverted_index_is_ascending() {
        let sets: Vec<&[NodeId]> = vec![&[0, 1]; 50];
        let rc = pool(2, &sets);
        let ids = rc.sets_containing(0).to_vec();
        assert_eq!(ids.len(), 50);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }
}

//! Chunked RR-set pool with an epoch-sealed inverted index.
//!
//! # Storage layout
//!
//! Sets live in immutable [`Chunk`]s, one per sealed epoch: a set-CSR
//! of the epoch's nodes and set ends, exactly like the graph storage in
//! `sns-graph` cut at the epoch boundaries. Every set lies inside one
//! chunk, so [`RrCollection::set`] is a binary search over the
//! boundaries and a slice. The node→set-ids inverted index — the
//! structure greedy Max-Coverage and every coverage query traverse — is
//! two immutable flat CSR tiers, a base and a recent one
//! ([`crate::index`]). Ids come out ascending, so range restriction is a
//! binary search into at most two slices ([`SetIds`]).
//!
//! # Growth is one sealed epoch
//!
//! A pool grows only through [`RrCollection::extend_parallel`] (sampled
//! sets) and [`RrCollection::append_epoch`] (given sets). Each call
//! writes its sets once, into a new exact-size chunk — one sampling
//! worker's buffers move in, several workers' batches are concatenated
//! — and seals it as **one epoch** before it returns, so no reader ever
//! sees an unindexed set. A seal counting-sorts only the new chunk and
//! merges it behind the recent tier into a fresh recent tier —
//! `O(recent + new entries + n)` — until the recent tier would pass a
//! quarter of the base, when it folds everything into a fresh base.
//! SSA/D-SSA grow the pool only at their doubling checkpoints, so each
//! iteration costs exactly one seal, which folds: their pools keep one
//! CSR.
//!
//! Chunks and index tiers are shared by `Arc` and never written again,
//! so a clone copies only the chunk list, the epoch boundaries and the
//! edge totals ([`RrCollection::clone_bytes`], `O(epochs)`), and growing
//! a clone leaves the pool it came from untouched. Chunks are
//! exact-size, so [`RrCollection::memory_bytes`], which counts
//! capacities, does not depend on the thread count or on how a growth
//! was split between workers.
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
use std::sync::Arc;

use sns_diffusion::RrSampler;
use sns_graph::{GraphError, NodeId};

use crate::chunk::Chunk;
use crate::index::{CsrOffsets, SealedIndex, SetIds};

/// A growing pool of RR sets (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct RrCollection {
    n: u32,
    /// One chunk per sealed epoch, in epoch order.
    chunks: Vec<Arc<Chunk>>,
    /// Sealed inverted node→set-ids index; it also keeps the epoch
    /// boundaries.
    index: SealedIndex,
    /// Total in-edges examined while sampling all pooled sets.
    total_edges_examined: u64,
    /// Cumulative `total_edges_examined` frozen at each sealed epoch
    /// boundary, parallel to [`RrCollection::epoch_boundaries`]. The
    /// store serializes per-epoch deltas of this so a recovered prefix
    /// restores the exact sampling-cost accounting of its sets.
    epoch_edges: Vec<u64>,
}

impl RrCollection {
    /// Creates an empty pool over `n` nodes.
    pub fn new(n: u32) -> Self {
        RrCollection {
            n,
            chunks: Vec::new(),
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
        self.index.indexed_sets() as usize
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole pool as a set-id range (`0..len`), for the range-taking
    /// coverage and snapshot APIs.
    pub fn id_range(&self) -> Range<u32> {
        0..self.index.indexed_sets()
    }

    /// Total number of node entries across all sets.
    pub fn total_nodes(&self) -> u64 {
        self.chunks.iter().map(|c| c.data.len() as u64).sum()
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
        let bounds = self.index.epoch_bounds();
        let e = bounds.partition_point(|&b| b as usize <= id);
        let start = if e == 0 { 0 } else { bounds[e - 1] as usize };
        self.chunks[e].set(id - start)
    }

    /// The chunks, one per sealed epoch, in epoch order.
    pub(crate) fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// The chunks a non-empty id `range` touches, each with the local
    /// set range the ids cover: ascending, and together exactly `range`.
    pub(crate) fn chunk_spans(
        &self,
        range: Range<u32>,
    ) -> impl Iterator<Item = (&Chunk, Range<usize>)> + '_ {
        let bounds = self.index.epoch_bounds();
        let first = bounds.partition_point(|&b| b <= range.start);
        (first..bounds.len()).map_while(move |e| {
            let lo = if e == 0 { 0 } else { bounds[e - 1] };
            (range.start < range.end && lo < range.end).then(|| {
                let local = range.start.max(lo) - lo..range.end.min(bounds[e]) - lo;
                (&*self.chunks[e], local.start as usize..local.end as usize)
            })
        })
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
        let per_worker = count.div_ceil(workers as u64);
        // Worker `w` samples its contiguous index range into a private
        // batch; concatenating the batches in worker order makes the
        // chunk identical for every worker count.
        let sample_batch = |w: u64| {
            let end = (from_index + (w + 1) * per_worker).min(from_index + count);
            let mut local = sampler.clone();
            let (mut data, mut ends, mut edges) = (Vec::new(), vec![0u64], 0u64);
            let mut rr = Vec::new();
            for i in from_index + w * per_worker..end {
                edges += local.sample(i, &mut rr).edges_examined;
                data.extend_from_slice(&rr);
                ends.push(data.len() as u64);
            }
            (data, CsrOffsets::Wide(ends), edges)
        };
        let batches: Vec<(Vec<NodeId>, CsrOffsets, u64)> = if workers == 1 {
            vec![sample_batch(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..workers as u64).map(|w| scope.spawn(move || sample_batch(w))).collect();
                handles.into_iter().map(|h| h.join().expect("rr worker panicked")).collect()
            })
        };
        let edges = batches.iter().map(|b| b.2).sum();
        let chunk = Chunk::from_batches(batches.into_iter().map(|(d, e, _)| (d, e)).collect());
        Some(self.seal(chunk, edges, threads))
    }

    /// Appends the given `sets` in order and seals them as one new epoch,
    /// whose id range it returns (`None` for no sets: no epoch).
    /// `edges_examined` is the sampling cost of the whole batch. This is
    /// how pools are built from sets that were not sampled by an
    /// [`RrSampler`] stream — fixtures, oracles, hand-made examples.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] if a set names a node id
    /// `>= num_nodes()`; the pool is then left unchanged.
    pub fn append_epoch(
        &mut self,
        sets: &[&[NodeId]],
        edges_examined: u64,
    ) -> Result<Option<Range<u32>>, GraphError> {
        if sets.is_empty() {
            return Ok(None);
        }
        let chunk = Chunk::from_sets(sets, self.n)?;
        Ok(Some(self.seal(chunk, edges_examined, 1)))
    }

    /// Restores one sealed epoch from its verified serialized form: the
    /// decoded chunk moves in as is, its sampling cost is accounted, and
    /// it is sealed — one seal, so exactly the saved epoch boundary is
    /// recorded. The chunk must hold at least one set, each node below
    /// `num_nodes()`.
    pub(crate) fn restore_sealed_epoch(&mut self, chunk: Chunk, edges_delta: u64, threads: usize) {
        let _ = self.seal(chunk, edges_delta, threads);
    }

    /// No-op: every growth already seals its sets. Kept only because the
    /// end-to-end benchmark still calls it; the paired benchmark change
    /// (ROADMAP C′) deletes it.
    #[doc(hidden)]
    pub fn seal_parallel(&mut self, _threads: usize) {}

    /// Seals `chunk` as the next epoch: the one place the chunks, the
    /// index and the epoch boundaries change. Indexes its sets into a
    /// fresh index tier (a counting sort over `threads` workers,
    /// bit-identical for every value), appends the chunk, records the
    /// pool end as the new boundary with its cumulative edge total, and
    /// returns the epoch's id range. The chunk holds at least one set.
    fn seal(&mut self, chunk: Chunk, edges_examined: u64, threads: usize) -> Range<u32> {
        debug_assert!(self.len() + chunk.len() <= u32::MAX as usize, "set-id space exhausted");
        let first = self.index.indexed_sets();
        self.index.seal(&chunk, threads);
        self.chunks.push(Arc::new(chunk));
        self.total_edges_examined += edges_examined;
        self.epoch_edges.push(self.total_edges_examined);
        first..self.index.indexed_sets()
    }

    /// Test-only drift hooks for the save-time metadata guard: desync the
    /// last chunk's set ends / the per-epoch edge totals / the sealed
    /// chunk list the way a bookkeeping bug would, so tests can prove the
    /// guard turns the mismatch into a typed error instead of serializing
    /// garbage.
    #[cfg(test)]
    pub(crate) fn corrupt_last_offset_for_test(&mut self) {
        let chunk = self.chunks.last_mut().expect("a sealed chunk");
        let chunk = Arc::get_mut(chunk).expect("an unshared chunk");
        match &mut chunk.ends {
            CsrOffsets::Narrow(o) => *o.last_mut().expect("ends non-empty") += 1,
            CsrOffsets::Wide(o) => *o.last_mut().expect("ends non-empty") += 1,
        }
    }

    /// See [`RrCollection::corrupt_last_offset_for_test`].
    #[cfg(test)]
    pub(crate) fn truncate_epoch_edges_for_test(&mut self) {
        self.epoch_edges.pop();
    }

    /// See [`RrCollection::corrupt_last_offset_for_test`]: appends a
    /// chunk of one set without sealing it, leaving the pool with an
    /// unsealed tail.
    #[cfg(test)]
    pub(crate) fn append_unsealed_for_test(&mut self, rr: &[NodeId]) {
        let chunk = Chunk::from_sets(&[rr], self.n).expect("ids in the universe");
        self.chunks.push(Arc::new(chunk));
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

    /// Bytes a clone of this pool deep-copies: its chunk list, epoch
    /// boundaries and per-epoch edge totals. The chunks and the index
    /// tiers are shared, so this grows with the epochs, not the sets.
    pub fn clone_bytes(&self) -> u64 {
        use std::mem::size_of_val;
        let bounds = self.epoch_boundaries();
        (size_of_val(&self.chunks[..]) + size_of_val(bounds) + size_of_val(&self.epoch_edges[..]))
            as u64
    }

    /// Exact byte footprint of the pool (the chunks, the chunk list, the
    /// edge totals and both tiers of the sealed inverted index, counting
    /// capacities). This is the quantity the memory experiments
    /// (Figs. 6–7) report.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let chunks: u64 = self.chunks.iter().map(|c| c.memory_bytes()).sum();
        let lists = self.chunks.capacity() * size_of::<Arc<Chunk>>()
            + self.epoch_edges.capacity() * size_of::<u64>();
        chunks + lists as u64 + self.index.memory_bytes()
    }

    /// Byte footprint of the inverted index alone (both tiers, counting
    /// capacities) — the component the sealed CSR layout shrinks relative
    /// to per-node `Vec`s.
    pub fn index_memory_bytes(&self) -> u64 {
        self.index.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{max_coverage_naive, max_coverage_with, CoverageView, GainSnapshot, GreedyScratch};
    use sns_diffusion::{Model, RrSampler};
    use sns_graph::WeightModel;

    /// A pool holding `sets` as one epoch, one examined edge per set.
    fn pool(n: u32, sets: &[&[NodeId]]) -> RrCollection {
        let mut rc = RrCollection::new(n);
        rc.append_epoch(sets, sets.len() as u64).expect("ids below n");
        rc
    }

    /// The nodes of every chunk back to back, and every set's end in
    /// them: the flat arena the chunks cut at the epoch boundaries.
    fn flat(rc: &RrCollection) -> (Vec<NodeId>, Vec<u64>) {
        let (mut data, mut ends) = (Vec::new(), vec![0u64]);
        for chunk in rc.chunks() {
            let base = data.len() as u64;
            ends.extend(chunk.ends.iter().skip(1).map(|e| base + e));
            data.extend_from_slice(&chunk.data);
        }
        (data, ends)
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
    fn append_epoch_rejects_a_node_equal_to_n() {
        // Node 3 in a 3-node pool would fall outside the index: its set
        // would sit under no node and its coverage would be lost.
        let mut rc = RrCollection::new(3);
        let err = rc.append_epoch(&[&[0, 1], &[3]], 0).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 3, num_nodes: 3 }), "{err}");
        assert_eq!((rc.len(), rc.compactions(), rc.total_nodes()), (0, 0, 0), "nothing appended");
        assert_eq!(rc.append_epoch(&[&[0, 1], &[2]], 0).unwrap(), Some(0..2));
        assert_eq!(rc.sets_containing(2).to_vec(), [1]);
    }

    #[test]
    fn append_epoch_rejects_a_node_above_n() {
        // An id past n would index past the seal's histogram.
        let mut rc = pool(3, &[&[0, 1]]);
        let before = (rc.len(), rc.compactions(), rc.total_edges_examined(), rc.memory_bytes());
        let err = rc.append_epoch(&[&[2], &[1, 7, 0]], 5).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 7, num_nodes: 3 }), "{err}");
        let after = (rc.len(), rc.compactions(), rc.total_edges_examined(), rc.memory_bytes());
        assert_eq!(after, before, "a rejected epoch leaves the pool unchanged");
        assert_eq!(rc.epoch_edge_totals(), &[1]);
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
        assert_eq!(rc.append_epoch(&[&[1], &[0, 2]], 2).unwrap(), Some(2..4));
        assert_eq!(rc.epoch_boundaries(), &[2, 4]);
        assert_eq!(rc.sets_containing(0).to_vec(), [0, 1, 3]);
        assert_eq!(rc.sets_containing_in(0, 1..4).to_vec(), [1, 3]);
        assert_eq!(rc.sets_containing_in(1, 1..3).to_vec(), [1, 2]);
        let mut scratch = Vec::new();
        assert_eq!(rc.coverage_of_range(&[0], 2..4, &mut scratch), 1);
        assert_eq!(rc.coverage_of(&[1]), 2);
        let sets: Vec<&[NodeId]> = (0..4).map(|id| rc.set(id)).collect();
        assert_eq!(sets, [&[0][..], &[0, 1], &[1], &[0, 2]], "set ids resolve across chunks");
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
            assert_eq!(seq.chunks, par.chunks);
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
        rc.append_epoch(&refs, 0).unwrap();
        assert!(rc.memory_bytes() > empty);
        assert!(rc.index_memory_bytes() > 0);
        // an exact-size chunk: 200 nodes and 101 narrow ends, plus the
        // chunk list and the edge totals, plus the index
        let lists = std::mem::size_of::<Arc<Chunk>>() * rc.chunks.capacity()
            + 8 * rc.epoch_edges.capacity();
        assert_eq!(rc.memory_bytes(), 4 * 200 + 4 * 101 + lists as u64 + rc.index_memory_bytes());
    }

    #[test]
    fn sealing_shrinks_the_index() {
        let mut rc = RrCollection::new(4);
        assert_eq!(rc.index_memory_bytes(), 0, "an empty pool indexes nothing");
        let sets: Vec<[NodeId; 2]> = (0..2000u32).map(|i| [i % 4, (i + 1) % 4]).collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        rc.append_epoch(&refs, 0).unwrap();
        // the sealed index sits exactly at the flat-CSR floor: one u32
        // offset per node (plus one) and one u32 id per entry
        assert_eq!(rc.index_memory_bytes(), 4 * (4 + 1) + 4 * rc.total_nodes());
        assert_eq!(rc.sets_containing(0).len(), 1000);
    }

    #[test]
    fn epoch_boundaries_are_append_only_and_tile_the_sealed_prefix() {
        let mut rc = RrCollection::new(4);
        assert!(rc.epoch_boundaries().is_empty());
        assert_eq!(rc.append_epoch(&[&[0, 1], &[1, 2]], 2).unwrap(), Some(0..2));
        assert_eq!(rc.epoch_boundaries(), &[2]);
        assert_eq!(rc.epochs().collect::<Vec<_>>(), vec![0..2]);
        // an empty growth is a no-op: no rebuild, no epoch
        let compactions = rc.compactions();
        assert_eq!(rc.append_epoch(&[], 0).unwrap(), None);
        assert_eq!(rc.compactions(), compactions);
        assert_eq!(rc.epoch_boundaries(), &[2]);
        // a growth freezes exactly one new epoch; old bounds move
        // nowhere (the append-only contract per-epoch snapshots rely on)
        assert_eq!(rc.append_epoch(&[&[2, 3], &[3]], 2).unwrap(), Some(2..4));
        assert_eq!(rc.epoch_boundaries(), &[2, 4]);
        assert_eq!(rc.epochs().collect::<Vec<_>>(), vec![0..2, 2..4]);
        assert_eq!(rc.epoch_edge_totals(), &[2, 4]);
        assert_eq!(rc.chunks().len(), 2, "one chunk per epoch");
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
        let source_flat = flat(&source);
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
        let shares_chunks = |a: &RrCollection, b: &RrCollection| {
            a.chunks.iter().zip(&b.chunks).all(|(x, y)| Arc::ptr_eq(x, y))
        };

        // 500 new sets stay below a quarter of the 3000-set base: the
        // growth builds a recent tier and keeps sharing the base.
        let mut grown = source.clone();
        assert_eq!(grown.index.shares_tiers(&source.index), [true, true], "a clone shares both");
        assert_eq!(grown.append_epoch(&more[..500], 0).unwrap(), Some(3000..3500));
        assert_eq!(grown.index.shares_tiers(&source.index), [true, false]);
        assert!(shares_chunks(&grown, &source), "the growth adds a chunk, the old one is shared");
        assert_eq!((grown.chunks.len(), source.chunks.len()), (2, 1));
        assert_eq!(grown.seal_entries_merged() - source.seal_entries_merged(), 500);
        let (grown_answers, grown_bytes) = (answers(&grown), grown.memory_bytes());
        assert_eq!(grown_answers, expect(500));

        // 300 more make the recent tier 800 sets, past 3000 / 4: the
        // growth folds everything into a fresh base.
        let mut folded = grown.clone();
        assert_eq!(folded.append_epoch(&more[500..], 0).unwrap(), Some(3500..3800));
        assert_eq!(folded.index.shares_tiers(&grown.index), [false, false]);
        assert!(shares_chunks(&folded, &grown) && shares_chunks(&folded, &source));
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
        assert_eq!(flat(&source), source_flat, "the shared chunk is unchanged");
    }

    #[test]
    fn a_clone_copies_bytes_per_epoch_not_per_set() {
        let mut small = RrCollection::new(4);
        let mut large = RrCollection::new(4);
        for epoch in 0..3u32 {
            let sets: Vec<[NodeId; 2]> = (0..10 + 1000 * epoch).map(|i| [i % 4, 1]).collect();
            let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
            small.append_epoch(&refs[..1], 1).unwrap();
            large.append_epoch(&refs, 1).unwrap();
        }
        let per_epoch = (std::mem::size_of::<Arc<Chunk>>() + 4 + 8) as u64;
        assert_eq!(small.clone_bytes(), 3 * per_epoch);
        assert_eq!(large.clone_bytes(), 3 * per_epoch, "sets do not add clone bytes");
        small.append_epoch(&[&[0]], 1).unwrap();
        assert_eq!(small.clone_bytes(), 4 * per_epoch, "each epoch adds its entries");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// No reader sees a tail: after every `extend_parallel` call, zero
        /// counts included, the last boundary is the pool end and exactly
        /// one boundary was added per non-empty call. However the growth
        /// is cut and at whatever thread count, the chunks concatenate to
        /// the nodes and set ends of one `extend_parallel` of the same
        /// total, and the index answers and the edge total match it; at
        /// one schedule, chunks, index and memory do not depend on the
        /// thread count.
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
            // Exact-size chunks: a sampled epoch takes the bytes the
            // same sets appended by hand take.
            if !once.is_empty() {
                let sets: Vec<&[NodeId]> = (0..once.len()).map(|id| once.set(id)).collect();
                let mut per_set = RrCollection::new(60);
                per_set.append_epoch(&sets, once.total_edges_examined).unwrap();
                proptest::prop_assert_eq!(&per_set.chunks, &once.chunks);
                proptest::prop_assert_eq!(per_set.chunks[0].data.capacity(), once.total_nodes() as usize);
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
                    proptest::prop_assert_eq!(rc.chunks.len(), rc.epoch_boundaries().len());
                    let end = rc.epoch_boundaries().last().map_or(0, |&b| b as usize);
                    proptest::prop_assert_eq!(end, rc.len());
                    let edges = rc.epoch_edge_totals().last().copied().unwrap_or(0);
                    proptest::prop_assert_eq!(edges, rc.total_edges_examined());
                }
                proptest::prop_assert_eq!(flat(&rc), flat(&once));
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
                        proptest::prop_assert_eq!(&rc.chunks, &one.chunks);
                        proptest::prop_assert_eq!(&rc.index, &one.index);
                        proptest::prop_assert_eq!(&rc.epoch_edges, &one.epoch_edges);
                        proptest::prop_assert_eq!(rc.memory_bytes(), one.memory_bytes());
                    }
                }
            }
        }

        /// Over random schedules mixing `append_epoch` and
        /// `extend_parallel` (zero counts included) at 1, 2 and 8
        /// threads, set lookups and coverage views resolve the right
        /// chunk: `set(id)` and the `members(slot)` of fresh, frozen and
        /// merged-snapshot views equal a flat reference arena, over
        /// ranges that straddle chunk boundaries and empty ones, and
        /// greedy selection on those views equals the rescan oracle.
        #[test]
        fn chunk_resolution_matches_a_flat_arena(
            steps in proptest::collection::vec((0u32..3, 0u64..300), 1..7),
            cuts in proptest::collection::vec((0u32..1000, 0u32..1000), 3),
        ) {
            const N: u32 = 40;
            let g = sns_graph::gen::erdos_renyi(N, 240, 4)
                .build(WeightModel::WeightedCascade)
                .unwrap();
            let sampler = RrSampler::with_config(
                &g,
                Model::IndependentCascade,
                sns_diffusion::RootDist::Uniform,
                3,
            );
            for threads in [1, 2, 8] {
                let mut rc = RrCollection::new(N);
                let mut reference: Vec<Vec<NodeId>> = Vec::new();
                let mut from = 0u64;
                for &(kind, count) in &steps {
                    if kind == 0 {
                        // hand-built sets, some of them empty
                        let sets: Vec<Vec<NodeId>> = (0..count % 40)
                            .map(|i| (0..(i % 4) as u32).map(|j| (i as u32 * 7 + j) % N).collect())
                            .collect();
                        let refs: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
                        rc.append_epoch(&refs, 0).unwrap();
                        reference.extend(sets);
                    } else {
                        rc.extend_parallel(&sampler, from, count, threads);
                        let mut stream = sampler.clone();
                        reference.extend((from..from + count).map(|i| {
                            let mut rr = Vec::new();
                            stream.sample(i, &mut rr);
                            rr
                        }));
                        from += count;
                    }
                }
                let len = rc.len() as u32;
                proptest::prop_assert_eq!(reference.len(), rc.len());
                for (id, set) in reference.iter().enumerate() {
                    proptest::prop_assert_eq!(rc.set(id), set.as_slice());
                }
                let bounds = rc.epoch_boundaries().to_vec();
                let mut ranges = vec![0..len, len..len, 0..0];
                for &b in &bounds {
                    ranges.push(b.saturating_sub(1)..(b + 1).min(len));
                    ranges.push(b..b);
                }
                ranges.extend(cuts.iter().map(|&(a, b)| {
                    let (a, b) = (a % (len + 1), b % (len + 1));
                    a.min(b)..a.max(b)
                }));
                let mut scratch = GreedyScratch::new();
                for range in ranges {
                    let view = CoverageView::build(&rc, range.clone());
                    let snapshot = GainSnapshot::build(&view);
                    let frozen = snapshot.view(&rc);
                    // a merge of per-epoch snapshots of the range
                    let mut parts = Vec::new();
                    let mut lo = range.start;
                    for &b in bounds.iter().filter(|&&b| b > range.start && b < range.end) {
                        parts.push(GainSnapshot::build(&CoverageView::build(&rc, lo..b)));
                        lo = b;
                    }
                    parts.push(GainSnapshot::build(&CoverageView::build(&rc, lo..range.end)));
                    let merged = GainSnapshot::merge(&parts.iter().collect::<Vec<_>>());
                    proptest::prop_assert_eq!(&merged, &snapshot);
                    let merged_view = merged.view(&rc);
                    for slot in 0..view.len() {
                        let want = reference[range.start as usize + slot].as_slice();
                        proptest::prop_assert_eq!(view.members(slot), want);
                        proptest::prop_assert_eq!(frozen.members(slot), want);
                        proptest::prop_assert_eq!(merged_view.members(slot), want);
                    }
                    let got = max_coverage_with(&rc, 4, range.clone(), &mut scratch);
                    let oracle = max_coverage_naive(&rc, 4, range.clone(), None);
                    proptest::prop_assert_eq!(crate::WeightedCoverageResult::from(got), oracle);
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

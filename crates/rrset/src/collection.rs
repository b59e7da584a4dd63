//! Arena-backed RR-set pool with an epoch-sealed inverted index.
//!
//! # Storage layout
//!
//! Sets live in one flat node arena (`data`) addressed by per-set
//! offsets, exactly like the CSR graph storage in `sns-graph`. The
//! node→set-ids inverted index — the structure greedy Max-Coverage and
//! every coverage query traverse — is one immutable flat CSR (offsets
//! plus 4-byte ids) over every set up to the last seal, shared by `Arc`
//! between clones ([`crate::index`]). Sets appended since the last seal
//! are not indexed: a query scans their arena slice in id order, so
//! reads before a seal stay correct at `O(unsealed entries)` each. Both
//! parts yield ascending set ids, so range restriction stays a binary
//! search plus a clipped scan.
//!
//! Compared to the previous `node_to_sets: Vec<Vec<u32>>` layout this
//! removes one heap allocation + 24-byte `Vec` header per node and the
//! power-of-two capacity slack per non-empty node (~3× overhead at
//! billion scale), and it turns index construction into a parallel
//! counting sort instead of per-node `push` calls.
//!
//! # Amortization
//!
//! Appends ([`RrCollection::push`], [`RrCollection::extend_sequential`],
//! [`RrCollection::extend_parallel`]) write only the arena. The index
//! changes only in [`RrCollection::seal`] / [`RrCollection::seal_parallel`],
//! which counting-sort the sets added since the previous seal —
//! `O(new entries + n)` — and then copy the old sealed CSR and the new
//! ids into the next CSR in one sequential merge pass, a `memcpy`-speed
//! `O(total entries)`. SSA/D-SSA grow the pool only at their doubling
//! checkpoints (`Λ·2^(t−1)` sets at iteration `t`) and seal once right
//! after each growth, so each iteration costs exactly one seal.
//!
//! Cloning a pool copies the arena and its offsets; the sealed CSR is
//! shared, and a seal on the clone builds a fresh one instead of writing
//! to it, so a published pool never changes through its clones.
//!
//! # Determinism
//!
//! Set ids are dense `0..len()` in insertion order, so the "first
//! `Λ·2^(t−1)` samples" semantics of SSA/D-SSA map directly onto id
//! ranges. Pool growth is **bit-identical** across thread counts: each
//! sample index owns its RNG stream, workers own contiguous index
//! ranges merged in order, epoch boundaries depend only on seal calls
//! (each seal that finds unsealed sets records exactly one), and the
//! counting sort produces the same arrays for every worker count.

use std::ops::Range;

use sns_diffusion::{RrMeta, RrSampler};
use sns_graph::NodeId;

use crate::index::{SealedIndex, SetIds};

/// What a seal actually did. [`RrCollection::seal`] on a fully-sealed
/// pool is a silent success by design (sealing is idempotent), but a
/// grow-while-serving loop needs to know whether there is a *new* epoch
/// to freeze and publish — this makes the no-op explicit instead of
/// forcing callers to diff [`RrCollection::epoch_boundaries`] around the
/// call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a grow loop must distinguish 'nothing pending' from 'epoch published'"]
pub enum SealOutcome {
    /// Every pooled set was already sealed: no rebuild ran, no epoch
    /// boundary was added.
    AlreadySealed,
    /// The unsealed sets were indexed as one new sealed epoch covering
    /// this id range (its end is the pool length).
    EpochSealed {
        /// The id range of the newly sealed epoch.
        epoch: Range<u32>,
    },
}

impl SealOutcome {
    /// The newly sealed epoch's id range, if one was published.
    pub fn epoch(&self) -> Option<Range<u32>> {
        match self {
            SealOutcome::AlreadySealed => None,
            SealOutcome::EpochSealed { epoch } => Some(epoch.clone()),
        }
    }
}

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

    /// Number of sets in the sealed CSR index (ids `0..sealed_sets`).
    pub fn sealed_sets(&self) -> u32 {
        self.index.sealed_sets()
    }

    /// Number of sets appended since the last seal (not yet indexed).
    pub fn pending_sets(&self) -> u32 {
        crate::narrow::set_count(self.len()) - self.index.sealed_sets()
    }

    /// Number of epoch seals (compactions) performed so far — one per
    /// recorded epoch boundary.
    pub fn compactions(&self) -> u64 {
        self.index.epoch_bounds().len() as u64
    }

    /// Cumulative set-id boundaries of the sealed epochs, strictly
    /// ascending: epoch `e` covers ids
    /// `boundaries[e - 1] .. boundaries[e]` (with an implicit leading 0),
    /// and ids at or past the last boundary are still pending. The list
    /// is **append-only** — a seal only adds a boundary past the previous
    /// frontier, never moves an existing one — so anything frozen against
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
        self.sets_containing_in(v, self.id_range())
    }

    /// Ids of the sets containing `v` restricted to an id `range`,
    /// ascending. Sealed ids are binary-searched in the CSR; sets past
    /// the sealed frontier are found by scanning their arena slice,
    /// `O(unsealed entries)` — seal before reading a grown pool. An
    /// inverted range (`start >= end`) is empty.
    pub fn sets_containing_in(&self, v: NodeId, range: Range<u32>) -> SetIds<'_> {
        self.index.sets_containing_in(v, range, &self.data, &self.offsets)
    }

    /// The single append routine every growth path funnels through:
    /// copies the set into the arena and accounts its sampling cost. The
    /// inverted index picks the set up at the next seal.
    #[inline]
    fn append_arena(&mut self, rr: &[NodeId], edges_examined: u64) {
        debug_assert!(self.len() < u32::MAX as usize, "set-id space exhausted");
        self.data.extend_from_slice(rr);
        self.offsets.push(self.data.len() as u64);
        self.total_edges_examined += edges_examined;
    }

    /// Cumulative `total_edges_examined` at each sealed epoch boundary,
    /// parallel to [`RrCollection::epoch_boundaries`]. The store derives
    /// per-epoch deltas from this.
    pub(crate) fn epoch_edge_totals(&self) -> &[u64] {
        &self.epoch_edges
    }

    /// Restores one sealed epoch from its serialized form: appends the
    /// epoch's arena slice verbatim (`set_ends` are the per-set end
    /// offsets rebased to the epoch start, leading 0 implicit), accounts
    /// its sampling cost, and seals it — one seal, so exactly the saved
    /// epoch boundary is recorded.
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
        let _ = self.seal_parallel(threads);
    }

    /// Test-only drift hooks for the save-time metadata guard: desync the
    /// arena offsets / the per-epoch edge totals the way a bookkeeping
    /// bug would, so tests can prove the guard turns the mismatch into a
    /// typed error instead of serializing garbage.
    #[cfg(test)]
    pub(crate) fn corrupt_last_offset_for_test(&mut self) {
        *self.offsets.last_mut().expect("offsets non-empty") += 1;
    }

    /// See [`RrCollection::corrupt_last_offset_for_test`].
    #[cfg(test)]
    pub(crate) fn truncate_epoch_edges_for_test(&mut self) {
        self.epoch_edges.pop();
    }

    /// Appends one sampled set (arena only; see [`RrCollection::seal`]).
    pub fn push(&mut self, rr: &[NodeId], meta: RrMeta) {
        self.append_arena(rr, meta.edges_examined);
    }

    /// Seals one epoch: indexes every set appended since the last seal
    /// into the sealed CSR and records the pool end as a new epoch
    /// boundary. This is the only operation that changes the index or the
    /// boundaries. Query answers are unaffected; unsealed reads stop
    /// scanning. Returns whether a new epoch was actually published — see
    /// [`SealOutcome`].
    pub fn seal(&mut self) -> SealOutcome {
        self.seal_parallel(1)
    }

    /// [`RrCollection::seal`] with a worker-thread budget for the
    /// counting sort of the unsealed sets. The seal costs an `O(new
    /// entries)` scatter plus one sequential merge copy of the index into
    /// a fresh sealed CSR; clones sharing the old one are untouched. The
    /// resulting index is bit-identical for every `threads` value.
    /// Sealing an already fully sealed pool is an explicit no-op (no
    /// rebuild, no new epoch) reported as [`SealOutcome::AlreadySealed`],
    /// so a grow loop can distinguish "nothing pending" from "epoch
    /// published" without re-reading [`RrCollection::epoch_boundaries`].
    pub fn seal_parallel(&mut self, threads: usize) -> SealOutcome {
        let sealed = self.index.sealed_sets() as usize;
        if sealed == self.len() {
            return SealOutcome::AlreadySealed;
        }
        self.index.seal(&self.data, &self.offsets, threads);
        self.epoch_edges.push(self.total_edges_examined);
        SealOutcome::EpochSealed {
            epoch: crate::narrow::set_count(sealed)..crate::narrow::set_count(self.len()),
        }
    }

    /// Grows the pool with samples `from_index .. from_index + count` from
    /// the sampler's deterministic stream, sequentially. Appends only;
    /// [`RrCollection::seal`] indexes the new sets.
    pub fn extend_sequential(&mut self, sampler: &mut RrSampler<'_>, from_index: u64, count: u64) {
        let mut rr = Vec::new();
        for i in 0..count {
            let meta = sampler.sample(from_index + i, &mut rr);
            self.append_arena(&rr, meta.edges_examined);
        }
    }

    /// Grows the pool with samples `from_index .. from_index + count`,
    /// fanning generation across `threads` workers. The result is
    /// **bit-identical** to [`RrCollection::extend_sequential`] because
    /// each sample index owns its RNG stream and workers own contiguous
    /// index ranges merged back in order (see the module docs). With one
    /// worker (or under 128 samples) it runs the sequential path.
    /// Appends only; [`RrCollection::seal_parallel`] indexes the new sets.
    pub fn extend_parallel(
        &mut self,
        sampler: &RrSampler<'_>,
        from_index: u64,
        count: u64,
        threads: usize,
    ) {
        let workers = threads.clamp(1, count.max(1) as usize);
        if workers == 1 || count < 128 {
            let mut local = sampler.clone();
            self.extend_sequential(&mut local, from_index, count);
            return;
        }
        let chunk = count.div_ceil(workers as u64);
        // Each worker fills a private mini-arena; merging preserves index
        // order so the pool layout matches the sequential build.
        let batches: Vec<(Vec<NodeId>, Vec<u64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers as u64)
                .map(|w| {
                    let start = from_index + w * chunk;
                    let end = (from_index + (w + 1) * chunk).min(from_index + count);
                    let mut local = sampler.clone();
                    scope.spawn(move || {
                        let mut data = Vec::new();
                        let mut offsets = vec![0u64];
                        let mut edges = 0u64;
                        let mut rr = Vec::new();
                        for i in start..end {
                            let meta = local.sample(i, &mut rr);
                            data.extend_from_slice(&rr);
                            offsets.push(data.len() as u64);
                            edges += meta.edges_examined;
                        }
                        (data, offsets, edges)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rr worker panicked")).collect()
        });
        for (data, offsets, edges) in batches {
            for w in offsets.windows(2) {
                self.append_arena(&data[w[0] as usize..w[1] as usize], 0);
            }
            self.total_edges_examined += edges;
        }
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

    /// Exact byte footprint of the pool (arena + offsets + the sealed
    /// inverted index, counting capacities). This is the quantity the
    /// memory experiments (Figs. 6–7) report.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let arena = self.data.capacity() * size_of::<NodeId>();
        let offsets = (self.offsets.capacity() + self.epoch_edges.capacity()) * size_of::<u64>();
        (arena + offsets) as u64 + self.index.memory_bytes()
    }

    /// Byte footprint of the inverted index alone (counting capacities) —
    /// the component the sealed CSR layout shrinks relative to per-node
    /// `Vec`s. Sets appended since the last seal are not indexed yet.
    pub fn index_memory_bytes(&self) -> u64 {
        self.index.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_diffusion::{Model, RrSampler};
    use sns_graph::WeightModel;

    fn meta(root: NodeId) -> RrMeta {
        RrMeta { root, edges_examined: 1 }
    }

    #[test]
    fn push_and_query() {
        let mut rc = RrCollection::new(5);
        rc.push(&[0, 1, 2], meta(0));
        rc.push(&[1], meta(1));
        rc.push(&[3, 1], meta(3));
        assert_eq!(rc.len(), 3);
        assert_eq!(rc.total_nodes(), 6);
        assert_eq!(rc.set(0), &[0, 1, 2]);
        assert_eq!(rc.set(1), &[1]);
        assert_eq!(rc.sets_containing(1).to_vec(), vec![0, 1, 2]);
        assert_eq!(rc.sets_containing(4).to_vec(), Vec::<u32>::new());
        assert_eq!(rc.total_edges_examined(), 3);
    }

    #[test]
    fn coverage_counts_each_set_once() {
        let mut rc = RrCollection::new(5);
        rc.push(&[0, 1], meta(0));
        rc.push(&[1, 2], meta(1));
        rc.push(&[3], meta(3));
        // seeds {0, 1}: sets 0 and 1 covered (set 0 via both nodes, once)
        assert_eq!(rc.coverage_of(&[0, 1]), 2);
        assert_eq!(rc.coverage_of(&[3]), 1);
        assert_eq!(rc.coverage_of(&[4]), 0);
        assert_eq!(rc.coverage_of(&[0, 1, 2, 3]), 3);
    }

    #[test]
    fn range_restricted_queries() {
        let mut rc = RrCollection::new(3);
        rc.push(&[0], meta(0)); // id 0
        rc.push(&[0, 1], meta(0)); // id 1
        rc.push(&[1], meta(1)); // id 2
        rc.push(&[0, 2], meta(0)); // id 3
        assert_eq!(rc.sets_containing_in(0, 1..4).to_vec(), vec![1, 3]);
        let mut scratch = Vec::new();
        assert_eq!(rc.coverage_of_range(&[0], 0..2, &mut scratch), 2);
        assert_eq!(rc.coverage_of_range(&[0], 2..4, &mut scratch), 1);
        assert_eq!(rc.coverage_of_range(&[1], 2..4, &mut scratch), 1);
    }

    #[test]
    fn queries_agree_across_seal_boundaries() {
        let mut rc = RrCollection::new(3);
        rc.push(&[0], meta(0)); // id 0
        rc.push(&[0, 1], meta(0)); // id 1
        let _ = rc.seal(); // ids 0..2 now sealed
        rc.push(&[1], meta(1)); // id 2 (pending)
        rc.push(&[0, 2], meta(0)); // id 3 (pending)
        assert_eq!(rc.sealed_sets(), 2);
        assert_eq!(rc.pending_sets(), 2);
        assert_eq!(rc.sets_containing(0).to_vec(), vec![0, 1, 3]);
        assert_eq!(rc.sets_containing_in(0, 1..4).to_vec(), vec![1, 3]);
        assert_eq!(rc.sets_containing_in(1, 1..3).to_vec(), vec![1, 2]);
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
            seq.extend_sequential(&mut sampler.clone(), 0, 1000);
            let _ = seq.seal();
            let mut par = RrCollection::new(300);
            par.extend_parallel(&sampler, 0, 1000, 8);
            let _ = par.seal_parallel(8);
            assert_eq!(seq.len(), par.len());
            assert_eq!(seq.data, par.data);
            assert_eq!(seq.offsets, par.offsets);
            assert_eq!(seq.index, par.index, "sealed indexes must match bit-for-bit");
            assert_eq!(seq.total_edges_examined, par.total_edges_examined);
        }
    }

    #[test]
    fn memory_accounting_grows() {
        let mut rc = RrCollection::new(4);
        let empty = rc.memory_bytes();
        for i in 0..100 {
            rc.push(&[(i % 4) as u32, ((i + 1) % 4) as u32], meta(0));
        }
        assert!(rc.memory_bytes() > empty);
        let _ = rc.seal();
        assert!(rc.index_memory_bytes() > 0);
    }

    #[test]
    fn sealing_shrinks_the_index() {
        let mut rc = RrCollection::new(4);
        for i in 0..2000 {
            rc.push(&[(i % 4) as u32, ((i + 1) % 4) as u32], meta(0));
        }
        assert_eq!(rc.sets_containing(0).len(), 1000, "unsealed reads scan the arena");
        let _ = rc.seal();
        assert_eq!(rc.pending_sets(), 0);
        // the sealed index sits exactly at the flat-CSR floor: one u32
        // offset per node (plus one) and one u32 id per entry
        assert_eq!(rc.index_memory_bytes(), 4 * (4 + 1) + 4 * rc.total_nodes());
        // all queries still intact
        assert_eq!(rc.sets_containing(0).len(), 1000);
    }

    #[test]
    fn epoch_boundaries_are_append_only_and_tile_the_sealed_prefix() {
        let mut rc = RrCollection::new(4);
        assert!(rc.epoch_boundaries().is_empty());
        rc.push(&[0, 1], meta(0));
        rc.push(&[1, 2], meta(1));
        let _ = rc.seal();
        assert_eq!(rc.epoch_boundaries(), &[2]);
        assert_eq!(rc.epochs().collect::<Vec<_>>(), vec![0..2]);
        // sealing a fully sealed pool is a no-op: no rebuild, no epoch
        let compactions = rc.compactions();
        let _ = rc.seal();
        assert_eq!(rc.compactions(), compactions);
        assert_eq!(rc.epoch_boundaries(), &[2]);
        // growth + seal freezes exactly one new epoch; old bounds move
        // nowhere (the append-only contract per-epoch snapshots rely on)
        rc.push(&[2, 3], meta(2));
        rc.push(&[3], meta(3));
        let _ = rc.seal();
        assert_eq!(rc.epoch_boundaries(), &[2, 4]);
        assert_eq!(rc.epochs().collect::<Vec<_>>(), vec![0..2, 2..4]);
        // pending sets past the last boundary belong to no epoch yet
        rc.push(&[0], meta(0));
        assert_eq!(rc.epoch_boundaries(), &[2, 4]);
        assert_eq!(rc.len(), 5);
    }

    #[test]
    fn an_epoch_is_one_seal() {
        // Appends never index and never record a boundary, however much
        // they add: 3000 pushes plus one bulk extend leave the pool fully
        // unsealed, yet every read is already correct (tail scan).
        let g = sns_graph::gen::erdos_renyi(8, 24, 3).build(WeightModel::WeightedCascade).unwrap();
        let sampler = RrSampler::with_config(
            &g,
            Model::IndependentCascade,
            sns_diffusion::RootDist::Uniform,
            5,
        );
        let mut rc = RrCollection::new(8);
        for i in 0..3000u32 {
            rc.push(&[i % 8, (i + 1) % 8], meta(0));
        }
        rc.extend_parallel(&sampler, 0, 2000, 2);
        assert!(rc.epoch_boundaries().is_empty());
        assert_eq!((rc.compactions(), rc.sealed_sets(), rc.pending_sets()), (0, 0, 5000));
        assert_eq!(rc.index_memory_bytes(), 0, "appends write no index state");
        let rescan = |rc: &RrCollection, v: NodeId, range: Range<u32>| -> Vec<u32> {
            range.filter(|&id| rc.set(id as usize).contains(&v)).collect()
        };
        let check = |rc: &RrCollection| {
            let len = rc.len() as u32;
            for v in 0..8 {
                for range in [0..len, 0..len / 2, 2999..len, 1234..4321, 4000..len + 7] {
                    let got = rc.sets_containing_in(v, range.clone());
                    let expect = rescan(rc, v, range.start..range.end.min(len));
                    assert_eq!(got.len(), expect.len(), "node {v} range {range:?}");
                    assert_eq!(got.to_vec(), expect, "node {v} range {range:?}");
                }
            }
        };
        check(&rc);
        // Each seal records exactly one boundary at the pool end.
        assert_eq!(rc.seal_parallel(2).epoch(), Some(0..5000));
        assert_eq!((rc.epoch_boundaries(), rc.compactions()), (&[5000][..], 1));
        check(&rc);
        rc.extend_sequential(&mut sampler.clone(), 2000, 700);
        for i in 0..300u32 {
            rc.push(&[i % 8], meta(0));
        }
        assert_eq!(rc.epoch_boundaries(), &[5000], "appends record no boundary");
        check(&rc);
        assert_eq!(rc.seal().epoch(), Some(5000..6000));
        assert_eq!((rc.epoch_boundaries(), rc.compactions()), (&[5000, 6000][..], 2));
        assert_eq!(rc.epoch_edge_totals().len(), 2);
        check(&rc);
    }

    #[test]
    fn sealing_a_grown_clone_leaves_the_source_alone() {
        let mut source = RrCollection::new(16);
        for i in 0..3000u32 {
            source.push(&[i % 16, (i * 7 + 3) % 16], meta(0));
        }
        let _ = source.seal();
        let answers: Vec<Vec<u32>> = (0..16).map(|v| source.sets_containing(v).to_vec()).collect();
        let bytes = source.memory_bytes();

        let mut grown = source.clone();
        assert!(grown.index.shares_sealed_tier(&source.index), "a clone shares the sealed CSR");
        for i in 0..500u32 {
            grown.push(&[(i * 5) % 16], meta(0));
        }
        assert!(grown.pending_sets() > 0);
        assert_eq!(grown.seal().epoch(), Some(3000..3500));
        assert!(!grown.index.shares_sealed_tier(&source.index));

        assert_eq!(source.memory_bytes(), bytes);
        assert_eq!((source.len(), source.sealed_sets(), source.pending_sets()), (3000, 3000, 0));
        for v in 0..16 {
            assert_eq!(source.sets_containing(v).to_vec(), answers[v as usize], "node {v}");
            let mut expect = answers[v as usize].clone();
            expect.extend((0..500u32).filter(|i| (i * 5) % 16 == v).map(|i| 3000 + i));
            assert_eq!(grown.sets_containing(v).to_vec(), expect, "node {v}");
        }
    }

    #[test]
    fn inverted_index_is_ascending() {
        let mut rc = RrCollection::new(2);
        for _ in 0..50 {
            rc.push(&[0, 1], meta(0));
        }
        let ids = rc.sets_containing(0).to_vec();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }
}

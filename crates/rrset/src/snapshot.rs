//! Frozen-pool gain snapshots and weighted-universe selection — the
//! pieces that turn the per-call [`CoverageView`] into a query-serving
//! subsystem.
//!
//! # Gain snapshots
//!
//! [`CoverageView::select`] with [`GainInit::Histogram`] recomputes the
//! initial gain histogram (one streaming pass over the slice's members,
//! `O(entries)`) and rebuilds the nonzero heap seed (`O(n)`) on every
//! call — unavoidable for RIS algorithms, whose pool grows between
//! selections, but pure waste for a *frozen* pool answering query after
//! query. [`GainSnapshot::build`] runs both passes **once** and freezes
//! the results; [`GainInit::Frozen`] then starts each query with two
//! memcpys (gain table + heap seed) instead. Selection is bit-identical
//! to the histogram path: the frozen arrays are exactly what the
//! per-call initialization would have produced, and everything
//! downstream is the same kernel.
//!
//! A snapshot is immutable and detached from the pool borrow (it owns
//! plain arrays — including the slice's rebased CSR offsets, so
//! [`GainSnapshot::view`] rebuilds a [`CoverageView`] without a rebase,
//! in `O(chunks the slice touches)`), and a
//! server can hold `Arc<GainSnapshot>`s and fan queries out across
//! threads — `sns-core`'s `SeedQueryEngine` does.
//!
//! # Epoch-incremental maintenance
//!
//! Pool ids are append-only: a frozen slice's contents never change, so
//! growth never *invalidates* a snapshot — it only leaves new ids
//! uncovered. The incremental scheme freezes one snapshot per sealed
//! pool epoch (`RrCollection::epoch_boundaries`) and answers a query
//! spanning several epochs by **merging**: gain histograms sum, the
//! heap seed is rebuilt from the merged histogram, offsets concatenate
//! ([`GainSnapshot::merge`]). The merge is bit-identical to a
//! from-scratch snapshot of the union range, so a pool extension costs
//! one new epoch freeze instead of a wholesale cache rebuild. See `docs/ARCHITECTURE.md` (repository root) for the
//! lifecycle diagram.
//!
//! # Weighted universes
//!
//! The [`Weighted`] objective answers targeted (TVM-style) queries
//! against an *unweighted* (uniform-root) pool: per-query node
//! weights `b(v)` turn into per-set weights `w_j = b(root of set j)`
//! (sets store their root first), and greedy maximizes the covered
//! weight mass `Σ_{j covered} w_j` instead of the covered count. Since
//! roots are uniform, `E[b(root)·1{S covers R}] = I_T(S)/n`, so
//! `n·(covered weight)/|R|` estimates the targeted influence — one
//! frozen pool serves every target group without resampling. (This is a
//! self-normalized reweighting of Lemma 1, not the paper's WRIS sampler:
//! precision concentrates where `b` does, so sparse target groups warrant
//! proportionally larger pools — see `docs/DERIVATIONS.md` §5.) It runs
//! on the same kernel as the count objective, with `f64` gains and the
//! set weight as the cover sweep's decrement. One-off weight vectors pay
//! a per-query gain pass;
//! *recurring* ones (a topic queried again and again) freeze it once in
//! a [`WeightedGainSnapshot`] and start from a memcpy like the
//! unweighted fast path.

use std::ops::Range;

use sns_graph::NodeId;

use crate::coverage::{count_members, kernel, Objective};
use crate::index::CsrOffsets;
use crate::{CoverageResult, CoverageView, GainInit, GreedyScratch, RrCollection, SeedConstraints};

/// The frozen per-node gain state of one pool slice: exactly what
/// [`CoverageView::select`]'s histogram pass computes, sealed once
/// so repeated queries start from a memcpy (see the module docs).
///
/// A snapshot also freezes the slice's rebased forward-CSR offsets, so
/// [`GainSnapshot::view`] reconstructs a [`CoverageView`] in
/// `O(chunks the slice touches)` — a steady-state cache hit does zero
/// `O(range_len)` rebase work — and snapshots of *adjacent* slices (one per sealed pool epoch)
/// can be [`GainSnapshot::merge`]d without touching the pool's sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GainSnapshot {
    range: Range<u32>,
    /// `gains[v]` = number of in-range sets containing node `v`.
    gains: Vec<u32>,
    /// `(gain, v)` for every node with nonzero gain, ascending `v` — the
    /// exact buffer the selection loop heapifies.
    heap_seed: Vec<(u32, NodeId)>,
    /// The slice's rebased forward-CSR offsets, exactly as
    /// [`CoverageView::build`] computes them.
    offsets: CsrOffsets,
}

impl GainSnapshot {
    /// Runs the histogram and heap-seed passes for `view`'s slice and
    /// freezes the result (gains, heap seed, and the view's rebased
    /// offsets).
    pub fn build(view: &CoverageView<'_>) -> Self {
        let n = view.num_nodes();
        let mut gains = vec![0u32; n as usize];
        count_members(view, &mut gains);
        let heap_seed =
            (0..n).filter(|&v| gains[v as usize] > 0).map(|v| (gains[v as usize], v)).collect();
        GainSnapshot { range: view.range(), gains, heap_seed, offsets: view.offsets().clone() }
    }

    /// Merges snapshots of adjacent pool slices into the snapshot of
    /// their union: gain histograms sum element-wise, the heap seed is
    /// rebuilt from the merged histogram, and the offset arrays are
    /// stitched — all without reading the pool. `O(n·parts + range_len)`.
    /// The result is exactly what [`GainSnapshot::build`] over the union
    /// range would produce, so everything downstream stays bit-identical.
    ///
    /// This is how pool growth stays cheap for a serving cache: freeze
    /// one snapshot per sealed epoch, and answer a query spanning many
    /// epochs from their merge — extending the pool then freezes only the
    /// new epoch instead of invalidating every cached range.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, the parts do not tile a contiguous id
    /// range in order, or their node universes disagree.
    pub fn merge(parts: &[&GainSnapshot]) -> Self {
        let first = parts.first().expect("cannot merge zero snapshots");
        let n = first.gains.len();
        let mut pos = first.range.start;
        for part in parts {
            assert_eq!(part.range.start, pos, "snapshots must tile a contiguous id range");
            assert_eq!(part.gains.len(), n, "snapshots span different node universes");
            pos = part.range.end;
        }
        let range = first.range.start..pos;
        let mut gains = vec![0u32; n];
        for part in parts {
            for (g, &p) in gains.iter_mut().zip(&part.gains) {
                *g += p;
            }
        }
        let heap_seed = (0..n as u32)
            .filter(|&v| gains[v as usize] > 0)
            .map(|v| (gains[v as usize], v))
            .collect();
        let offsets = CsrOffsets::concat(&parts.iter().map(|p| &p.offsets).collect::<Vec<_>>());
        GainSnapshot { range, gains, heap_seed, offsets }
    }

    /// Reconstructs a [`CoverageView`] for this snapshot's slice in
    /// `O(chunks it touches)`, lending the frozen offsets instead of
    /// rebasing — pair with
    /// [`GainInit::Frozen`] for the zero-rebase query path.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's range is out of bounds for `rc`. The
    /// caller must pass the pool the snapshot was built from (ranges are
    /// append-only, so growth never invalidates this).
    pub fn view<'a>(&'a self, rc: &'a RrCollection) -> CoverageView<'a> {
        CoverageView::with_frozen_offsets(rc, self.range.clone(), &self.offsets)
    }

    /// The pool id range this snapshot froze.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// The frozen per-node gains (length = the pool's node count).
    pub fn gains(&self) -> &[u32] {
        &self.gains
    }

    /// The frozen nonzero heap seed.
    pub(crate) fn heap_seed(&self) -> &[(u32, NodeId)] {
        &self.heap_seed
    }

    /// Bytes owned by the frozen arrays (counting capacities).
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.gains.capacity() * size_of::<u32>()
            + self.heap_seed.capacity() * size_of::<(u32, NodeId)>()) as u64
            + self.offsets.memory_bytes()
    }
}

/// A nonnegative finite `f64` gain with the total order weighted
/// selection needs for its max-heap. Construction is crate-internal and
/// every constructor site validates finiteness, so `total_cmp` is a
/// plain bit trick, never a NaN judgement call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightOrd(pub(crate) f64);

impl Eq for WeightOrd {}

// Inline: every heap comparison of the float-keyed objectives runs
// through these, in whichever crate instantiates the generic kernel.
impl PartialOrd for WeightOrd {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WeightOrd {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The frozen initial state of a *weighted* selection over one pool
/// slice under one fixed weight vector: the weighted gain table and heap
/// seed that a [`Weighted`] histogram pass recomputes per call
/// (`O(entries)` streaming additions), plus the slice's rebased offsets.
///
/// Weighted gains depend on the query's weight vector, so a weighted
/// snapshot is only reusable while *both* the slice and the weights are
/// fixed — the repeated-topic (TVM) serving case. `sns-core`'s
/// `SeedQueryEngine` keys these by `(range, topic id)` and verifies the
/// weight vector by `Arc` identity. Floating-point sums are performed in
/// the same order as the per-call pass, so selection through a frozen
/// weighted snapshot is bit-identical to the fresh path.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGainSnapshot {
    range: Range<u32>,
    /// `wgains[v]` = Σ of `node_weights[root(j)]` over in-range sets `j`
    /// containing `v`.
    wgains: Vec<f64>,
    /// `(weight, v)` for every node with positive weighted gain,
    /// ascending `v` — the exact buffer the weighted loop heapifies.
    heap_seed: Vec<(WeightOrd, NodeId)>,
    /// The slice's rebased forward-CSR offsets (as [`GainSnapshot`]).
    offsets: CsrOffsets,
}

impl WeightedGainSnapshot {
    /// Runs the weighted gain-init pass for `view`'s slice under
    /// `node_weights` and freezes the result.
    ///
    /// # Panics
    ///
    /// Panics if `node_weights` is not one finite nonnegative weight per
    /// node.
    pub fn build(view: &CoverageView<'_>, node_weights: &[f64]) -> Self {
        let n = view.num_nodes();
        check_weights(node_weights, n);
        let mut wgains = vec![0.0f64; n as usize];
        accumulate_weighted_gains(view, node_weights, &mut wgains);
        let heap_seed = (0..n)
            .filter(|&v| wgains[v as usize] > 0.0)
            .map(|v| (WeightOrd(wgains[v as usize]), v))
            .collect();
        WeightedGainSnapshot {
            range: view.range(),
            wgains,
            heap_seed,
            offsets: view.offsets().clone(),
        }
    }

    /// Reconstructs a [`CoverageView`] for this snapshot's slice from the
    /// frozen offsets, without a rebase (see [`GainSnapshot::view`]).
    pub fn view<'a>(&'a self, rc: &'a RrCollection) -> CoverageView<'a> {
        CoverageView::with_frozen_offsets(rc, self.range.clone(), &self.offsets)
    }

    /// The pool id range this snapshot froze.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Bytes owned by the frozen arrays (counting capacities).
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.wgains.capacity() * size_of::<f64>()
            + self.heap_seed.capacity() * size_of::<(WeightOrd, NodeId)>()) as u64
            + self.offsets.memory_bytes()
    }
}

/// Panics unless `node_weights` is one finite nonnegative weight per node.
fn check_weights(node_weights: &[f64], n: u32) {
    assert_eq!(node_weights.len(), n as usize, "need one weight per node");
    assert!(
        node_weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and nonnegative"
    );
}

/// The weighted gain-init pass shared by the [`Weighted`] histogram and
/// [`WeightedGainSnapshot::build`]: adds each in-range set's root weight
/// to all of its members, in slot order (so frozen and fresh float sums
/// are bit-identical).
fn accumulate_weighted_gains(view: &CoverageView<'_>, node_weights: &[f64], wgains: &mut [f64]) {
    for members in view.sets() {
        // Sets store their root first; an empty set has no root and
        // carries no weight.
        let Some(&root) = members.first() else { continue };
        let w = node_weights[root as usize];
        if w == 0.0 {
            continue;
        }
        for &v in members {
            wgains[v as usize] += w;
        }
    }
}

/// Result of a weighted greedy selection ([`Weighted`]) — and the
/// objective-agnostic form of every selection result, which the other
/// result types convert into.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCoverageResult {
    /// Selected seed nodes, in selection order.
    pub seeds: Vec<NodeId>,
    /// Total weight mass of the covered in-range sets.
    pub covered_weight: f64,
    /// Marginal weight gain of each seed at its selection time.
    pub marginal_gains: Vec<f64>,
}

impl From<CoverageResult> for WeightedCoverageResult {
    /// A count result is a weighted result with unit set weights.
    fn from(r: CoverageResult) -> Self {
        WeightedCoverageResult {
            seeds: r.seeds,
            covered_weight: r.covered as f64,
            marginal_gains: r.marginal_gains.iter().map(|&g| g as f64).collect(),
        }
    }
}

/// The targeted objective: at most `k` seeds (clamped to the node
/// count), maximizing the covered weight mass `Σ_{j covered} w_j` with
/// `w_j = weights[root of set j]` — see the module docs for the
/// estimator it backs. Returns a [`WeightedCoverageResult`].
///
/// # Panics
///
/// [`CoverageView::select`] panics unless `weights` holds one finite
/// nonnegative weight per node.
#[derive(Debug, Clone, Copy)]
pub struct Weighted<'w> {
    /// Seed budget.
    pub k: usize,
    /// Per-node root weights `b(v)`.
    pub weights: &'w [f64],
}

impl Objective for Weighted<'_> {}

impl kernel::Kernel for Weighted<'_> {
    type Gain = f64;
    type Key = WeightOrd;
    type Snapshot = WeightedGainSnapshot;
    type Output = WeightedCoverageResult;

    fn budget(&self, n: u32) -> (f64, f64) {
        check_weights(self.weights, n);
        (self.k.min(n as usize) as f64, 1.0)
    }
    #[inline]
    fn key(&self, gain: f64, _v: NodeId) -> WeightOrd {
        WeightOrd(gain)
    }
    #[inline]
    fn set_gain(&self, members: &[NodeId]) -> f64 {
        // Sets store their root first; an empty set carries no weight.
        members.first().map_or(0.0, |&root| self.weights[root as usize])
    }
    fn histogram(&self, view: &CoverageView<'_>, gains: &mut [f64]) {
        accumulate_weighted_gains(view, self.weights, gains);
    }
    fn frozen<'s>(&self, snapshot: &'s WeightedGainSnapshot) -> kernel::Frozen<'s, f64, WeightOrd> {
        (snapshot.range(), &snapshot.wgains, Some(&snapshot.heap_seed))
    }
    fn buffers(scratch: &mut GreedyScratch) -> kernel::Buffers<'_, f64, WeightOrd> {
        (&mut scratch.wgain, &mut scratch.wheap_buf)
    }
    fn output(self, picked: kernel::Picked<f64>) -> WeightedCoverageResult {
        WeightedCoverageResult {
            seeds: picked.seeds,
            covered_weight: picked.gains.iter().fold(0.0, |s, &g| s + g),
            marginal_gains: picked.gains,
        }
    }
}

impl CoverageView<'_> {
    /// [`Weighted`] selection starting from a frozen
    /// [`WeightedGainSnapshot`] of this view's range — the
    /// repeated-topic fast path. `node_weights` must be the weights the
    /// snapshot was built with (the cover sweep still consults them);
    /// the engine layer enforces this via topic keying.
    pub fn select_weighted_from_snapshot(
        &self,
        snapshot: &WeightedGainSnapshot,
        k: usize,
        node_weights: &[f64],
        constraints: &SeedConstraints<'_>,
        scratch: &mut GreedyScratch,
    ) -> WeightedCoverageResult {
        self.select(
            Weighted { k, weights: node_weights },
            GainInit::Frozen(snapshot),
            constraints,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_pools::{pool, random_pool};
    use crate::{max_coverage_with, Count};

    fn count(
        view: &CoverageView<'_>,
        k: usize,
        constraints: &SeedConstraints<'_>,
        scratch: &mut GreedyScratch,
    ) -> CoverageResult {
        view.select(Count { k }, GainInit::Histogram, constraints, scratch)
    }

    fn weighted(
        view: &CoverageView<'_>,
        k: usize,
        weights: &[f64],
        scratch: &mut GreedyScratch,
    ) -> WeightedCoverageResult {
        view.select(Weighted { k, weights }, GainInit::Histogram, &SeedConstraints::none(), scratch)
    }

    #[test]
    fn snapshot_survives_repeated_queries() {
        let rc = random_pool(3, 20, 100);
        let view = CoverageView::build(&rc, 0..100);
        let snap = GainSnapshot::build(&view);
        let mut scratch = GreedyScratch::new();
        let none = SeedConstraints::none();
        let first = view.select_from_snapshot_constrained(&snap, 5, &none, &mut scratch);
        for _ in 0..5 {
            assert_eq!(view.select_from_snapshot_constrained(&snap, 5, &none, &mut scratch), first);
        }
        assert_eq!(first, max_coverage_with(&rc, 5, 0..100, &mut GreedyScratch::new()));
        assert!(snap.memory_bytes() > 0);
    }

    /// Acceptance property: seeds selected through a materialized
    /// [`GainSnapshot::merge`] of per-epoch snapshots are bit-identical
    /// to direct `max_coverage_with` on the same pool state, across several
    /// epoch layouts (including unaligned sub-ranges).
    #[test]
    fn epoch_merged_selection_is_bit_identical_across_layouts() {
        let mut scratch = GreedyScratch::new();
        for seed in 0..6u64 {
            let rc = random_pool(seed, 30, 160);
            // ≥3 epoch layouts: balanced, doubling-schedule-like, many tiny
            let layouts: [&[u32]; 4] =
                [&[40, 100, 160], &[20, 40, 80, 160], &[10, 20, 30, 60, 100, 160], &[160]];
            for (start, bounds) in layouts.iter().enumerate().map(|(i, b)| ((i as u32) * 7, *b)) {
                let mut parts = Vec::new();
                let mut lo = start;
                for &hi in bounds {
                    if hi <= lo {
                        continue;
                    }
                    parts.push(GainSnapshot::build(&CoverageView::build(&rc, lo..hi)));
                    lo = hi;
                }
                let range = start..lo;
                let refs: Vec<&GainSnapshot> = parts.iter().collect();
                let merged = GainSnapshot::merge(&refs);
                assert_eq!(merged.range(), range);
                // the merge must reproduce the from-scratch snapshot
                // exactly — gains, heap seed, and offsets
                let direct = GainSnapshot::build(&CoverageView::build(&rc, range.clone()));
                assert_eq!(merged, direct, "seed {seed} range {range:?}");
                let view = merged.view(&rc);
                for k in [1usize, 4, 9] {
                    let want = max_coverage_with(&rc, k, range.clone(), &mut GreedyScratch::new());
                    let via_merged = view.select_from_snapshot_constrained(
                        &merged,
                        k,
                        &SeedConstraints::none(),
                        &mut scratch,
                    );
                    assert_eq!(via_merged, want, "materialized merge, seed {seed} k {k}");
                }
            }
        }
    }

    #[test]
    fn frozen_offsets_view_equals_rebuilt_view() {
        let rc = random_pool(11, 25, 120);
        let built = CoverageView::build(&rc, 15..95);
        let snap = GainSnapshot::build(&built);
        let frozen = snap.view(&rc);
        assert_eq!(frozen.range(), built.range());
        assert_eq!(frozen.len(), built.len());
        for slot in 0..built.len() {
            assert_eq!(frozen.members(slot), built.members(slot));
        }
        let mut scratch = GreedyScratch::new();
        let none = SeedConstraints::none();
        assert_eq!(count(&frozen, 6, &none, &mut scratch), count(&built, 6, &none, &mut scratch));
    }

    #[test]
    #[should_panic(expected = "tile a contiguous id range")]
    fn merge_rejects_gapped_parts() {
        let rc = random_pool(2, 10, 60);
        let a = GainSnapshot::build(&CoverageView::build(&rc, 0..20));
        let b = GainSnapshot::build(&CoverageView::build(&rc, 30..60));
        GainSnapshot::merge(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "different pool slice")]
    fn weighted_snapshot_range_mismatch_panics() {
        let rc = random_pool(1, 10, 40);
        let w = vec![1.0f64; 10];
        let snap = WeightedGainSnapshot::build(&CoverageView::build(&rc, 0..20), &w);
        let view = CoverageView::build(&rc, 0..40);
        view.select_weighted_from_snapshot(
            &snap,
            2,
            &w,
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "different pool slice")]
    fn range_mismatch_panics() {
        let rc = random_pool(1, 10, 40);
        let snap = GainSnapshot::build(&CoverageView::build(&rc, 0..20));
        let view = CoverageView::build(&rc, 0..40);
        view.select_from_snapshot_constrained(
            &snap,
            2,
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        );
    }

    #[test]
    fn excluded_seeds_are_never_selected_nor_padded() {
        // Node 0 dominates; excluding it promotes node 1 (sets 0 and 3).
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4, 1]], 5);
        let view = CoverageView::build(&rc, 0..4);
        let mut scratch = GreedyScratch::new();
        let cons = SeedConstraints { forced: &[], excluded: &[0] };
        let r = count(&view, 5, &cons, &mut scratch);
        assert!(!r.seeds.contains(&0), "excluded node selected: {:?}", r.seeds);
        assert_eq!(r.seeds.len(), 4, "padding must skip the excluded node");
        assert_eq!(r.seeds[0], 1, "with 0 excluded, node 1 covers most");
        assert_eq!(r.marginal_gains[0], 2);

        // Same answer through the frozen path.
        let snap = GainSnapshot::build(&view);
        let frozen = view.select_from_snapshot_constrained(&snap, 5, &cons, &mut scratch);
        assert_eq!(frozen, r);
    }

    #[test]
    fn forced_seeds_lead_and_their_coverage_is_accounted() {
        let rc = pool(&[&[0, 1], &[0, 2], &[3], &[3, 1]], 4);
        let view = CoverageView::build(&rc, 0..4);
        let mut scratch = GreedyScratch::new();
        let cons = SeedConstraints { forced: &[1], excluded: &[] };
        let r = count(&view, 2, &cons, &mut scratch);
        // forced first: node 1 covers sets {0, 3} (gain 2); best
        // remainder is node 0 with residual gain 1 (set 1).
        assert_eq!(r.seeds[0], 1);
        assert_eq!(r.marginal_gains[0], 2);
        assert_eq!(r.covered, 3);
        // duplicate forced seeds are selected once
        let dup = SeedConstraints { forced: &[1, 1], excluded: &[] };
        let r2 = count(&view, 2, &dup, &mut scratch);
        assert_eq!(r2.seeds, r.seeds);
        // ...and count once against k: [1, 1] fits k = 1
        let r3 = count(&view, 1, &dup, &mut scratch);
        assert_eq!(r3.seeds, vec![1]);
    }

    #[test]
    fn empty_constraints_equal_plain_select() {
        let rc = random_pool(7, 25, 120);
        let view = CoverageView::build(&rc, 0..120);
        let mut scratch = GreedyScratch::new();
        let plain = max_coverage_with(&rc, 6, 0..120, &mut scratch);
        let snap = GainSnapshot::build(&view);
        let constrained =
            view.select_from_snapshot_constrained(&snap, 6, &SeedConstraints::none(), &mut scratch);
        assert_eq!(plain, constrained);
        assert_eq!(plain, max_coverage_with(&rc, 6, 0..120, &mut GreedyScratch::new()));
    }

    #[test]
    fn uniform_weights_reduce_to_unweighted_selection() {
        let rc = random_pool(42, 30, 200);
        let w = vec![1.0f64; 30];
        let mut scratch = GreedyScratch::new();
        let view = CoverageView::build(&rc, 0..200);
        let weighted = weighted(&view, 5, &w, &mut scratch);
        let plain = count(&view, 5, &SeedConstraints::none(), &mut scratch);
        assert_eq!(weighted, WeightedCoverageResult::from(plain));
    }

    #[test]
    fn zero_weight_roots_contribute_nothing() {
        // Sets rooted at 0 carry weight 0: only the set rooted at 3
        // counts, so its members win.
        let rc = pool(&[&[0, 1], &[0, 1, 2], &[3, 4]], 5);
        let mut w = vec![1.0f64; 5];
        w[0] = 0.0;
        let view = CoverageView::build(&rc, 0..3);
        let r = weighted(&view, 1, &w, &mut GreedyScratch::new());
        assert_eq!(r.seeds, vec![4], "ties on weight 1.0 break to the larger id");
        assert!((r.covered_weight - 1.0).abs() < 1e-12);
    }
}

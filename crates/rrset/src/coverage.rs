//! Sealed CSR-transposed coverage view — the cache-linear data structure
//! greedy Max-Coverage (Algorithm 2) consumes instead of re-walking the
//! pool arena per newly covered set — and the one lazy-heap selection
//! kernel that runs on it.
//!
//! # Why a separate view
//!
//! The selection loop of [`max_coverage_with`] has two hot memory
//! patterns:
//!
//! 1. the **gain initialization** — one inverted-index query per node
//!    (`n` binary searches into the sealed CSR); and
//! 2. the **decremental updates** — for every newly covered set, walk
//!    its members and decrement their marginal gains, which chases `u64`
//!    arena offsets spread over the *whole* pool even when the query
//!    range is a small slice (D-SSA's find half).
//!
//! Once pools reach 10⁶+ sets these dependent loads dominate the round.
//! [`CoverageView::build`] materializes the transpose of the inverted
//! node→set-ids index — a flat forward **set → members** CSR
//! (`set_offsets` + `set_data`), rebased to the queried range — in
//! `O(range_len)`: slot `j` (set id `range.start + j`) owns the
//! contiguous member slice `set_data[set_offsets[j]..set_offsets[j+1]]`.
//! The member data is the arena's own contiguous slice over the range,
//! borrowed zero-copy; only the offsets are rebased, reusing the
//! width-adaptive [`CsrOffsets`] machinery of the inverted index (`u32`
//! until the range holds 2³² entries). Decremental updates thus become
//! contiguous `u32`-offset slice sweeps with half the offset traffic and
//! no pool-wide stride. Gain initialization collapses to a single linear
//! histogram pass over `set_data` — `O(entries)` streaming reads instead
//! of `n` inverted-index queries. Only the `k` per-seed "which sets
//! contain the winner" queries still consult the pool's inverted index
//! (they touch exactly the sets being covered, and `k` is tiny).
//!
//! # Memory cost and rebuild policy
//!
//! A view owns only its rebased offset array — `4 B·(range_len + 1)`
//! while narrow; member data is borrowed from the arena. It is a
//! *selection-time snapshot*: built per [`max_coverage_with`] call and
//! dropped afterwards, so the pool's steady-state footprint is
//! unchanged; it is never incrementally maintained (RIS algorithms grow
//! the pool between selections, which would invalidate it wholesale
//! anyway). Callers that run several selections against one frozen pool
//! slice can build once and call [`CoverageView::select`] repeatedly.
//!
//! # One kernel, three objectives
//!
//! [`CoverageView::select`] is the only selection loop in the crate. An
//! [`Objective`] says what it maximizes and what a seed spends:
//! [`Count`] (covered sets, at most `k` seeds — Algorithm 2 itself),
//! [`crate::Weighted`] (covered root-weight mass, at most `k` seeds) and
//! [`crate::Ratio`] (covered sets per unit cost under a knapsack budget).
//! A [`GainInit`] says where the initial gains come from — one streaming
//! histogram pass, or a memcpy of a frozen snapshot — and
//! [`SeedConstraints`] carry forced and excluded seeds. Forced seeds,
//! exclusions, stale re-keying, the cover sweep and zero-gain padding
//! are written once; each objective is a monomorphized instance, so the
//! count objective keeps its `u32` gains and `(u32, NodeId)` heap.
//!
//! # Determinism
//!
//! The kernel pops a `(key, id)` max-heap, so ties break on the larger
//! node id, and pads with the smallest unselected ids — seeds are
//! bit-identical to the rescan oracle [`crate::max_coverage_naive`]. The
//! covered bitset is *generation-stamped* ([`GreedyScratch`]): marking a
//! slot covered writes the run's generation number, so reusing a scratch
//! across rounds costs zero clearing work.

use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::ops::Range;

use sns_graph::NodeId;

use crate::index::CsrOffsets;
use crate::snapshot::GainSnapshot;
use crate::{CoverageResult, RrCollection};

/// Side conditions a seed-query places on greedy selection: `forced`
/// seeds are selected first (in the given order, consuming budget and
/// coverage), `excluded` nodes are never selected — not even as zero-gain
/// padding. Empty constraints reproduce plain greedy exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeedConstraints<'a> {
    /// Seeds selected unconditionally before the greedy loop, in order.
    /// Duplicates are selected (and charged) once; the *distinct* forced
    /// seeds must fit the objective's budget.
    pub forced: &'a [NodeId],
    /// Nodes the selection must never return.
    pub excluded: &'a [NodeId],
}

impl SeedConstraints<'_> {
    /// No constraints — plain greedy.
    pub fn none() -> Self {
        SeedConstraints::default()
    }
}

/// Where [`CoverageView::select`] gets the initial per-node gains.
#[derive(Debug, Clone, Copy)]
pub enum GainInit<'a, S> {
    /// One streaming pass over the slice's members, `O(entries)`.
    Histogram,
    /// A memcpy of a frozen snapshot of the view's exact range
    /// ([`GainSnapshot`] for [`Count`] and [`crate::Ratio`],
    /// [`crate::WeightedGainSnapshot`] for [`crate::Weighted`]).
    /// Bit-identical to `Histogram`.
    Frozen(&'a S),
}

/// What [`CoverageView::select`] maximizes and what each seed spends:
/// [`Count`], [`crate::Weighted`] or [`crate::Ratio`]. Sealed — the
/// kernel's hooks live in a crate-private supertrait.
pub trait Objective: kernel::Kernel {}

/// The kernel hooks behind [`Objective`]; private so the trait stays
/// sealed.
pub(crate) mod kernel {
    use std::ops::Range;

    use sns_graph::NodeId;

    use crate::{CoverageView, GreedyScratch};

    /// What the kernel accumulated before the objective shapes its
    /// result.
    pub struct Picked<G> {
        /// Seeds in selection order (forced, greedy, padding).
        pub seeds: Vec<NodeId>,
        /// Marginal gain of each seed when selected.
        pub gains: Vec<G>,
        /// Total cost charged against the budget.
        pub spent: f64,
        /// The best single affordable node (`(gain, id)`), when the
        /// objective asks for the `max(greedy, best single)` arm.
        pub best_single: Option<(G, NodeId)>,
    }

    /// Frozen initial state: the snapshot's range, gain table and —
    /// when the heap keys are the gains themselves — its heap seed.
    pub type Frozen<'s, G, K> = (Range<u32>, &'s [G], Option<&'s [(K, NodeId)]>);

    /// The scratch buffers backing the gain table and the heap.
    pub type Buffers<'s, G, K> = (&'s mut Vec<G>, &'s mut Vec<(K, NodeId)>);

    pub trait Kernel: Sized {
        /// Per-node marginal gain: `u32` set counts or `f64` mass.
        type Gain: Copy + Default + PartialOrd + std::ops::SubAssign;
        /// Heap priority of a node.
        type Key: Copy + Ord;
        /// The frozen gain state [`crate::GainInit::Frozen`] accepts.
        type Snapshot;
        /// What the selection returns.
        type Output;
        /// Whether to compute the best-single-affordable-node arm.
        const BEST_SINGLE: bool = false;

        /// Validates the objective for an `n`-node pool and returns
        /// `(budget, cheapest cost)`.
        fn budget(&self, n: u32) -> (f64, f64);
        /// The cost of selecting `v` (unit unless costs are given).
        fn cost(&self, _v: NodeId) -> f64 {
            1.0
        }
        /// Heap priority of `v` at marginal gain `gain`.
        fn key(&self, gain: Self::Gain, v: NodeId) -> Self::Key;
        /// Gain a set with these members (root first) contributes.
        fn set_gain(&self, members: &[NodeId]) -> Self::Gain;
        /// Adds every in-range set's gain to its members (`gains` is
        /// zeroed and one entry per node).
        fn histogram(&self, view: &CoverageView<'_>, gains: &mut [Self::Gain]);
        /// The frozen state of `snapshot`.
        fn frozen<'s>(&self, snapshot: &'s Self::Snapshot) -> Frozen<'s, Self::Gain, Self::Key>;
        /// The scratch buffers backing the gain table and the heap.
        fn buffers(scratch: &mut GreedyScratch) -> Buffers<'_, Self::Gain, Self::Key>;
        /// Shapes the kernel's picks into the objective's result.
        fn output(self, picked: Picked<Self::Gain>) -> Self::Output;
    }
}

/// Algorithm 2's objective: at most `k` seeds (clamped to the node
/// count), maximizing the number of covered sets. Returns a
/// [`CoverageResult`].
#[derive(Debug, Clone, Copy)]
pub struct Count {
    /// Seed budget.
    pub k: usize,
}

/// Adds one to the gain of every member of the view's slice — the count
/// histogram shared by [`Count`], [`crate::Ratio`] and
/// [`GainSnapshot::build`].
#[inline]
pub(crate) fn count_members(view: &CoverageView<'_>, gains: &mut [u32]) {
    for &v in view.set_data {
        gains[v as usize] += 1;
    }
}

impl Objective for Count {}

impl kernel::Kernel for Count {
    type Gain = u32;
    type Key = u32;
    type Snapshot = GainSnapshot;
    type Output = CoverageResult;

    fn budget(&self, n: u32) -> (f64, f64) {
        (self.k.min(n as usize) as f64, 1.0)
    }
    #[inline]
    fn key(&self, gain: u32, _v: NodeId) -> u32 {
        gain
    }
    #[inline]
    fn set_gain(&self, _members: &[NodeId]) -> u32 {
        1
    }
    fn histogram(&self, view: &CoverageView<'_>, gains: &mut [u32]) {
        count_members(view, gains);
    }
    fn frozen<'s>(&self, snapshot: &'s GainSnapshot) -> kernel::Frozen<'s, u32, u32> {
        (snapshot.range(), snapshot.gains(), Some(snapshot.heap_seed()))
    }
    fn buffers(scratch: &mut GreedyScratch) -> kernel::Buffers<'_, u32, u32> {
        (&mut scratch.gain, &mut scratch.heap_buf)
    }
    fn output(self, picked: kernel::Picked<u32>) -> CoverageResult {
        let marginal_gains: Vec<u64> = picked.gains.into_iter().map(u64::from).collect();
        CoverageResult { seeds: picked.seeds, covered: marginal_gains.iter().sum(), marginal_gains }
    }
}

/// Range-rebased forward (`set → members`) CSR snapshot of a pool slice
/// (see the module docs). Borrows the pool: the member data is the
/// arena's own contiguous slice (zero-copy), and the per-seed inverted
/// queries of [`CoverageView::select`] go through the pool's index.
#[derive(Debug, Clone)]
pub struct CoverageView<'a> {
    rc: &'a RrCollection,
    range: Range<u32>,
    /// Slot `j` spans `set_data[set_offsets[j]..set_offsets[j + 1]]`.
    /// Owned when built by the per-call rebase ([`CoverageView::build`]);
    /// borrowed when a [`GainSnapshot`] lends its frozen copy
    /// ([`GainSnapshot::view`]), which makes steady-state snapshot
    /// queries skip the `O(range_len)` rebase entirely.
    set_offsets: Cow<'a, CsrOffsets>,
    /// Concatenated members of the in-range sets — the arena slice
    /// spanning the range, borrowed, since it is already contiguous.
    set_data: &'a [NodeId],
}

impl<'a> CoverageView<'a> {
    /// Materializes the view for the pool slice `range` in
    /// `O(entries in range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range.start > range.end` or `range.end > rc.len()`.
    pub fn build(rc: &'a RrCollection, range: Range<u32>) -> Self {
        let (set_data, base) = Self::arena_slice(rc, &range);
        let offsets = &rc.arena().1[range.start as usize..=range.end as usize];
        let set_offsets = CsrOffsets::rebased(offsets, base);
        CoverageView { rc, range, set_offsets: Cow::Owned(set_offsets), set_data }
    }

    /// The arena's member data spanning `range`, and its base offset.
    fn arena_slice(rc: &'a RrCollection, range: &Range<u32>) -> (&'a [NodeId], u64) {
        assert!(
            range.start <= range.end && range.end as usize <= rc.len(),
            "coverage view range {range:?} out of bounds for pool of {} sets",
            rc.len()
        );
        let (data, offsets) = rc.arena();
        let base = offsets[range.start as usize];
        (&data[base as usize..offsets[range.end as usize] as usize], base)
    }

    /// [`CoverageView::build`] with the rebased offsets supplied by a
    /// frozen snapshot instead of recomputed — `O(1)`, the steady-state
    /// fast path of `sns-core`'s query engine. Only reachable through
    /// [`GainSnapshot::view`] (and its weighted twin), whose caller must
    /// pass the pool the snapshot was built from; the total-entry-count
    /// cross-check below catches a wrong-pool mix-up (it cannot prove
    /// the pools identical, but two pools rarely agree on the entry
    /// count of a slice by accident).
    pub(crate) fn with_frozen_offsets(
        rc: &'a RrCollection,
        range: Range<u32>,
        set_offsets: &'a CsrOffsets,
    ) -> Self {
        let (set_data, _) = Self::arena_slice(rc, &range);
        if range.start < range.end {
            let last = (range.end - range.start - 1) as usize;
            assert_eq!(
                set_offsets.span(last).end,
                set_data.len(),
                "frozen offsets disagree with the pool arena over {range:?} — \
                 snapshot applied to a different pool?"
            );
        }
        CoverageView { rc, range, set_offsets: Cow::Borrowed(set_offsets), set_data }
    }

    /// Number of sets in the view's range.
    pub fn len(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// Whether the view's range is empty.
    pub fn is_empty(&self) -> bool {
        self.range.start == self.range.end
    }

    /// The pool id range this view snapshots.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Members of the set at `slot` (pool id `range.start + slot`).
    /// Inline: the kernel's cover sweep calls it per covered set, and the
    /// kernel is generic, so it is instantiated in downstream crates.
    #[inline]
    pub fn members(&self, slot: usize) -> &[NodeId] {
        &self.set_data[self.set_offsets.span(slot)]
    }

    /// Exact byte footprint the view *owns* — the rebased offset array.
    /// Member data is borrowed from the pool arena (zero-copy) and so
    /// costs nothing beyond the pool's own accounting
    /// ([`RrCollection::memory_bytes`]).
    pub fn memory_bytes(&self) -> u64 {
        self.set_offsets.memory_bytes()
    }

    /// Lazy-heap greedy Max-Coverage over this view — the selection
    /// kernel (see the module docs).
    ///
    /// Forced seeds are taken first, in order, charging the budget
    /// (their coverage is removed from every later gain); excluded nodes
    /// are skipped by the greedy loop, the padding and the
    /// best-single arm. The loop pops the `(key, id)` max-heap until no
    /// affordable node has positive gain, re-keying stale entries on pop
    /// (gains only decrease, so keys only decrease and the heap stays
    /// sound) and retiring nodes that no longer fit the remaining
    /// budget. Leftover budget is spent on zero-gain padding seeds in
    /// ascending id order. `scratch` supplies the gain table, heap
    /// storage and generation-stamped marks; reusing one across rounds
    /// skips all per-round clearing and reallocation.
    ///
    /// # Panics
    ///
    /// Panics if the objective is malformed (see [`crate::Weighted`] and
    /// [`crate::Ratio`]), if a frozen snapshot covers a different range,
    /// or if the distinct forced seeds overrun the budget.
    pub fn select<O: Objective>(
        &self,
        objective: O,
        init: GainInit<'_, O::Snapshot>,
        constraints: &SeedConstraints<'_>,
        scratch: &mut GreedyScratch,
    ) -> O::Output {
        let n = self.num_nodes();
        let (budget, min_cost) = objective.budget(n);
        let generation = scratch.begin_run(n as usize, self.len());
        let zero = O::Gain::default();

        let (gain_buf, heap_buf) = O::buffers(scratch);
        let mut gain = std::mem::take(gain_buf);
        let mut heap_buf = std::mem::take(heap_buf);
        gain.clear();
        heap_buf.clear();
        let frozen_seed = match init {
            GainInit::Frozen(snapshot) => {
                let (range, gains, seed) = objective.frozen(snapshot);
                assert_eq!(range, self.range, "gain snapshot was built for a different pool slice");
                gain.extend_from_slice(gains);
                seed
            }
            GainInit::Histogram => {
                gain.resize(n as usize, zero);
                objective.histogram(self, &mut gain);
                None
            }
        };
        match frozen_seed {
            Some(seed) => heap_buf.extend_from_slice(seed),
            None => heap_buf.extend(
                (0..n)
                    .filter(|&v| gain[v as usize] > zero)
                    .map(|v| (objective.key(gain[v as usize], v), v)),
            ),
        }
        let mut heap = BinaryHeap::from(heap_buf);

        let selected = &mut scratch.selected_stamp;
        let covered = &mut scratch.covered_stamp;
        for &v in constraints.excluded {
            selected[v as usize] = generation;
        }
        // The other arm of Ratio's max(greedy, best single) guarantee:
        // the highest-gain node affordable within the full budget, read
        // off the initial gains. Forced seeds change what the query
        // means (the fallback would drop them), so it needs none.
        let mut best_single: Option<(O::Gain, NodeId)> = None;
        if O::BEST_SINGLE && constraints.forced.is_empty() {
            for v in 0..n {
                let g = gain[v as usize];
                if g > zero
                    && selected[v as usize] != generation
                    && objective.cost(v) <= budget
                    && best_single.is_none_or(|b| (g, v) > b)
                {
                    best_single = Some((g, v));
                }
            }
        }

        let mut seeds = Vec::new();
        let mut gains = Vec::new();
        let mut remaining = budget;
        let mut spent = 0.0f64;
        for &v in constraints.forced {
            if selected[v as usize] == generation {
                continue; // duplicate forced seed: selected and charged once
            }
            let c = objective.cost(v);
            assert!(c <= remaining, "forced seeds overrun the budget {budget}");
            selected[v as usize] = generation;
            remaining -= c;
            spent += c;
            let g = gain[v as usize];
            seeds.push(v);
            gains.push(g);
            if g > zero {
                self.cover(&objective, v, generation, covered, &mut gain);
            }
        }

        while remaining >= min_cost {
            let Some((key, v)) = heap.pop() else { break };
            if selected[v as usize] == generation {
                continue;
            }
            let g = gain[v as usize];
            let current = objective.key(g, v);
            if key > current {
                // Stale entry: re-key with the exact gain.
                if g > zero {
                    heap.push((current, v));
                }
                continue;
            }
            if g <= zero {
                break; // nothing left to cover
            }
            // Selected, or unaffordable now and — since the budget only
            // shrinks — retired for the rest of the run.
            selected[v as usize] = generation;
            let c = objective.cost(v);
            if c > remaining {
                continue;
            }
            remaining -= c;
            spent += c;
            seeds.push(v);
            gains.push(g);
            self.cover(&objective, v, generation, covered, &mut gain);
        }

        // The paper's algorithms want exactly k seeds even when extra
        // seeds add no coverage (I(S) still counts the seeds themselves):
        // spend what is left on unselected nodes, ascending ids, gain 0.
        let mut next = 0u32;
        while next < n && remaining >= min_cost {
            if selected[next as usize] != generation {
                let c = objective.cost(next);
                if c <= remaining {
                    selected[next as usize] = generation;
                    remaining -= c;
                    spent += c;
                    seeds.push(next);
                    gains.push(zero);
                }
            }
            next += 1;
        }

        let (gain_buf, heap_buf) = O::buffers(scratch);
        *gain_buf = gain;
        *heap_buf = heap.into_vec();
        objective.output(kernel::Picked { seeds, gains, spent, best_single })
    }

    /// [`Count`] selection starting from a frozen [`GainSnapshot`] of
    /// this view's range — the entry point of `sns-core`'s seed-query
    /// engine.
    pub fn select_from_snapshot_constrained(
        &self,
        snapshot: &GainSnapshot,
        k: usize,
        constraints: &SeedConstraints<'_>,
        scratch: &mut GreedyScratch,
    ) -> CoverageResult {
        self.select(Count { k }, GainInit::Frozen(snapshot), constraints, scratch)
    }

    /// The cover sweep: walks the sets of `v` within the view's range,
    /// marking each still-uncovered one covered and subtracting its gain
    /// from its members' marginal gains.
    #[inline]
    fn cover<O: Objective>(
        &self,
        objective: &O,
        v: NodeId,
        generation: u32,
        covered: &mut [u32],
        gain: &mut [O::Gain],
    ) {
        for ids in self.rc.sets_containing_in(v, self.range.clone()).slices() {
            for &id in ids {
                let slot = (id - self.range.start) as usize;
                if covered[slot] == generation {
                    continue;
                }
                covered[slot] = generation;
                let members = self.members(slot);
                let w = objective.set_gain(members);
                if w > O::Gain::default() {
                    for &u in members {
                        gain[u as usize] -= w;
                    }
                }
            }
        }
    }

    /// The rebased per-slot offsets — what [`GainSnapshot::build`]
    /// freezes so later views can skip the rebase.
    pub(crate) fn offsets(&self) -> &CsrOffsets {
        &self.set_offsets
    }

    /// Node-universe size of the underlying pool.
    pub fn num_nodes(&self) -> u32 {
        self.rc.num_nodes()
    }
}

/// Reusable working state for [`CoverageView::select`]: per-node gains,
/// heap storage, and generation-stamped covered/selected marks.
///
/// The stamps make reuse O(1): a slot counts as covered only when its
/// stamp equals the *current* run's generation, so starting a new run is
/// a counter bump, not an `O(range + n)` clear. One scratch can serve
/// pools and ranges of any size (buffers grow on demand and are kept at
/// high-water capacity) — SSA/D-SSA/IMM/TIM hold one per run and pass it
/// to every selection round.
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    /// Exact current marginal gain per node (valid during a run) for the
    /// count and ratio objectives. `u32` deliberately: a gain is bounded
    /// by the set-id space, and the decrement sweep's random accesses
    /// profit from the halved table.
    pub(crate) gain: Vec<u32>,
    /// Per-slot covered mark: covered iff `== generation`.
    covered_stamp: Vec<u32>,
    /// Per-node selected mark: selected iff `== generation`.
    selected_stamp: Vec<u32>,
    /// Recycled backing storage of the count objective's max-heap.
    heap_buf: Vec<(u32, NodeId)>,
    /// Weighted-objective gain table (`Σ` of covered set weights per node).
    pub(crate) wgain: Vec<f64>,
    /// Recycled backing storage of the float-keyed (weighted and ratio)
    /// max-heap.
    pub(crate) wheap_buf: Vec<(crate::snapshot::WeightOrd, NodeId)>,
    /// Current run's stamp; incremented by [`GreedyScratch::begin_run`].
    generation: u32,
}

impl GreedyScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        GreedyScratch::default()
    }

    /// Starts a new run: bumps the generation and grows the stamp buffers
    /// to cover `n` nodes and `len` slots. Fresh (zeroed) stamp entries
    /// can never equal a live generation because generations start at 1.
    fn begin_run(&mut self, n: usize, len: usize) -> u32 {
        if self.generation == u32::MAX {
            // Wrapped after 2³² runs: zero the stamps so stale marks from
            // generation u32::MAX cannot alias generation numbers that
            // are about to be handed out again.
            self.covered_stamp.iter_mut().for_each(|s| *s = 0);
            self.selected_stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 0;
        }
        self.generation += 1;
        if self.covered_stamp.len() < len {
            self.covered_stamp.resize(len, 0);
        }
        if self.selected_stamp.len() < n {
            self.selected_stamp.resize(n, 0);
        }
        self.generation
    }
}

/// Greedy Max-Coverage (Algorithm 2) over the pool slice `range` with
/// caller-owned working state: builds a [`CoverageView`] of the slice and
/// runs the [`Count`] objective on it. The selection scratch persists in
/// `scratch`, so algorithms that select round after round (SSA, D-SSA,
/// IMM, TIM) recycle its allocations; seeds, gains and coverage do not
/// depend on what the scratch held before.
pub fn max_coverage_with(
    rc: &RrCollection,
    k: usize,
    range: Range<u32>,
    scratch: &mut GreedyScratch,
) -> CoverageResult {
    CoverageView::build(rc, range).select(
        Count { k },
        GainInit::Histogram,
        &SeedConstraints::none(),
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_pools::pool;
    use crate::{max_coverage_naive, WeightedCoverageResult};

    fn naive(rc: &RrCollection, k: usize) -> WeightedCoverageResult {
        max_coverage_naive(rc, k, rc.id_range(), None)
    }

    #[test]
    fn view_exposes_contiguous_member_slices() {
        let rc = pool(&[&[0, 1], &[1, 2], &[2], &[0, 3]], 4);
        let view = CoverageView::build(&rc, 0..4);
        assert_eq!(view.len(), 4);
        for slot in 0..4 {
            assert_eq!(view.members(slot), rc.set(slot));
        }
        assert!(view.memory_bytes() > 0);
    }

    #[test]
    fn view_rebases_nonzero_range_starts() {
        let rc = pool(&[&[0, 1], &[1, 2], &[2], &[0, 3]], 4);
        let view = CoverageView::build(&rc, 1..3);
        assert_eq!(view.len(), 2);
        assert_eq!(view.range(), 1..3);
        // slot 0 is pool id 1, slot 1 is pool id 2
        assert_eq!(view.members(0), &[1, 2]);
        assert_eq!(view.members(1), &[2]);
    }

    #[test]
    fn empty_range_view_selects_only_padding() {
        let rc = pool(&[&[0, 1], &[1]], 3);
        for start in 0..=2u32 {
            let r = max_coverage_with(&rc, 2, start..start, &mut GreedyScratch::new());
            assert_eq!(r.covered, 0);
            assert_eq!(r.seeds.len(), 2);
            assert_eq!(r.marginal_gains, vec![0, 0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_range_panics() {
        let rc = pool(&[&[0]], 2);
        CoverageView::build(&rc, 0..2);
    }

    #[test]
    fn select_matches_naive_oracle() {
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4], &[4, 1]], 5);
        let mut scratch = GreedyScratch::new();
        for k in 1..=5 {
            let got = max_coverage_with(&rc, k, 0..5, &mut scratch);
            assert_eq!(WeightedCoverageResult::from(got), naive(&rc, k), "k={k}");
        }
    }

    #[test]
    fn view_spans_two_epochs() {
        // The per-seed queries go through the index; the sweep goes
        // through the arena copy — both must agree across an epoch
        // boundary.
        let mut rc = pool(&[&[0, 1], &[0, 2]], 4);
        assert_eq!(rc.append_epoch(&[&[0, 3], &[3]], 0), Some(2..4));
        assert_eq!(rc.epoch_boundaries(), &[2, 4]);
        let r = max_coverage_with(&rc, 2, 0..4, &mut GreedyScratch::new());
        assert_eq!(WeightedCoverageResult::from(r), naive(&rc, 2));
    }

    #[test]
    fn scratch_reuse_across_pools_and_ranges_is_clean() {
        // A big first run must leave no residue that corrupts later runs
        // on smaller pools (stale covered marks, oversized gain tables).
        let mut scratch = GreedyScratch::new();
        let big = pool(&[&[0, 1, 2], &[3, 4, 5], &[6, 7], &[0, 7]], 8);
        let first = max_coverage_with(&big, 3, 0..4, &mut scratch);
        assert_eq!(first.covered, 4);

        let small = pool(&[&[0], &[1], &[1, 2]], 3);
        for _ in 0..3 {
            let r = max_coverage_with(&small, 2, 0..3, &mut scratch);
            assert_eq!(r, max_coverage_with(&small, 2, 0..3, &mut GreedyScratch::new()));
        }
        // set {1, 2}: gains tie at 1, the (gain, id) max-heap prefers id 2
        let sliced = max_coverage_with(&small, 1, 2..3, &mut scratch);
        assert_eq!(sliced.seeds, vec![2]);
        assert_eq!(sliced.covered, 1);
    }

    #[test]
    fn generation_wrap_resets_stamps() {
        let rc = pool(&[&[0, 1], &[1]], 3);
        let mut scratch = GreedyScratch::new();
        let before = max_coverage_with(&rc, 2, 0..2, &mut scratch);
        scratch.generation = u32::MAX;
        // Runs right at and after the wrap must still be correct.
        for _ in 0..3 {
            let r = max_coverage_with(&rc, 2, 0..2, &mut scratch);
            assert_eq!(r, before);
        }
        assert!(scratch.generation >= 2 && scratch.generation < 10);
    }
}

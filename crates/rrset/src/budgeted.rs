//! Budgeted (cost-aware) greedy Max-Coverage — the CTVM/BCT workload
//! class over a frozen pool.
//!
//! The paper's Algorithm 2 fixes a *cardinality* `k`; the
//! production-shaped variants (TipTop, arXiv:1701.08462; cost-aware
//! viral marketing, arXiv:1910.04134) attach a cost `c(v) > 0` to every
//! node and replace `|S| ≤ k` with a knapsack constraint
//! `Σ_{v∈S} c(v) ≤ B`. This module adds that objective, [`Ratio`], to
//! the selection kernel [`CoverageView::select`] without touching the
//! pool or the snapshots:
//!
//! * **Ratio greedy.** Nodes are picked by cost-effectiveness — marginal
//!   gain divided by cost — under the kernel's lazy max-heap discipline
//!   (gains only decrease and costs are fixed, so ratios only decrease
//!   and stale heap entries stay safe). A node whose cost
//!   exceeds the *remaining* budget is retired permanently: budgets only
//!   shrink, so it can never become affordable again.
//! * **The `max(greedy, best single)` guarantee.** Ratio greedy alone
//!   has an unbounded gap (a cheap low-gain node can lock out one huge
//!   affordable node); returning the better of the greedy set and the
//!   best single affordable node restores the classical
//!   `1 − 1/√e ≈ 0.3935` factor for budgeted maximum coverage (see
//!   `docs/DERIVATIONS.md` §6 and arXiv:1512.04180).
//! * **Determinism.** Ties break on the larger node id exactly like the
//!   unweighted heap, selection never consults wall clocks or hash
//!   order, and with [`NodeCosts::Uniform`] and `B = k` the pop sequence
//!   is order-isomorphic to the plain `(gain, id)` heap — seeds, covered
//!   counts and marginal gains degenerate *bit-identically* to the
//!   [`crate::Count`] objective (a `u32` gain converts to `f64` exactly,
//!   and division by 1 preserves the order and the padding walk).
//!
//! Costs are per-query data like the weighted path's node weights: a
//! frozen [`GainSnapshot`] is cost-agnostic, so one snapshot serves
//! every cost vector and budget — the budgeted fast path starts from the
//! same memcpy of gains as the plain one (the heap seed is re-keyed by
//! ratio).

use std::sync::Arc;

use sns_graph::NodeId;

use crate::coverage::{count_members, kernel, Objective};
use crate::snapshot::WeightOrd;
use crate::{
    CoverageResult, CoverageView, GainInit, GainSnapshot, GreedyScratch, SeedConstraints,
    WeightedCoverageResult,
};

/// Per-node selection costs for a budgeted query.
///
/// `Uniform` charges every node `1.0`, so a budget `B = k` degenerates
/// to the cardinality constraint. `PerNode` shares an `Arc` so cloning a
/// query for another thread copies a pointer.
#[derive(Debug, Clone, Default)]
pub enum NodeCosts {
    /// Every node costs `1.0` — budget = seed-count budget.
    #[default]
    Uniform,
    /// `costs[v]` is the cost of selecting node `v`; must hold one
    /// finite, strictly positive entry per node of the pool's universe.
    PerNode(Arc<[f64]>),
}

impl NodeCosts {
    /// Wraps a per-node cost vector.
    pub fn per_node(costs: Arc<[f64]>) -> Self {
        NodeCosts::PerNode(costs)
    }

    /// The cost of selecting node `v`.
    #[inline]
    pub fn cost(&self, v: NodeId) -> f64 {
        match self {
            NodeCosts::Uniform => 1.0,
            NodeCosts::PerNode(c) => c[v as usize],
        }
    }

    /// Validates the vector against a pool of `n` nodes and returns the
    /// cheapest cost (the selection loop's stopping threshold).
    ///
    /// # Panics
    ///
    /// Panics if a per-node vector is not one finite, strictly positive
    /// cost per node.
    fn validated_min(&self, n: u32) -> f64 {
        match self {
            NodeCosts::Uniform => 1.0,
            NodeCosts::PerNode(c) => {
                assert_eq!(c.len(), n as usize, "need one cost per node");
                let mut min = f64::INFINITY;
                for &x in c.iter() {
                    assert!(x.is_finite() && x > 0.0, "node costs must be finite and positive");
                    min = min.min(x);
                }
                min
            }
        }
    }
}

/// Result of a budgeted greedy selection ([`Ratio`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedCoverageResult {
    /// Selected seed nodes, in selection order.
    pub seeds: Vec<NodeId>,
    /// Number of distinct in-range sets the seeds cover.
    pub covered: u64,
    /// Marginal coverage of each seed at its selection time (`0` for
    /// budget-filling padding seeds).
    pub marginal_gains: Vec<u64>,
    /// Total cost charged against the budget.
    pub spent: f64,
    /// Whether the best-single-affordable-node arm of the
    /// `max(greedy, best single)` guarantee beat the ratio-greedy set
    /// (in which case `seeds` holds exactly that one node).
    pub single_fallback: bool,
}

impl From<BudgetedCoverageResult> for WeightedCoverageResult {
    /// The covered count and gains as unit-weight masses; `spent` and
    /// `single_fallback` are dropped.
    fn from(r: BudgetedCoverageResult) -> Self {
        let BudgetedCoverageResult { seeds, covered, marginal_gains, .. } = r;
        CoverageResult { seeds, covered, marginal_gains }.into()
    }
}

/// The budgeted objective: picks seeds by cost-effectiveness
/// (`gain / cost`) until no affordable node remains, then returns the
/// better of that set and the best single affordable node — the
/// standard `1 − 1/√e` approximation for coverage under a knapsack
/// constraint (see the module docs). Returns a
/// [`BudgetedCoverageResult`].
///
/// Forced seeds charge the budget; leftover budget is spent on
/// zero-gain padding seeds (ascending ids) that fit, so with
/// [`NodeCosts::Uniform`] and `budget = k` the result is bit-identical
/// to the [`crate::Count`] objective with the same `k`.
///
/// # Panics
///
/// [`CoverageView::select`] panics if `budget` is not finite and
/// nonnegative or `costs` is malformed (see [`NodeCosts`]).
#[derive(Debug, Clone, Copy)]
pub struct Ratio<'c> {
    /// Cost budget `B`.
    pub budget: f64,
    /// Per-node selection costs.
    pub costs: &'c NodeCosts,
}

impl Objective for Ratio<'_> {}

impl kernel::Kernel for Ratio<'_> {
    type Gain = u32;
    type Key = WeightOrd;
    type Snapshot = GainSnapshot;
    type Output = BudgetedCoverageResult;
    const BEST_SINGLE: bool = true;

    fn budget(&self, n: u32) -> (f64, f64) {
        let budget = self.budget;
        assert!(budget.is_finite() && budget >= 0.0, "budget must be finite and nonnegative");
        (budget, self.costs.validated_min(n))
    }
    #[inline]
    fn cost(&self, v: NodeId) -> f64 {
        self.costs.cost(v)
    }
    /// `u32 → f64` is exact and the tie-break is the node id, so with
    /// uniform costs this key is order-isomorphic to the count key.
    #[inline]
    fn key(&self, gain: u32, v: NodeId) -> WeightOrd {
        WeightOrd(f64::from(gain) / self.costs.cost(v))
    }
    #[inline]
    fn set_gain(&self, _members: &[NodeId]) -> u32 {
        1
    }
    fn histogram(&self, view: &CoverageView<'_>, gains: &mut [u32]) {
        count_members(view, gains);
    }
    fn frozen<'s>(&self, snapshot: &'s GainSnapshot) -> kernel::Frozen<'s, u32, WeightOrd> {
        // The frozen heap seed is keyed by gain, not ratio: re-key it.
        (snapshot.range(), snapshot.gains(), None)
    }
    fn buffers(scratch: &mut GreedyScratch) -> kernel::Buffers<'_, u32, WeightOrd> {
        (&mut scratch.gain, &mut scratch.wheap_buf)
    }
    fn output(self, picked: kernel::Picked<u32>) -> BudgetedCoverageResult {
        let covered: u64 = picked.gains.iter().map(|&g| u64::from(g)).sum();
        if let Some((bg, bv)) = picked.best_single {
            if u64::from(bg) > covered {
                // The single affordable node beats the whole ratio-greedy
                // set — the classical bad case for plain ratio greedy.
                return BudgetedCoverageResult {
                    seeds: vec![bv],
                    covered: u64::from(bg),
                    marginal_gains: vec![u64::from(bg)],
                    spent: self.costs.cost(bv),
                    single_fallback: true,
                };
            }
        }
        BudgetedCoverageResult {
            seeds: picked.seeds,
            covered,
            marginal_gains: picked.gains.into_iter().map(u64::from).collect(),
            spent: picked.spent,
            single_fallback: false,
        }
    }
}

impl CoverageView<'_> {
    /// [`Ratio`] selection starting from a frozen [`GainSnapshot`] of
    /// this view's range. Snapshots are cost-agnostic, so one snapshot
    /// serves every `(budget, costs)` pair.
    pub fn select_budgeted_from_snapshot(
        &self,
        snapshot: &GainSnapshot,
        budget: f64,
        costs: &NodeCosts,
        constraints: &SeedConstraints<'_>,
        scratch: &mut GreedyScratch,
    ) -> BudgetedCoverageResult {
        self.select(Ratio { budget, costs }, GainInit::Frozen(snapshot), constraints, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_pools::pool;

    fn ratio(
        view: &CoverageView<'_>,
        budget: f64,
        costs: &NodeCosts,
        constraints: &SeedConstraints<'_>,
        scratch: &mut GreedyScratch,
    ) -> BudgetedCoverageResult {
        view.select(Ratio { budget, costs }, GainInit::Histogram, constraints, scratch)
    }

    #[test]
    fn single_fallback_beats_ratio_greedy_lockout() {
        // Node 0 covers 4 sets but costs the whole budget; node 5 covers
        // one set at cost 0.5 with a better ratio. Plain ratio greedy
        // takes node 5, leaving node 0 unaffordable (and everything else
        // is overpriced) — the fallback must return node 0 alone.
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[0, 4], &[5]], 6);
        let costs: Vec<f64> = vec![4.0, 5.0, 5.0, 5.0, 5.0, 0.5];
        let view = CoverageView::build(&rc, 0..5);
        let r = ratio(
            &view,
            4.0,
            &NodeCosts::per_node(costs.into()),
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        );
        assert!(r.single_fallback);
        assert_eq!(r.seeds, vec![0]);
        assert_eq!(r.covered, 4);
        assert_eq!(r.marginal_gains, vec![4]);
        assert!((r.spent - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unaffordable_nodes_are_skipped_not_fatal() {
        // Node 0 has the best ratio but costs more than the budget; the
        // greedy loop must retire it and select affordable nodes.
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[1, 4], &[2]], 5);
        let costs: Vec<f64> = vec![10.0, 1.0, 1.0, 1.0, 1.0];
        let view = CoverageView::build(&rc, 0..5);
        let r = ratio(
            &view,
            2.0,
            &NodeCosts::per_node(costs.into()),
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        );
        assert!(!r.seeds.contains(&0), "unaffordable node selected: {:?}", r.seeds);
        assert!(r.covered >= 3, "affordable pair should cover ≥ 3 sets: {r:?}");
        assert!(r.spent <= 2.0 + 1e-12);
    }

    #[test]
    fn forced_seeds_charge_the_budget_and_lead() {
        let rc = pool(&[&[0, 1], &[0, 2], &[3], &[3, 1]], 4);
        let view = CoverageView::build(&rc, 0..4);
        let mut scratch = GreedyScratch::new();
        let cons = SeedConstraints { forced: &[1], excluded: &[] };
        let r = ratio(&view, 2.0, &NodeCosts::Uniform, &cons, &mut scratch);
        assert_eq!(r.seeds[0], 1);
        assert_eq!(r.marginal_gains[0], 2);
        assert_eq!(r.covered, 3);
        assert!((r.spent - 2.0).abs() < 1e-12);
        // duplicates are selected and charged once
        let dup = SeedConstraints { forced: &[1, 1], excluded: &[] };
        let r2 = ratio(&view, 2.0, &NodeCosts::Uniform, &dup, &mut scratch);
        assert_eq!(r2.seeds, r.seeds);
    }

    #[test]
    #[should_panic(expected = "overrun the budget")]
    fn forced_seeds_beyond_the_budget_panic() {
        let rc = pool(&[&[0], &[1]], 2);
        let view = CoverageView::build(&rc, 0..2);
        let cons = SeedConstraints { forced: &[0, 1], excluded: &[] };
        ratio(&view, 1.0, &NodeCosts::Uniform, &cons, &mut GreedyScratch::new());
    }

    #[test]
    fn excluded_nodes_never_appear_even_via_fallback() {
        // Node 0 would win both the greedy loop and the fallback; with it
        // excluded the answer must come from the rest.
        let rc = pool(&[&[0, 1], &[0, 2], &[0, 3], &[4, 1]], 5);
        let view = CoverageView::build(&rc, 0..4);
        let cons = SeedConstraints { forced: &[], excluded: &[0] };
        let costs: Vec<f64> = vec![1.0, 0.1, 1.0, 1.0, 1.0];
        let r =
            ratio(&view, 1.0, &NodeCosts::per_node(costs.into()), &cons, &mut GreedyScratch::new());
        assert!(!r.seeds.contains(&0), "excluded node selected: {:?}", r.seeds);
    }

    #[test]
    fn leftover_budget_pads_with_affordable_zero_gain_nodes() {
        let rc = pool(&[&[0, 1], &[0, 2]], 6);
        let view = CoverageView::build(&rc, 0..2);
        let mut scratch = GreedyScratch::new();
        // Uniform, budget 4: node 0 covers everything, then 3 pads.
        let r = ratio(&view, 4.0, &NodeCosts::Uniform, &SeedConstraints::none(), &mut scratch);
        assert_eq!(r.seeds, vec![0, 1, 2, 3]);
        assert_eq!(r.marginal_gains, vec![2, 0, 0, 0]);
        assert_eq!(r.covered, 2);
        // Costly padding candidates are skipped when unaffordable.
        let costs: Vec<f64> = vec![1.0, 9.0, 1.0, 9.0, 1.0, 1.0];
        let r2 = ratio(
            &view,
            3.0,
            &NodeCosts::per_node(costs.into()),
            &SeedConstraints::none(),
            &mut scratch,
        );
        assert_eq!(r2.seeds, vec![0, 2, 4], "padding must skip nodes it cannot afford");
    }

    #[test]
    fn zero_budget_returns_nothing() {
        let rc = pool(&[&[0, 1]], 2);
        let view = CoverageView::build(&rc, 0..1);
        let r = ratio(
            &view,
            0.0,
            &NodeCosts::Uniform,
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        );
        assert!(r.seeds.is_empty());
        assert_eq!(r.covered, 0);
        assert_eq!(r.spent, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_costs_are_rejected() {
        let rc = pool(&[&[0]], 2);
        let view = CoverageView::build(&rc, 0..1);
        ratio(
            &view,
            1.0,
            &NodeCosts::per_node(vec![1.0, 0.0].into()),
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "one cost per node")]
    fn wrong_length_costs_are_rejected() {
        let rc = pool(&[&[0]], 3);
        let view = CoverageView::build(&rc, 0..1);
        ratio(
            &view,
            1.0,
            &NodeCosts::per_node(vec![1.0].into()),
            &SeedConstraints::none(),
            &mut GreedyScratch::new(),
        );
    }
}

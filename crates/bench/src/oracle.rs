//! Exact-IP quality oracle for budgeted seed selection.
//!
//! TipTop (arXiv:1701.08462) solves influence maximization near-exactly
//! by handing the sampled RR sets to an integer-program solver; this
//! module does the same thing at test scale with a branch-and-bound
//! search instead of a MIP solver. On fixtures of ≤ 20 nodes and ≤ 128
//! RR sets the exact optimum of *maximum coverage under a knapsack
//! budget* is computable in microseconds, which turns the budgeted
//! ratio-greedy's `1 − 1/√e` guarantee (see `docs/DERIVATIONS.md`) from
//! a theorem into a regression test: `tests/budgeted_oracle.rs` asserts
//! the bound on every fixture and the `query_engine` bench records the
//! realized greedy/exact gap in `BENCH_query_engine.json`.
//!
//! The solver is deliberately independent of the production code path —
//! it never touches [`CoverageView`]'s gain tables, heaps or stamps — so
//! agreement between the two is evidence, not tautology.

use sns_rrset::{
    BudgetedCoverageResult, CoverageView, GainInit, GreedyScratch, NodeCosts, Ratio, RrCollection,
    SeedConstraints,
};

/// Per-node set-coverage bitmasks: `masks[v]` has bit `s` set iff node
/// `v` is a member of RR set `s`. Panics if more than 128 sets are given
/// (the oracle is a test-scale tool; widen the mask type before widening
/// the fixtures).
pub fn node_masks(sets: &[Vec<u32>], n: u32) -> Vec<u128> {
    assert!(sets.len() <= 128, "oracle masks hold at most 128 sets");
    let mut masks = vec![0u128; n as usize];
    for (s, members) in sets.iter().enumerate() {
        for &v in members {
            masks[v as usize] |= 1u128 << s;
        }
    }
    masks
}

/// Exact maximum number of sets coverable by any node subset whose total
/// cost fits `budget` — branch and bound over the nodes, descending by
/// individual coverage, pruning on both the remaining budget and an
/// optimistic suffix-union bound.
pub fn exact_max_coverage_under_budget(masks: &[u128], costs: &[f64], budget: f64) -> u64 {
    assert_eq!(masks.len(), costs.len(), "one cost per node");
    assert!(budget.is_finite() && budget >= 0.0, "budget must be finite and nonnegative");
    let mut order: Vec<usize> = (0..masks.len()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(masks[v].count_ones()));
    // suffix[i] = union of every mask from position i on: the most the
    // remaining nodes could still add, ignoring costs — an admissible
    // (optimistic) bound for pruning.
    let mut suffix = vec![0u128; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix[i] = suffix[i + 1] | masks[order[i]];
    }
    let mut best = 0u64;
    branch(&order, masks, costs, &suffix, 0, 0, budget, &mut best);
    best
}

#[allow(clippy::too_many_arguments)]
fn branch(
    order: &[usize],
    masks: &[u128],
    costs: &[f64],
    suffix: &[u128],
    i: usize,
    covered: u128,
    remaining: f64,
    best: &mut u64,
) {
    let covered_now = u64::from(covered.count_ones());
    if covered_now > *best {
        *best = covered_now;
    }
    let Some(&v) = order.get(i) else { return };
    if u64::from((covered | suffix[i]).count_ones()) <= *best {
        return; // even covering every remaining set cannot beat the incumbent
    }
    if costs[v] <= remaining {
        branch(order, masks, costs, suffix, i + 1, covered | masks[v], remaining - costs[v], best);
    }
    branch(order, masks, costs, suffix, i + 1, covered, remaining, best);
}

/// One oracle fixture: a tiny RR-set pool, a cost regime and a budget.
/// All costs are dyadic rationals so budget arithmetic is exact in f64.
#[derive(Debug, Clone)]
pub struct OracleFixture {
    /// Human-readable regime label (appears in assertions and reports).
    pub name: &'static str,
    /// RR sets as member lists.
    pub sets: Vec<Vec<u32>>,
    /// Node-universe size (≤ 20).
    pub n: u32,
    /// Per-node costs, one per node.
    pub costs: Vec<f64>,
    /// The knapsack budget.
    pub budget: f64,
}

/// The checked fixture suite — five cost/budget regimes chosen to stress
/// different failure modes of ratio greedy: uniform costs (degeneration
/// to cardinality), cheap-hub skew (greedy's favorite terrain),
/// expensive-hub lockout (where the single-node fallback arm earns its
/// keep), a tight fractional budget over mixed dyadic costs, and an
/// overlap decoy where greedy is *provably* suboptimal — so the realized
/// gap the bench records is a real measurement, not a constant 1000‰.
pub fn fixtures() -> Vec<OracleFixture> {
    let mut out = Vec::new();

    // Regime 1: uniform costs, budget = 4 — exactly the top-4 problem.
    let sets: Vec<Vec<u32>> =
        (0..40u32).map(|s| vec![s % 11, (s * 7 + 3) % 11, (s * 5 + 1) % 11]).collect();
    out.push(OracleFixture {
        name: "uniform-costs",
        sets,
        n: 11,
        costs: vec![1.0; 11],
        budget: 4.0,
    });

    // Regime 2: cheap hubs — the high-coverage nodes are also the cheap
    // ones, so ratio greedy should land near the exact optimum.
    let sets: Vec<Vec<u32>> = (0..60u32).map(|s| vec![s % 5, 5 + (s * 3 + 1) % 13]).collect();
    let costs: Vec<f64> = (0..18u32).map(|v| if v < 5 { 0.5 } else { 2.0 }).collect();
    out.push(OracleFixture { name: "cheap-hubs", sets, n: 18, costs, budget: 3.0 });

    // Regime 3: expensive hub — one node covers almost everything but
    // eats the whole budget, while cheap decoys tempt the ratio order.
    // This is the regime the max(greedy, best-single) arm exists for.
    // Hub ratio 48/4 = 12; decoy ratio 2/0.125 = 16, so greedy takes
    // both decoys first and can no longer afford the hub.
    let mut sets: Vec<Vec<u32>> = (0..48u32).map(|s| vec![0, 1 + s % 12]).collect();
    sets.extend([vec![13], vec![13], vec![14], vec![14]]);
    let mut costs = vec![3.75; 15];
    costs[0] = 4.0;
    costs[13] = 0.125;
    costs[14] = 0.125;
    out.push(OracleFixture { name: "expensive-hub", sets, n: 15, costs, budget: 4.0 });

    // Regime 4: tight fractional budget over mixed dyadic costs — many
    // affordable combinations, none dominant, so exact search has real
    // work to do and greedy's gap is genuinely exercised.
    let sets: Vec<Vec<u32>> =
        (0..90u32).map(|s| vec![s % 20, (s * 13 + 7) % 20, (s * 3 + 11) % 20]).collect();
    let costs: Vec<f64> =
        (0..20u32).map(|v| [0.25, 0.5, 0.75, 1.25, 1.5][(v % 5) as usize]).collect();
    out.push(OracleFixture { name: "tight-fractional", sets, n: 20, costs, budget: 2.75 });

    // Regime 5: overlap decoy — a genuine greedy gap. Three disjoint
    // unit-cost nodes (0, 1, 2) cover 3 sets each; the exact optimum
    // takes all three (9 sets, cost 3). Node 3 overlaps five of their
    // sets at cost 1.5: its ratio 5/1.5 ≈ 3.33 beats everyone's 3, so
    // greedy opens with it, can then afford only one more good node and
    // strands 0.5 budget — 8 of 9 sets (889‰). The best single node (5)
    // doesn't rescue it. This pins the realized-gap counter strictly
    // below 1000‰, proving the oracle can disagree with greedy.
    let sets: Vec<Vec<u32>> = vec![
        vec![0, 3],
        vec![0, 3],
        vec![0, 3],
        vec![1, 3],
        vec![1, 3],
        vec![1],
        vec![2],
        vec![2],
        vec![2],
    ];
    let mut costs = vec![1.0; 10];
    costs[3] = 1.5;
    out.push(OracleFixture { name: "overlap-decoy", sets, n: 10, costs, budget: 3.0 });

    out
}

/// Runs the production budgeted greedy on a fixture (fresh histogram
/// path, no constraints) and returns its result.
pub fn greedy_on(fixture: &OracleFixture) -> BudgetedCoverageResult {
    let mut rc = RrCollection::new(fixture.n);
    let sets: Vec<&[u32]> = fixture.sets.iter().map(Vec::as_slice).collect();
    rc.append_epoch(&sets, 0);
    let view = CoverageView::build(&rc, rc.id_range());
    let costs = NodeCosts::per_node(fixture.costs.clone().into());
    view.select(
        Ratio { budget: fixture.budget, costs: &costs },
        GainInit::Histogram,
        &SeedConstraints::none(),
        &mut GreedyScratch::new(),
    )
}

/// Exact optimum of a fixture via [`exact_max_coverage_under_budget`].
pub fn exact_on(fixture: &OracleFixture) -> u64 {
    let masks = node_masks(&fixture.sets, fixture.n);
    exact_max_coverage_under_budget(&masks, &fixture.costs, fixture.budget)
}

/// `(name, greedy/exact ratio in permille)` for every fixture — the
/// realized approximation quality the bench report records next to the
/// `1 − 1/√e ≈ 393‰` floor the guarantee promises.
pub fn realized_gaps_permille() -> Vec<(&'static str, u64)> {
    fixtures()
        .iter()
        .map(|f| {
            let greedy = greedy_on(f).covered;
            let exact = exact_on(f);
            assert!(exact > 0, "degenerate fixture {}", f.name);
            (f.name, greedy * 1000 / exact)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_solver_agrees_with_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..10u32);
            let sets: Vec<Vec<u32>> = (0..rng.gen_range(5..30u32))
                .map(|_| {
                    let len = rng.gen_range(1..4usize);
                    (0..len).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let costs: Vec<f64> =
                (0..n).map(|_| [0.5, 1.0, 1.5, 2.0][rng.gen_range(0..4usize)]).collect();
            let budget = f64::from(rng.gen_range(1..7u32)) * 0.5;
            let masks = node_masks(&sets, n);
            // brute force: every subset, filtered by cost
            let mut brute = 0u64;
            for pick in 0..(1u32 << n) {
                let mut cost = 0.0;
                let mut covered = 0u128;
                for v in 0..n {
                    if pick & (1 << v) != 0 {
                        cost += costs[v as usize];
                        covered |= masks[v as usize];
                    }
                }
                if cost <= budget {
                    brute = brute.max(u64::from(covered.count_ones()));
                }
            }
            assert_eq!(
                exact_max_coverage_under_budget(&masks, &costs, budget),
                brute,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fixtures_are_within_scale_and_nontrivial() {
        let all = fixtures();
        assert!(all.len() >= 4, "at least four cost/budget regimes");
        for f in &all {
            assert!(f.n <= 20, "{}: oracle fixtures stay exact-solvable", f.name);
            assert!(f.sets.len() <= 128, "{}", f.name);
            assert_eq!(f.costs.len(), f.n as usize, "{}", f.name);
            assert!(exact_on(f) > 0, "{}", f.name);
        }
        // the expensive-hub regime actually triggers the fallback arm
        let hub = all.iter().find(|f| f.name == "expensive-hub").unwrap();
        assert!(greedy_on(hub).single_fallback, "fallback arm untested");
        // the overlap-decoy regime realizes a genuine greedy gap: 8 of 9
        // sets against the exact optimum, with no fallback rescue
        let decoy = all.iter().find(|f| f.name == "overlap-decoy").unwrap();
        let g = greedy_on(decoy);
        assert_eq!(g.covered, 8, "decoy must bait ratio greedy: {g:?}");
        assert_eq!(exact_on(decoy), 9);
        assert!(!g.single_fallback);
    }
}

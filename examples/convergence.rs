//! D-SSA convergence trajectory: watch the dynamic ε-split tighten until
//! the stopping condition fires — §6 of the paper, made visible.
//!
//! Each doubling checkpoint prints the find/verify influence estimates,
//! the data-derived (ε₁, ε₂, ε₃), and the realized ε_t that condition D2
//! compares against the target ε. The run stops at the first checkpoint
//! where ε_t ≤ ε — *that* is the "stare" of stop-and-stare. ε₂ is the
//! precision the verify coverage certifies, so it starts near ε itself
//! at the D1 anchor (`docs/DERIVATIONS.md` §4).
//!
//! ```sh
//! cargo run --release --example convergence
//! ```

use stop_and_stare::graph::{gen, GraphStats, WeightModel};
use stop_and_stare::{Dssa, DssaIteration, Model, Params, RunResult, SamplingContext};

fn print_trajectory(result: &RunResult, trace: &[DssaIteration]) {
    println!(
        "{:>3} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}  D2?",
        "t", "pool", "Î(find)", "Î(verify)", "eps1", "eps2", "eps3", "eps_t"
    );
    for it in trace {
        match it.check {
            Some(c) => println!(
                "{:>3} {:>12} {:>10.0} {:>10.0} {:>9.4} {:>9.4} {:>9.4} {:>9.4}  {}",
                it.t,
                it.pool_size,
                it.influence_find,
                c.i_verify,
                c.e1,
                c.e2,
                c.e3,
                c.eps_t,
                if c.satisfied { "STOP" } else { "continue" }
            ),
            None => println!(
                "{:>3} {:>12} {:>10.0} {:>10} {:>9} {:>9} {:>9} {:>9}  D1 not met",
                it.t, it.pool_size, it.influence_find, "-", "-", "-", "-", "-"
            ),
        }
    }
    println!(
        "stopped after {} iterations with {} RR sets; Î = {:.0} (binding: {:?})\n",
        result.iterations,
        result.rr_sets_total(),
        result.influence_estimate,
        result.binding,
    );
}

fn main() {
    let graph = gen::rmat(20_000, 160_000, gen::RmatParams::GRAPH500, 13)
        .build(WeightModel::WeightedCascade)
        .expect("generator parameters are valid");
    println!("network: {}\n", GraphStats::compute(&graph));

    let epsilon = 0.1;
    let params = Params::with_paper_delta(1000, epsilon, graph.num_nodes() as u64)
        .expect("parameters are in range");
    let ctx = SamplingContext::new(&graph, Model::LinearThreshold).with_seed(21);

    let (result, trace) = Dssa::new(params).run_traced(&ctx).expect("run succeeds");
    print_trajectory(&result, &trace);
    println!(
        "note how all three epsilons shrink as the pool doubles, and how ε₂ starts near ε at \
         the D1 anchor: that is what the verify coverage certifies."
    );
}

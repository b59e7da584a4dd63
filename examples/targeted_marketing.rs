//! Targeted viral marketing (TVM): maximize influence over a topic
//! audience rather than the whole network — §7.3 of the paper.
//!
//! A political campaign cares only about users interested in its topic.
//! This example synthesizes a Table 4-style target group, runs
//! D-SSA-TVM / SSA-TVM / KB-TIM — the IM solvers D-SSA, SSA and TIM+ on
//! a sampling context whose RR-set roots are drawn ∝ the audience
//! weights — and shows that (1) the TVM seeds beat generic IM seeds on
//! *targeted* reach and (2) the stop-and-stare algorithms beat KB-TIM on
//! samples.
//!
//! ```sh
//! cargo run --release --example targeted_marketing
//! ```

use stop_and_stare::baselines::Tim;
use stop_and_stare::graph::gen::datasets;
use stop_and_stare::tvm::{TargetWeights, TOPIC_1};
use stop_and_stare::{Dssa, Model, Params, SamplingContext, SpreadEstimator, Ssa};

fn main() {
    let graph =
        datasets::TWITTER.generate(1.0 / 1024.0, 2024).expect("generator parameters are valid");
    let n = graph.num_nodes();

    // Synthesize Topic 1's audience at the fraction Table 4 mined from
    // real tweets (~2.4% of users, Zipf-weighted by interest).
    let audience = TargetWeights::from_topic(&graph, &TOPIC_1, 5).expect("graph is non-empty");
    println!(
        "audience: {} of {} users targeted ({}), Γ = {:.1}",
        audience.num_targeted(),
        n,
        TOPIC_1.keywords.join(" / "),
        audience.gamma(),
    );

    let k = 25;
    let params = Params::with_paper_delta(k, 0.1, u64::from(n)).expect("parameters in range");

    // Weighted RIS: roots drawn ∝ b(v), and Γ = Σ b(v) replaces n.
    let wris = SamplingContext::new(&graph, Model::LinearThreshold)
        .with_seed(7)
        .with_weighted_roots(audience.weights())
        .expect("audience covers the graph");
    let dssa = Dssa::new(params).run(&wris).expect("run succeeds");
    let ssa = Ssa::new(params).run(&wris).expect("run succeeds");
    let kb = Tim::plus(params).run(&wris).expect("run succeeds");

    println!("\n{:>10} {:>12} {:>12} {:>14}", "algorithm", "time", "RR sets", "targeted reach");
    let scorer = SpreadEstimator::new(&graph, Model::LinearThreshold)
        .with_weights(audience.weights())
        .expect("audience covers the graph");
    for (name, r) in [("D-SSA-TVM", &dssa), ("SSA-TVM", &ssa), ("KB-TIM", &kb)] {
        let reach = scorer.estimate(&r.seeds, 5_000, 9);
        println!(
            "{:>10} {:>10.0}ms {:>12} {:>14.1}",
            name,
            r.wall_time.as_secs_f64() * 1e3,
            r.rr_sets_total(),
            reach
        );
    }

    // Compare against untargeted IM seeds: same budget pointed at the
    // whole network instead of the audience.
    let generic = Dssa::new(params)
        .run(&SamplingContext::new(&graph, Model::LinearThreshold).with_seed(7))
        .expect("run succeeds");
    let generic_reach = scorer.estimate(&generic.seeds, 5_000, 9);
    let targeted_reach = scorer.estimate(&dssa.seeds, 5_000, 9);
    println!(
        "\ntargeted reach, same budget: TVM seeds {targeted_reach:.1} vs generic IM seeds \
         {generic_reach:.1} — targeting the audience {}",
        if targeted_reach >= generic_reach { "pays off" } else { "did not pay off (rare)" }
    );
}

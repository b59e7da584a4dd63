//! Table 4 and Figure 8 — the Targeted Viral Marketing experiments.
//!
//! TVM is influence maximization over weighted roots (§7.3.1): D-SSA-TVM
//! and SSA-TVM are [`Dssa`] and [`Ssa`], and KB-TIM (Li, Zhang, Tan —
//! VLDB'15) is [`Tim::plus`], each run on a sampling context whose RR-set
//! roots are drawn ∝ `b(v)` ([`SamplingContext::with_weighted_roots`]).

use sns_baselines::Tim;
use sns_core::{Dssa, Params, SamplingContext, Ssa};
use sns_diffusion::{Model, SpreadEstimator};
use sns_graph::Graph;
use sns_tvm::{TargetWeights, TOPIC_1, TOPIC_2};

use crate::config::Config;
use crate::datasets::{tvm_dataset, tvm_k_grid};
use crate::report::{fmt_count, fmt_secs, Table};

/// Prints Table 4: the two topics, their keywords, and the target-group
/// size both as mined in the paper and as synthesized on the stand-in.
pub fn run_table4(cfg: &Config) {
    let dataset = tvm_dataset(cfg);
    let mut table = Table::new(
        "Table 4: Topics, related keywords (synthetic target groups)",
        &["Topic", "Keywords", "paper #Users", "standin #Users", "standin Gamma"],
    );
    for (i, topic) in [TOPIC_1, TOPIC_2].iter().enumerate() {
        let weights = TargetWeights::from_topic(&dataset.graph, topic, cfg.seed + i as u64)
            .expect("topic synthesis cannot fail on non-empty graphs");
        table.push_row(vec![
            topic.name.to_string(),
            topic.keywords.join(", "),
            fmt_count(topic.users),
            fmt_count(u64::from(weights.num_targeted())),
            format!("{:.1}", weights.gamma()),
        ]);
    }
    println!(
        "(target groups synthesized on {} — see TargetWeights::synthetic_topic)\n",
        dataset.label()
    );
    table.emit(&cfg.out_dir);
}

/// Prints Figure 8: TVM running time vs k for D-SSA, SSA and KB-TIM on
/// the Twitter stand-in under LT, one table per topic.
pub fn run_fig8(cfg: &Config) {
    let dataset = tvm_dataset(cfg);
    let n = dataset.graph.num_nodes();
    let ks = tvm_k_grid(cfg);
    for (i, topic) in [TOPIC_1, TOPIC_2].iter().enumerate() {
        let weights = TargetWeights::from_topic(&dataset.graph, topic, cfg.seed + i as u64)
            .expect("topic synthesis cannot fail on non-empty graphs");
        let mut table = Table::new(
            format!(
                "Fig 8{} : TVM running time, {} on {}",
                (b'a' + i as u8) as char,
                topic.name,
                dataset.label()
            ),
            &["k", "D-SSA", "SSA", "KB-TIM", "D-SSA #RR", "SSA #RR", "KB-TIM #RR"],
        );
        let ctx = wris_context(&dataset.graph, &weights, cfg);
        for &k in &ks {
            let params = Params::with_paper_delta(k, cfg.epsilon, u64::from(n))
                .expect("harness parameters are valid");
            eprintln!("[fig8] {} k={k} ...", topic.name);
            let d = Dssa::new(params).run(&ctx).expect("D-SSA-TVM run failed");
            let s = Ssa::new(params).run(&ctx).expect("SSA-TVM run failed");
            let kb = Tim::plus(params).run(&ctx).expect("KB-TIM run failed");
            table.push_row(vec![
                k.to_string(),
                fmt_secs(d.wall_time.as_secs_f64()),
                fmt_secs(s.wall_time.as_secs_f64()),
                fmt_secs(kb.wall_time.as_secs_f64()),
                fmt_count(d.rr_sets_total()),
                fmt_count(s.rr_sets_total()),
                fmt_count(kb.rr_sets_total()),
            ]);
        }
        table.emit(&cfg.out_dir);
    }
    let _ = topic_sanity(&dataset.graph, cfg);
}

/// The LT sampling context every Figure 8 run shares, with WRIS roots.
fn wris_context<'g>(
    graph: &'g Graph,
    weights: &TargetWeights,
    cfg: &Config,
) -> SamplingContext<'g> {
    SamplingContext::new(graph, Model::LinearThreshold)
        .with_seed(cfg.seed)
        .with_threads(cfg.threads)
        .with_weighted_roots(weights.weights())
        .expect("topic weights are synthesized on this graph")
}

/// Cross-check printed under Figure 8: the TVM seeds of topic 1 must
/// score higher *targeted* influence than generic IM seeds of the same
/// budget (otherwise targeting is not doing anything).
fn topic_sanity(graph: &Graph, cfg: &Config) -> Option<()> {
    let n = graph.num_nodes();
    let weights = TargetWeights::from_topic(graph, &TOPIC_1, cfg.seed).ok()?;
    let k = 20.min(n as usize / 2);
    let params = Params::with_paper_delta(k, cfg.epsilon.max(0.2), u64::from(n)).ok()?;
    let tvm = Dssa::new(params).run(&wris_context(graph, &weights, cfg)).ok()?;
    let im = Dssa::new(params)
        .run(
            &SamplingContext::new(graph, Model::LinearThreshold)
                .with_seed(cfg.seed)
                .with_threads(cfg.threads),
        )
        .ok()?;
    let est = SpreadEstimator::new(graph, Model::LinearThreshold)
        .with_threads(cfg.threads)
        .with_weights(weights.weights())
        .ok()?;
    let tvm_score = est.estimate(&tvm.seeds, cfg.simulations.min(2000), cfg.seed ^ 0xF168);
    let im_score = est.estimate(&im.seeds, cfg.simulations.min(2000), cfg.seed ^ 0xF168);
    println!(
        "sanity: targeted influence of TVM seeds = {tvm_score:.1} vs IM seeds = {im_score:.1} (k = {k}) — targeting {}\n",
        if tvm_score >= im_score { "wins, as expected" } else { "UNEXPECTEDLY loses" }
    );
    Some(())
}

//! End-to-end benchmark of the Stop-and-Stare workspace.
//!
//! ```text
//! sns-e2ebench --workload <solve|serve|grow|restart> --seed <n> --seconds <s> --trace <0|1>
//! sns-e2ebench pin        # prints the pinned solve results (one thread)
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs one fixed
//! round untraced, replays it through each layer's public calls under
//! spans, and prints every per-layer metric. The last stdout line is the
//! JSON result; a failed correctness check exits with code 1.

// The benchmark reads the wall clock by design.
#![allow(clippy::disallowed_methods)]

mod clock;
mod report;
mod restart;
mod solve;
mod trace;
mod traffic;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use clock::Lap;
use report::{result_json, Metrics, OpTimes};
use trace::Tracer;

pub const MIB: f64 = 1024.0 * 1024.0;

/// End-to-end metrics: every workload prints all of them.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_cpu_ms", "ms"), ("ops_per_cpu_s", "1/s"), ("mem_mib", "MiB")];

/// Per-layer metrics of the traced run. A layer a workload does not use
/// reports 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("graph.build_ms", "ms"),
    ("graph.arcs", "count"),
    ("diffusion.sample_ms", "ms"),
    ("diffusion.sets", "count"),
    ("diffusion.entries", "count"),
    ("diffusion.edges_examined", "count"),
    ("diffusion.ns_per_edge", "ns"),
    ("diffusion.speedup_2t", "ratio"),
    ("collection.seal_ms", "ms"),
    ("collection.seal_entries", "count"),
    ("collection.clone_ms", "ms"),
    ("collection.clone_mib", "MiB"),
    ("collection.compactions", "count"),
    ("collection.seal_speedup_2t", "ratio"),
    ("coverage.select_ms", "ms"),
    ("coverage.selects", "count"),
    ("coverage.us_per_seed", "us"),
    ("coverage.verify_ms", "ms"),
    ("coverage.plain_us", "us"),
    ("coverage.budgeted_us", "us"),
    ("coverage.weighted_us", "us"),
    ("snapshot.build_ms", "ms"),
    ("snapshot.merge_ms", "ms"),
    ("snapshot.builds", "count"),
    ("snapshot.merges", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.mib", "MiB"),
    ("planner.plan_us", "us"),
    ("planner.groups", "count"),
    ("planner.builds_saved", "count"),
    ("planner.admit_us", "us"),
    ("planner.refused", "count"),
    ("planner.expired", "count"),
    ("planner.sojourn_p50", "cost_units"),
    ("planner.sojourn_p99", "cost_units"),
    ("engine.query_p50_ms", "ms"),
    ("engine.query_p99_ms", "ms"),
    ("engine.queries_per_s", "1/s"),
    ("grower.extend_ms", "ms"),
    ("grower.ack_wait_ms", "ms"),
    ("grower.epochs", "count"),
    ("estimate_inf.ms", "ms"),
    ("estimate_inf.sets", "count"),
    ("dssa.iterations", "count"),
    ("ssa.iterations", "count"),
    ("dssa.job_ms", "ms"),
    ("ssa.job_ms", "ms"),
    ("dssa.unattributed_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.bytes", "bytes"),
    ("store.mib_per_s", "MiB/s"),
    ("store.restore_ms", "ms"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Directory for the store and the span files, inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Correctness-check mismatches (any makes the run incorrect).
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub logs: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    pub fn log(&mut self, line: String) {
        self.logs.push(line);
    }

    /// Records the end-to-end metrics common to every workload, all
    /// counted in CPU time (see `clock`). Every round of a run replays the
    /// same input, so each round estimates the same quantities; each
    /// metric is the median over the rounds, so that a host slowdown that
    /// hits a few rounds moves none of them. `round_rates` holds each
    /// round's operations per CPU second of call time. The wall-clock
    /// figures, and the tail (`tail_pct` within a round), are only logged:
    /// on a shared host they move too much from run to run to be held to a
    /// bound.
    pub fn e2e(
        &mut self,
        setups: &[Lap],
        rounds: &[OpTimes],
        tail_pct: f64,
        round_rates: &[f64],
        mem_mib: f64,
    ) {
        let over_rounds =
            |f: &dyn Fn(&OpTimes) -> f64| report::median(&rounds.iter().map(f).collect::<Vec<_>>());
        let setup_cpu: Vec<f64> = setups.iter().map(|l| l.cpu_s).collect();
        let setup_wall: Vec<f64> = setups.iter().map(|l| l.wall_s).collect();
        let m = &mut self.metrics;
        m.set("setup_s", report::median(&setup_cpu));
        m.set("op_cpu_ms", over_rounds(&|r| r.cpu_p50_ms()));
        m.set("ops_per_cpu_s", report::median(round_rates));
        m.set("mem_mib", mem_mib);
        let ops: usize = rounds.iter().map(OpTimes::len).sum();
        let span = |v: &[f64]| {
            (v.iter().copied().fold(f64::INFINITY, f64::min), v.iter().copied().fold(0.0, f64::max))
        };
        let (cpu_lo, cpu_hi) = span(&setup_cpu);
        self.logs.push(format!(
            "{ops} ops in {} rounds, medians over rounds: wall p50 {:.3} ms, wall p{tail_pct} \
             {:.3} ms, {:.3} ops per wall second of the calls",
            rounds.len(),
            over_rounds(&|r| r.wall_p50_ms()),
            over_rounds(&|r| r.wall_pct_ms(tail_pct)),
            over_rounds(&|r| r.wall_rate()),
        ));
        self.logs.push(format!(
            "{} set-ups: CPU median {:.3} s ({cpu_lo:.3}..{cpu_hi:.3}), wall median {:.3} s",
            setups.len(),
            report::median(&setup_cpu),
            report::median(&setup_wall),
        ));
    }

    /// Attribution of a traced run: the replayed layers' busy time against
    /// the untraced timed phase, and the traced phase's extra wall time.
    pub fn attribute(&mut self, tracer: &Tracer, untraced_s: f64, traced_s: f64) {
        let busy_ms = tracer.leaf_busy_ms();
        let untraced_ms = untraced_s * 1e3;
        self.metrics.set("trace.attributed_share", busy_ms / untraced_ms);
        self.metrics.set("trace.overhead_share", traced_s / untraced_s - 1.0);
        self.logs.push(format!(
            "attribution: untraced {untraced_ms:.1} ms, replayed layers {busy_ms:.1} ms \
             ({:.1}%), unattributed {:.1} ms; traced phase {:.1} ms, tracing overhead {:+.1}% \
             ({} spans)",
            100.0 * busy_ms / untraced_ms,
            untraced_ms - busy_ms,
            traced_s * 1e3,
            100.0 * (traced_s / untraced_s - 1.0),
            tracer.len()
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::default();
    let out = match (args.workload.as_str(), args.trace) {
        ("solve", false) => solve::run(&solve::SolveConfig::full(), args.seed, args.seconds),
        ("solve", true) => solve::run_traced(&solve::SolveConfig::full(), args.seed, &mut tracer),
        ("serve", false) => traffic::run(&traffic::TrafficConfig::serve(), args.seed, args.seconds),
        ("serve", true) => {
            traffic::run_traced(&traffic::TrafficConfig::serve(), args.seed, &mut tracer)
        }
        ("grow", false) => traffic::run(&traffic::TrafficConfig::grow(), args.seed, args.seconds),
        ("grow", true) => {
            traffic::run_traced(&traffic::TrafficConfig::grow(), args.seed, &mut tracer)
        }
        ("restart", false) => {
            restart::run(&restart::RestartConfig::full(), args.seed, args.seconds, &work_dir())
        }
        ("restart", true) => restart::run_traced(
            &restart::RestartConfig::full(),
            args.seed,
            &work_dir(),
            &mut tracer,
        ),
        (other, _) => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        let path = work_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

fn print_result(args: &Args, out: &Outcome) -> bool {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = names
        .iter()
        .map(|&(name, unit)| (name, out.metrics.get(name).unwrap_or(0.0), unit))
        .collect();
    for line in &out.logs {
        println!("# {line}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for f in &out.failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!("{}", result_json(correct, out.attempted.max(1), out.failed, &metrics));
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        for s in solve::summaries(&solve::SolveConfig::full(), 1) {
            println!(
                "    (Algo::{:?}, {}, {}, {}, {:#018x}),",
                s.algo, s.k, s.rr_sets_total, s.iterations, s.seeds_fnv
            );
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sns-e2ebench --workload <solve|serve|grow|restart> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new(".").join("e2ebench").is_dir() {
        eprintln!("error: run from the repository root");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(out) if print_result(&args, &out) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, in the same order and units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json readable");
        let listed: Vec<(String, String)> = json
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| {
                let field = |key: &str| {
                    let start =
                        l.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
                    l[start..start + l[start..].find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let printed: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, printed);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload serve --seed 3 --seconds 20 --trace 1")).unwrap();
        assert_eq!((ok.workload.as_str(), ok.seed, ok.seconds, ok.trace), ("serve", 3, 20.0, true));
        assert!(parse_args(&args("--workload serve --seed x")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}

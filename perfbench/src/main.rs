//! End-to-end benchmark of the ppscan workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <job-file|cluster-resident|serve-rw> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints a human-readable account on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). See `README.md` next to this crate.

mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{Outcome, Plan, WORKLOADS};

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with tracing on.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_ms", "ms"),
    ("graph.read_ms", "ms"),
    ("graph.decode_ms", "ms"),
    ("graph.rev_build_ms", "ms"),
    ("graph.validate_ms", "ms"),
    ("graph.load_mib_per_s", "MiB/s"),
    ("core.ppscan_ms", "ms"),
    ("core.prune_ms", "ms"),
    ("core.check_ms", "ms"),
    ("core.core_cluster_ms", "ms"),
    ("core.noncore_cluster_ms", "ms"),
    ("core.other_ms", "ms"),
    ("intersect.compsim_calls", "count"),
    ("intersect.elements_scanned", "count"),
    ("intersect.elements_per_busy_ns", "1/ns"),
    ("intersect.gallop_share", "fraction"),
    ("sched.busy_ms", "ms"),
    ("sched.idle_frac", "fraction"),
    ("sched.check_imbalance", "ratio"),
    ("sched.tasks", "count"),
    ("sched.steals", "count"),
    ("output.write_ms", "ms"),
    ("output.lines", "count"),
    ("gsindex.build_ms", "ms"),
    ("gsindex.query_ms", "ms"),
    ("gsindex.apply_delta_ms", "ms"),
    ("gsindex.recomputed_edges", "count"),
    ("gsindex.touched_vertices", "count"),
    ("gsindex.heap_mib", "MiB"),
    ("serve.query_overhead_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.retired_snapshots", "count"),
    ("serve.writer_late_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.op_self_ms", "ms"),
    ("trace.spans", "count"),
    ("host.cpu_some_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ppscan-perfbench --workload <job-file|cluster-resident|serve-rw> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where graph files, outputs and spans go: next to the executable,
/// inside the build directory of the checkout.
fn data_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join("perfbench-data"))
}

/// The result line: exactly the metrics of `table`, in its order.
fn result_json(outcome: &Outcome, table: &[(&str, &str)], trace: bool) -> Result<String, String> {
    let measured = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut metrics = String::new();
    for &(name, unit) in table {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    });
    let run = || -> Result<String, String> {
        let plan = Plan::new(args.seed, args.seconds, args.trace, data_dir()?);
        let outcome = workloads::run(&args.workload, &plan)?;
        eprintln!(
            "{} seed {}: {} primary ops in the window, {} attempted, {} failed, \
             {} cores in the smallest reference answer",
            args.workload,
            args.seed,
            outcome.ops,
            outcome.attempted,
            outcome.failed,
            outcome.min_ref_cores
        );
        let (steal_ms, cpu_some_ms, late_ms) = outcome.quality;
        eprintln!(
            "run quality: {{\"host.steal_ms\": {steal_ms}, \"host.cpu_some_ms\": {cpu_some_ms}, \
             \"serve.writer_late_ms\": {late_ms}}}"
        );
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        result_json(&outcome, table, args.trace)
    };
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod selftest {
    use super::*;

    /// A run small enough for `cargo test`: tiny graphs, one set-up and
    /// a fraction of a second per window.
    fn tiny(seed: u64, trace: bool) -> Plan {
        let mut plan = Plan::new(seed, 0.3, trace, data_dir().expect("test executable path"));
        plan.setups = 1;
        plan.job_scale = 0.05;
        plan.twitter_scale = 0.05;
        plan
    }

    #[test]
    fn every_metric_prints_with_its_unit() {
        for (i, workload) in WORKLOADS.into_iter().enumerate() {
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let plan = tiny(100 + 2 * i as u64 + trace as u64, trace);
                let outcome = workloads::run(workload, &plan).expect("tiny run");
                assert!(outcome.attempted > 0, "{workload}: no op attempted");
                assert_eq!(outcome.failed, 0, "{workload}: an op failed");
                assert!(outcome.min_ref_cores > 0, "{workload}: empty answer");
                let line = result_json(&outcome, table, trace).expect("every metric measured");
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
                for (name, unit) in table {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(
                        line.contains(&entry),
                        "{workload}: {name} missing in {line}"
                    );
                    let unit = format!("\"unit\": \"{unit}\"");
                    assert!(line.contains(&unit), "{workload}: unit {unit} missing");
                }
                assert_eq!(line.matches("\"value\"").count(), table.len());
            }
        }
    }

    #[test]
    fn a_wrong_reference_fails_every_op() {
        for (i, workload) in WORKLOADS.into_iter().enumerate() {
            let mut plan = tiny(200 + i as u64, false);
            plan.corrupt_reference = true;
            let outcome = workloads::run(workload, &plan).expect("tiny run");
            assert!(outcome.attempted > 0, "{workload}: no op attempted");
            assert!(!outcome.correct(), "{workload}: wrong reference passed");
            // serve-rw's writes are checked by generation, not against
            // the reference, so only its queries fail.
            assert_eq!(outcome.failed as usize, outcome.ops, "{workload}");
            let line = result_json(&outcome, END_TO_END, false).expect("metrics");
            assert!(line.starts_with("{\"correct\": false"), "{line}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let args = ok("--workload serve-rw --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.trace),
            ("serve-rw", 7, true)
        );
        assert!(ok("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(ok("--workload job-file --seed 7 --seconds 10 --trace 2").is_err());
        assert!(ok("--workload job-file --seed 7 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload job-file --seed 7 --trace 0").is_err());
        assert!(ok("--workload job-file --seed 7 --seconds 10 --trace 0 --extra 1").is_err());
    }
}

//! End-to-end self-test of the built binary at smoke size: the four
//! workloads with every output check green and the traced pass replaying
//! the untraced totals, and the driver contract's one-line JSON result
//! carrying exactly the declared metric names.

use std::path::PathBuf;
use std::process::Command;
use tapestry_benchmark::metrics::{END_TO_END, PER_LAYER};
use tapestry_benchmark::workloads::WORKLOADS;

/// Run the binary at smoke size with its trace files under a directory
/// of this test's own; returns (exit ok, stdout, that directory).
fn run(test: &str, args: &[&str]) -> (bool, String, PathBuf) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let out = Command::new(env!("CARGO_BIN_EXE_tapestry-benchmark"))
        .args(args)
        .arg("--smoke")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    (out.status.success(), String::from_utf8(out.stdout).expect("utf-8 output"), out_dir)
}

#[test]
fn smoke_pass_is_green_and_replays_on_every_workload() {
    let (ok, stdout, out_dir) = run("ledger", &[]);
    assert!(ok, "smoke pass failed:\n{stdout}");
    assert!(stdout.contains("all output checks ok"), "{stdout}");
    assert!(!stdout.contains("check FAIL"), "{stdout}");
    let replayed = stdout
        .lines()
        .filter(|l| {
            let mut f = l.split_whitespace();
            f.next() == Some("workload.runner.replay_match") && f.next() == Some("1.0000")
        })
        .count();
    assert_eq!(replayed, WORKLOADS.len(), "replay_match = 1 on all workloads:\n{stdout}");
    for m in &END_TO_END {
        let rows = stdout.lines().filter(|l| l.split_whitespace().next() == Some(m.name));
        assert_eq!(rows.count(), WORKLOADS.len(), "{} printed once per workload", m.name);
    }
    for w in &WORKLOADS {
        let trace = out_dir.join(format!("trace-{}.json", w.name));
        let text = std::fs::read_to_string(&trace).expect("traced pass wrote its spans");
        assert!(text.contains("\"name\":\"phase\"") && text.contains("\"aggregates\""));
    }
}

/// The metric names of a result line, in order: the key before every
/// `{"value": …}` object.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = result.split_once("\"metrics\": {").expect("metrics object").1;
    let mut chunks: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    chunks.pop(); // what follows the last key is its value, not a name
    chunks.iter().map(|c| c.rsplit_once('"').expect("quoted name").1.to_string()).collect()
}

/// The whole number after `"key": ` in a result line.
fn count(result: &str, key: &str) -> u64 {
    let rest = result.split_once(&format!("\"{key}\": ")).expect("key present").1;
    rest.split(',').next().expect("a value").parse().expect("a whole number")
}

#[test]
fn driver_result_lines_carry_exactly_the_declared_metrics() {
    for (trace, declared) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|l| l.name).collect::<Vec<_>>()),
    ] {
        let args =
            ["--workload", "churn-repair", "--seed", "3", "--seconds", "1", "--trace", trace];
        let (ok, stdout, _) = run(&format!("driver{trace}"), &args);
        assert!(ok, "{stdout}");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        // Failures are counted against attempts: the operations the
        // unannounced kills cost are reported, never masked to 0.
        let (attempted, failed) = (count(last, "attempted"), count(last, "failed"));
        assert!(0 < failed && failed < attempted / 10, "{last}");
        assert_eq!(metric_names(last), declared, "--trace {trace}");
        assert!(!last.contains("NaN") && !last.contains("inf"), "{last}");
    }
}

#[test]
fn unknown_workloads_are_refused_without_a_result() {
    let (ok, stdout, _) = run("refused", &["--workload", "no-such-workload", "--trace", "0"]);
    assert!(!ok && stdout.is_empty());
}

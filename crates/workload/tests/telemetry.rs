//! Telemetry determinism and registry coverage: the trace and metrics
//! JSON artifacts must be byte-identical across runs of the same spec
//! (the same contract as the reports), and every counter a report prints
//! must carry a registry name.

use std::collections::BTreeSet;
use tapestry_trace::metrics;
use tapestry_workload::{presets, runner};

/// Sim-time units per metrics sample in these tests (1024 distance
/// units — a handful of samples per phase at test scale).
const WINDOW: u64 = 1 << 20;

#[test]
fn trace_and_metrics_json_are_byte_identical_across_runs() {
    let spec =
        presets::preset("churn-storm", 24, 150, 9).unwrap().trace_sample(4).metrics_window(WINDOW);
    let (report1, _, _, tel1) = runner::run_instrumented(&spec).unwrap();
    let trace1 = tel1.trace_json().expect("tracing on");
    let metrics1 = tel1.metrics_json().expect("sampler on");
    assert!(trace1.contains("\"kind\":\"locate\""), "sampled locates traced: {trace1}");
    assert!(trace1.contains("\"kind\":\"join\""), "joins traced under churn");
    assert!(metrics1.contains("\"samples\":[{"), "series non-empty");
    assert!(metrics1.starts_with(r#"{"schema":"tapestry-metrics/v3","#), "{metrics1}");
    let depths: Vec<u64> = tel1.samples.iter().map(|s| s.queue_depth).collect();
    assert!(depths.iter().any(|&d| d > 0), "events pending mid-run: {depths:?}");
    assert_eq!(depths.last(), Some(&0), "the run drains to idle: {depths:?}");
    let (report2, _, _, tel2) = runner::run_instrumented(&spec).unwrap();
    assert_eq!(report1.to_json(), report2.to_json(), "report on a repeat run");
    assert_eq!(trace1, tel2.trace_json().unwrap(), "trace JSON on a repeat run");
    assert_eq!(metrics1, tel2.metrics_json().unwrap(), "metrics JSON on a repeat run");
}

#[test]
fn telemetry_off_by_default_and_costs_nothing_in_the_artifacts() {
    let spec = presets::preset("steady-zipf", 16, 60, 2).unwrap();
    let (_, _, _, tel) = runner::run_instrumented(&spec).unwrap();
    assert!(tel.trace.is_none());
    assert!(tel.samples.is_empty());
    assert!(tel.trace_json().is_none());
    assert!(tel.metrics_json().is_none());
}

#[test]
fn tracing_does_not_change_the_deterministic_report() {
    // The collector observes; it must never perturb the schedule. A run
    // with tracing and sampling on produces the same report bytes as one
    // without.
    let base = presets::preset("flash-crowd", 24, 120, 11).unwrap();
    let traced =
        presets::preset("flash-crowd", 24, 120, 11).unwrap().trace_sample(2).metrics_window(WINDOW);
    let plain = runner::run(&base).unwrap();
    let (instrumented, _, _, _) = runner::run_instrumented(&traced).unwrap();
    assert_eq!(plain.to_json(), instrumented.to_json());
}

#[test]
fn every_phase_counter_key_is_a_registered_counter_name() {
    // Drive a churny scenario (joins, kills, probes, repair) so most of
    // the protocol's counters move.
    let spec = presets::preset("churn-storm", 24, 150, 9).unwrap();
    let report = runner::run(&spec).unwrap();
    let names: BTreeSet<&str> = metrics::counters().map(|c| c.name()).collect();
    let keys: BTreeSet<&str> =
        report.phases.iter().flat_map(|p| p.counters.keys()).map(String::as_str).collect();
    assert!(keys.is_subset(&names), "unregistered: {:?}", keys.difference(&names));
    assert!(keys.len() > 10, "a churny run should move many counters, saw {}", keys.len());
}

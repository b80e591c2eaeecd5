//! `BENCHMARK.json` is generated from the metric and workload tables; the
//! committed file must equal the generated one, and the names must fit
//! the benchmark contract.

use std::collections::BTreeSet;
use tapestry_benchmark::metrics::{manifest_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use tapestry_benchmark::workloads::{build, Size, WORKLOADS};

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    // Not assert_eq: a mismatch would print both 8 KB files.
    assert!(
        committed == manifest_json(),
        "BENCHMARK.json is stale: regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
    );
}

#[test]
fn names_units_and_counts_fit_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));

    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']), "{}", w.name);
        assert!(w.why.is_ascii(), "{}", w.name);
        assert!(seen.insert(w.name), "{} used twice", w.name);
        for size in [Size::Full, Size::Smoke] {
            let spec = build(w.name, 1, size).expect("every listed workload builds");
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(spec.threads, 1, "all load comes from one thread");
        }
    }
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
    {
        assert!(name_ok(name), "{name}");
        assert!(unit_ok(unit), "{name}: unit {unit}");
        assert!(seen.insert(name), "{name} used twice");
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "set-up time carries the largest bound");
    assert!(manifest_json().len() <= 64 * 1024);
}

#[test]
fn smoke_sizes_stay_small() {
    for w in &WORKLOADS {
        let spec = build(w.name, 1, Size::Smoke).unwrap();
        assert_eq!(spec.initial_nodes, 256);
        let ops: u64 = spec.phases.iter().map(|p| p.traffic.arrival.expected_ops()).sum();
        assert!(ops <= 3_000, "{}: {ops} ops", w.name);
    }
}

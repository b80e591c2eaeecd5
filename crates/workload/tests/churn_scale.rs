//! The `churn-scale` preset family: batched joins must complete through
//! shared multicast waves, reports must stay deterministic across
//! repeats and thread counts, and the batched/unbatched siblings must
//! run the same churn schedule (the unbatched one as solo joins, each a
//! wave of one).

use tapestry_trace::metrics;
use tapestry_workload::{presets, runner};

/// Scaled-down churn-scale run (the preset family itself starts at 1k;
/// tests shrink it through the same constructor).
fn spec(nodes: usize, batched: bool, threads: usize) -> tapestry_workload::ScenarioSpec {
    presets::churn_scale_preset(nodes, 400, 11, threads, batched)
}

#[test]
fn batched_joins_complete_through_shared_waves() {
    let report = runner::run(&spec(96, true, 1)).expect("churn-scale runs");
    let churn_phase = &report.phases[1];
    assert!(churn_phase.churn.joins_ok > 0, "batched joins completed: {churn_phase:?}");
    // The waves actually ran: wave + per-wave insertee counters moved.
    let waves = churn_phase.counter(metrics::MULTICAST_BATCH_WAVES);
    let carried = churn_phase.counter(metrics::MULTICAST_BATCH_INSERTEES);
    assert!(waves > 0, "no shared wave launched: {:?}", churn_phase.counters);
    assert!(carried >= waves, "waves carried insertees");
    // Join-cost accounting flowed into the report.
    assert!(churn_phase.counter(metrics::JOIN_MESSAGES) > 0);
    // The settle phase's spot-checks still pass under batched admission.
    let inv = report.phases[2].invariants.expect("checked settle phase");
    assert_eq!(inv.roots_unique, inv.roots_sampled, "Theorem 2 after batched churn");
}

#[test]
fn unbatched_sibling_runs_same_schedule_solo() {
    let report = runner::run(&spec(96, false, 1)).expect("churn-scale-seq runs");
    let churn_phase = &report.phases[1];
    assert!(churn_phase.churn.joins_ok > 0, "solo joins completed");
    // Nothing coalesces: every join started runs its own wave of one.
    let started = churn_phase.counter(metrics::INSERT_STARTED);
    let waves = churn_phase.counter(metrics::MULTICAST_BATCH_WAVES);
    let joins = churn_phase.counter(metrics::MULTICAST_BATCH_JOINS);
    assert_eq!((waves, joins), (started, started), "{:?}", churn_phase.counters);
    assert!(churn_phase.counter(metrics::JOIN_MESSAGES) > 0);
}

#[test]
fn churn_scale_is_deterministic_across_repeats_and_threads() {
    let run = |threads: usize| {
        let (report, totals, ..) =
            runner::run_instrumented(&spec(128, true, threads)).expect("runs");
        (report.to_json(), totals)
    };
    let (json1, totals1) = run(1);
    let (json1b, totals1b) = run(1);
    assert_eq!(json1, json1b, "repeat determinism");
    assert_eq!(totals1, totals1b);
    let (json4, totals4) = run(4);
    assert_eq!(json1, json4, "thread-count determinism (the CI matrix contract)");
    assert_eq!(totals1, totals4);
}

#[test]
fn churn_scale_presets_validate_at_every_committed_size() {
    for &n in presets::CHURN_SCALE_SIZES {
        for batched in [true, false] {
            let spec = presets::churn_scale_preset(n, 2000, 42, 4, batched);
            spec.validate().unwrap_or_else(|e| panic!("churn-scale({n}, {batched}): {e}"));
            assert_eq!(spec.initial_nodes, n);
            assert!(spec.capacity > n, "room for the joins");
            assert_eq!(spec.join_batch.is_some(), batched);
            assert_eq!(spec.probe_rounds(), 2, "one probe in the churn phase, one in settle");
        }
    }
    // The derived join budget (satellite: no more hard-coded toy cap)
    // admits the 25k and 100k points.
    assert!(presets::churn_scale_joins(25_000) >= 1_000);
    assert!(presets::churn_scale_joins(100_000) >= 2_000);
}

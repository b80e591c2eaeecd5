//! Large-scale determinism and throughput-reporting tests for the
//! `scale` preset family: repeat runs of the indexed bootstrap and
//! invariant checks must leave simulated behaviour bit-identical, and the
//! engine totals the scale sweep reports must be deterministic too.

use tapestry_workload::{presets, runner};

/// Same seed ⇒ byte-identical report at 1000 nodes. This is the
/// large-scale companion of the 24-node determinism test: it drives the
/// prefix-grouped bootstrap and the indexed Property 1/2 checks over a
/// population big enough that every grid-bucket code path (ring
/// expansion, wrapped seams, group indexes at every level) is exercised.
#[test]
fn thousand_node_snapshot_determinism() {
    let run = || {
        let spec = presets::scale_preset(1000, 300, 42, presets::ScaleSpace::Torus);
        let (report, totals, ..) = runner::run_instrumented(&spec).expect("scale scenario runs");
        (report, totals)
    };
    let (report_a, totals_a) = run();
    let (report_b, totals_b) = run();
    assert_eq!(report_a.to_json(), report_b.to_json(), "1k-node report must be byte-identical");
    assert_eq!(totals_a, totals_b, "engine totals must be deterministic");

    // The run actually did large-scale work.
    assert_eq!(report_a.initial_nodes, 1000);
    assert!(report_a.total_ops.found_live > 0, "traffic flowed");
    assert_eq!(report_a.total_ops.lost, 0, "static membership loses nothing");
    let steady = report_a.phases.last().unwrap();
    let inv = steady.invariants.expect("checked phase");
    assert_eq!(inv.prop1_violations, 0, "static build satisfies Property 1");
    assert_eq!(inv.prop2_optimal, inv.prop2_total, "static build is locality-perfect");
    assert_eq!(inv.roots_unique, inv.roots_sampled, "Theorem 2 at 1k nodes");
}

/// The totals channel reports engine-level throughput figures that the
/// deterministic report deliberately omits.
#[test]
fn run_totals_report_engine_work() {
    let spec = presets::scale_preset(1000, 300, 7, presets::ScaleSpace::Torus);
    let (report, totals, ..) = runner::run_instrumented(&spec).expect("runs");
    assert!(totals.events > 0);
    assert!(
        totals.events >= totals.messages + totals.timers,
        "every send and timer is popped as an event: {totals:?}"
    );
    assert!(totals.peak_table_entries > 0);
    assert_eq!(totals.final_nodes, 1000);
    // Totals and report describe the same run: the report counts only
    // in-phase messages, the totals count the whole run (catalog
    // publication included), so totals must dominate and both be live.
    assert!(report.total_messages > 0);
    assert!(
        totals.messages > report.total_messages,
        "whole-run messages ({}) must exceed the in-phase count ({})",
        totals.messages,
        report.total_messages
    );
}

/// The grid variant of the scale family runs and stays deterministic
/// (exercises the L1 bucket index with its exact distance ties).
#[test]
fn scale_grid_variant_is_deterministic() {
    let run = || {
        let spec = presets::scale_preset(256, 150, 13, presets::ScaleSpace::Grid);
        runner::run(&spec).expect("grid scale runs").to_json()
    };
    assert_eq!(run(), run());
}

/// The transit-stub scale point: runs, checks out, and stays
/// deterministic across repeats (the §6.3 substrate's first large-n
/// trajectory coverage).
#[test]
fn transit_stub_scale_point_is_deterministic() {
    let run = || {
        let spec = presets::scale_preset(256, 150, 21, presets::ScaleSpace::TransitStub);
        runner::run(&spec).expect("transit-stub scale runs").to_json()
    };
    let a = run();
    assert_eq!(a, run(), "repeat determinism");
    assert!(a.contains("transit-stub(8x4x8)"), "space label records the shape: {a}");
}

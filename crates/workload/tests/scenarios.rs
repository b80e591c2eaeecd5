//! End-to-end tests of the scenario runner: determinism, percentile
//! harvesting, churn/partition visibility in the report, and the
//! invariant spot-checks.

use tapestry_sim::SimTime;
use tapestry_trace::metrics;
use tapestry_workload::{presets, runner, Arrival, ChurnSpec, PhaseSpec, Popularity, ScenarioSpec};

fn d(units: f64) -> SimTime {
    SimTime::from_distance(units)
}

#[test]
fn steady_scenario_reports_clean_invariants_and_percentiles() {
    let spec = presets::preset("steady-zipf", 32, 200, 7).unwrap();
    let report = runner::run(&spec).expect("runs");
    assert_eq!(report.phases.len(), 2);
    let steady = &report.phases[1];
    assert!(steady.ops.completed > 0, "traffic must flow");
    assert_eq!(steady.ops.lost, 0, "no churn, nothing lost");
    assert_eq!(steady.ops.found_dead, 0);
    // Every completed locate on a static network finds the object.
    assert_eq!(steady.ops.found_live + steady.ops.not_found, steady.ops.completed);
    assert_eq!(steady.ops.not_found, 0);
    // Percentiles are populated and ordered.
    assert!(steady.latency.p50 > 0.0);
    assert!(steady.latency.p50 <= steady.latency.p90);
    assert!(steady.latency.p90 <= steady.latency.p99);
    assert!(steady.latency.p99 <= steady.latency.p999);
    assert!(steady.hops.p50 >= 1.0);
    // Invariants hold on a quiescent, churn-free network.
    let inv = steady.invariants.expect("checked phase");
    assert_eq!(inv.prop1_violations, 0);
    assert_eq!(inv.prop2_optimal, inv.prop2_total, "static build is locality-perfect");
    assert_eq!(inv.roots_unique, inv.roots_sampled, "Theorem 2");
}

#[test]
fn reports_are_bit_identical_across_runs() {
    for name in ["flash-crowd", "churn-storm"] {
        let a = runner::run(&presets::preset(name, 24, 120, 11).unwrap()).unwrap();
        let b = runner::run(&presets::preset(name, 24, 120, 11).unwrap()).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "{name} must be deterministic");
    }
    // A different seed must actually change the run.
    let c = runner::run(&presets::preset("flash-crowd", 24, 120, 12).unwrap()).unwrap();
    let a = runner::run(&presets::preset("flash-crowd", 24, 120, 11).unwrap()).unwrap();
    assert_ne!(a.to_json(), c.to_json(), "seed must matter");
}

#[test]
fn partition_loses_ops_and_heal_recovers() {
    let spec = ScenarioSpec::new("partition-test")
        .seed(5)
        .capacity(32)
        .initial_nodes(32)
        .objects(16)
        .phase(
            PhaseSpec::new("cut", d(40_000.0))
                .arrival(Arrival::Even { ops: 120 })
                .popularity(Popularity::Uniform)
                .churn(ChurnSpec::Partition { at: 0.05, heal_at: 0.75 }),
        )
        .phase(
            PhaseSpec::new("after", d(20_000.0))
                .arrival(Arrival::Even { ops: 60 })
                .popularity(Popularity::Uniform)
                .checked(),
        );
    let report = runner::run(&spec).unwrap();
    let cut = &report.phases[0];
    assert_eq!(cut.churn.partitions, 1);
    assert_eq!(cut.churn.heals, 1);
    assert!(cut.partition_dropped > 0, "the cut must drop traffic");
    assert!(cut.ops.lost > 0, "cross-cut locates never complete");
    assert!(cut.invariants.is_none(), "unchecked phase");
    let after = &report.phases[1];
    assert_eq!(after.ops.lost, 0, "healed network loses nothing");
    assert_eq!(after.partition_dropped, 0);
    let inv = after.invariants.expect("checked");
    assert_eq!(inv.roots_unique, inv.roots_sampled, "Theorem 2 holds after heal");
}

/// A probe round inside the cut makes each side certify the other as
/// dead and excise it. The first round after the heal re-checks those
/// certificates, the crossing pings readmit both sides, and the mesh
/// returns to the table it had before the cut.
#[test]
fn partition_heal_reconverges_after_a_probe_in_the_cut() {
    let warmup_entries = [43.969, 45.344, 45.344, 48.656, 44.375];
    for (seed, want) in (42..=46).zip(warmup_entries) {
        let mut spec = presets::preset("partition-heal", 64, 500, seed).unwrap();
        let cut = &mut spec.phases[1];
        assert_eq!(cut.name, "partitioned");
        for c in &mut cut.churn {
            if let ChurnSpec::ProbeAt { at } = c {
                *at = 0.3;
            }
        }
        let report = runner::run(&spec).unwrap();
        let warmup = &report.phases[0];
        let recovery = report.phases.last().unwrap();
        let f3 = |x: f64| (x * 1000.0).round() / 1000.0;
        assert_eq!(f3(warmup.avg_table_entries), want, "seed {seed}: warmup");
        assert_eq!(
            recovery.avg_table_entries, warmup.avg_table_entries,
            "seed {seed}: the healed mesh has its warmup table back"
        );
        let inv = recovery.invariants.expect("checked recovery");
        assert_eq!(inv.prop1_violations, 0, "seed {seed}: {inv:?}");
        assert_eq!((inv.roots_unique, inv.roots_sampled), (7, 7), "seed {seed}: Theorem 2");
    }
}

#[test]
fn mass_failure_surfaces_drops_and_unreachability() {
    let report = runner::run(&presets::preset("mass-failure", 32, 200, 3).unwrap()).unwrap();
    let failure = &report.phases[1];
    assert!(failure.churn.kills >= 6, "a quarter of 32 nodes should die: {:?}", failure.churn);
    assert!(failure.nodes_end < failure.nodes_start);
    assert!(failure.dropped > 0, "messages to dead nodes must show up as drops");
    // The emitter surfaces unreachability, not just cost: at least one of
    // the failure-visibility signals must fire.
    let visible = failure.ops.lost + failure.ops.not_found + failure.ops.found_dead;
    assert!(visible > 0, "churn must be visible in op outcomes: {:?}", failure.ops);
    // Repair counters moved (probe rounds ran).
    assert!(failure.counter(metrics::REPAIR_PINGS) > 0, "{:?}", failure.counters);
}

#[test]
fn churn_storm_grows_and_shrinks_membership() {
    let report = runner::run(&presets::preset("churn-storm", 24, 150, 9).unwrap()).unwrap();
    let storm = &report.phases[1];
    assert!(storm.churn.joins_ok + storm.churn.joins_failed > 0, "joins happened");
    assert!(storm.churn.kills > 0, "kills happened");
    assert!(
        storm.counter(metrics::INSERT_CHAINED_TRANSFERS) + storm.counter(metrics::PUBLISH_ROOTED)
            > 0,
        "protocol counters recorded: {:?}",
        storm.counters
    );
    let recovery = report.phases.last().unwrap();
    let inv = recovery.invariants.expect("checked recovery");
    assert_eq!(inv.roots_unique, inv.roots_sampled, "Theorem 2 after recovery");
    // Lazy repair + optimization keep locality high even after the storm.
    assert!(
        inv.prop2_optimal as f64 >= 0.8 * inv.prop2_total as f64,
        "Property 2 should mostly hold after recovery: {inv:?}"
    );
}

#[test]
fn node_count_schedule_ramps_membership() {
    let spec = ScenarioSpec::new("ramp")
        .seed(21)
        .capacity(48)
        .initial_nodes(24)
        .objects(8)
        .phase(
            PhaseSpec::new("grow", d(40_000.0)).arrival(Arrival::Even { ops: 40 }).target_nodes(36),
        )
        .phase(
            PhaseSpec::new("shrink", d(40_000.0))
                .arrival(Arrival::Even { ops: 40 })
                .target_nodes(28)
                .checked(),
        );
    let report = runner::run(&spec).unwrap();
    assert_eq!(report.phases[0].nodes_end, 36, "grow phase reaches its target");
    assert_eq!(report.phases[1].nodes_end, 28, "shrink phase reaches its target");
    assert_eq!(report.phases[0].churn.joins_ok, 12);
    assert_eq!(report.phases[1].churn.graceful_leaves, 8);
}

#[test]
fn runner_mirrors_distributions_into_simstats() {
    // The runner records every harvested op into the engine's named
    // histograms; a tiny scenario must leave them populated and equal in
    // count to the report's totals.
    let spec = presets::preset("steady-zipf", 16, 60, 2).unwrap();
    let report = runner::run(&spec).unwrap();
    assert!(report.total_ops.completed > 0);
    assert_eq!(report.total_latency.count, report.total_ops.completed);
    assert_eq!(report.total_hops.count, report.total_ops.completed);
}

//! Cross-crate integration: the workload subsystem driving the full
//! facade stack (`tapestry::workload` → `tapestry::core` →
//! `tapestry::sim`), plus the facade-level hook the runner depends on
//! (partition-aware delivery).

use tapestry::prelude::*;
use tapestry::workload::{presets, runner};

#[test]
fn preset_reports_are_reproducible_through_the_facade() {
    let run = |seed| {
        let spec = presets::preset("steady-zipf", 24, 120, seed).expect("preset");
        runner::run(&spec).expect("runs").to_json()
    };
    assert_eq!(run(3), run(3), "same seed, same bytes");
    assert_ne!(run(3), run(4), "different seed, different run");
}

#[test]
fn partition_facade_cuts_and_heals_delivery() {
    let mut net = TapestryNetwork::build(
        TapestryConfig::default(),
        Box::new(TorusSpace::random(32, 1000.0, 8)),
        8,
    );
    let members = net.node_ids();
    let groups = net.partition_around(members[0]);
    assert!(net.partition_active());

    // A server on side 1 publishing an object whose root sits on side 0:
    // the publish must cross the cut and silently die there.
    let server = members.iter().copied().find(|&m| groups[m] == 1).expect("side 1");
    let guid = loop {
        let g = net.random_guid();
        if groups[net.root_of(g, 0)] == 0 {
            break g;
        }
    };
    net.publish(server, guid);
    assert!(net.engine().stats().partition_dropped > 0, "publish crossed the cut");

    // No origin on side 0 can find the object: its side never saw a
    // pointer. Each locate is either lost at the cut or completes empty.
    let side0: Vec<_> = members.iter().copied().filter(|&m| groups[m] == 0).collect();
    for &origin in &side0 {
        // `None` means the locate itself was lost at the cut.
        if let Some(r) = net.locate(origin, guid) {
            assert!(r.server.is_none(), "side 0 must not see the object");
        }
    }

    // Heal, republish, and everyone finds it again.
    net.heal_partition();
    net.publish(server, guid);
    for &origin in &side0 {
        let r = net.locate(origin, guid).expect("completes after heal");
        assert_eq!(r.server.expect("found").idx, server);
    }
}

#[test]
fn scenario_histograms_flow_into_sim_stats() {
    // The runner mirrors per-op distributions into the engine's named
    // histograms; check the same machinery is reachable for any driver
    // through the facade.
    let mut h = Histogram::new();
    for v in [512u64, 1024, 2048, 65536] {
        h.record(v);
    }
    assert_eq!(h.count(), 4);
    assert!(h.p999() >= h.p50());

    let spec = presets::preset("flash-crowd", 16, 80, 5).expect("preset");
    let report = runner::run(&spec).expect("runs");
    assert!(report.total_ops.completed > 0);
    assert_eq!(report.total_latency.count, report.total_ops.completed);
    // Flash-crowd traffic keeps locality: p50 hops stays small on 16 nodes.
    assert!(report.total_hops.p50 <= 4.0);
}

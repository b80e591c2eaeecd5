//! Tests of the maintenance machinery: §6.4 continual optimization,
//! Observation 1 multi-root fault tolerance, pointer hygiene (Fig. 9) and
//! §5.2 probe acks that miss their deadline.

use tapestry_core::{Msg, TapestryConfig, TapestryNetwork, WirePtr};
use tapestry_metric::TorusSpace;
use tapestry_sim::SimTime;
use tapestry_trace::metrics;

#[test]
fn table_sharing_restores_locality_after_churn() {
    // Degrade Property 2 with churn, then run §6.4 rounds and require the
    // optimal-primary fraction to improve.
    let space = TorusSpace::random(72, 1000.0, 51);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), 51, 48);
    for idx in 48..72 {
        assert!(net.insert_node(idx));
    }
    for _ in 0..4 {
        let victim = net.node_ids()[3];
        net.kill(victim);
        net.probe_all();
    }
    let (opt_before, tot_before) = net.check_property2();
    net.optimize_all();
    let (opt_after, tot_after) = net.check_property2();
    let before = opt_before as f64 / tot_before.max(1) as f64;
    let after = opt_after as f64 / tot_after.max(1) as f64;
    assert!(
        after >= before - 1e-9,
        "optimization must not degrade locality: {before:.3} → {after:.3}"
    );
    assert!(after > 0.95, "post-optimization locality too weak: {after:.3}");
}

#[test]
fn multi_root_queries_survive_root_failure_observation1() {
    let cfg = TapestryConfig { roots_per_object: 3, ..Default::default() };
    let space = TorusSpace::random(96, 1000.0, 52);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 52);
    let members = net.node_ids();
    let server = members[5];
    let guid = net.random_guid();
    net.publish(server, guid);
    // Kill the primary root (root index 0), without repair.
    let root0 = net.root_of(guid, 0);
    assert_ne!(root0, server, "test needs the root elsewhere");
    net.kill(root0);
    // Retried queries reach the object through the other roots.
    let mut ok = 0;
    for &origin in members.iter().take(24) {
        if origin == root0 || origin == server {
            continue;
        }
        if net.locate_retry(origin, guid, 6).is_some() {
            ok += 1;
        }
    }
    assert!(ok >= 20, "multi-root retry should tolerate a dead root, got {ok}/22");
}

#[test]
fn single_root_queries_can_lose_the_root() {
    // Contrast with the above: |R_Φ| = 1 and a dead root makes the object
    // unreachable until repair — exactly why Observation 1 exists.
    let space = TorusSpace::random(64, 1000.0, 53);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 53);
    let members = net.node_ids();
    let server = members[5];
    let guid = net.random_guid();
    net.publish(server, guid);
    let root0 = net.root_of(guid, 0);
    if root0 == server {
        return; // degenerate draw; nothing to assert
    }
    net.kill(root0);
    // Queries whose path needs the dead root are lost (dropped messages),
    // so at least one origin fails before repair.
    let mut failures = 0;
    for &origin in members.iter().take(16) {
        if origin == root0 || origin == server {
            continue;
        }
        match net.locate(origin, guid) {
            Some(r) if r.server.is_some() => {}
            _ => failures += 1,
        }
    }
    // After lazy repair + republish, everyone succeeds again.
    net.probe_all();
    for &origin in members.iter().take(16) {
        if origin == root0 || origin == server {
            continue;
        }
        let r = net.locate(origin, guid).expect("completes after repair");
        assert!(r.server.is_some(), "object must be reachable after repair");
    }
    assert!(failures > 0, "killing the only root should hurt before repair");
}

#[test]
fn delete_pointers_backward_cleans_the_recorded_path() {
    // Fig. 9's DeletePointersBackward walks the recorded previous hops.
    // Drive the walk from the root: the entries must be removed along the
    // entire publish path, and a fresh publish restores service.
    let space = TorusSpace::random(48, 1000.0, 59);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 59);
    let server = net.node_ids()[7];
    let guid = net.random_guid();
    net.publish(server, guid);
    let root = net.root_of(guid, 0);
    let holders = |net: &TapestryNetwork| -> Vec<usize> {
        net.node_ids()
            .into_iter()
            .filter(|&m| net.node(m).unwrap().store().iter().any(|(g, _)| g == guid))
            .collect()
    };
    let path_holders = holders(&net);
    assert!(path_holders.len() >= 2, "publish leaves a path: {path_holders:?}");

    // Start the backward walk at the root.
    let server_ref = net.ref_of(server);
    let deleted_before = metrics::OPTIMIZE_DELETED.read(net.engine().stats());
    net.engine_mut().inject(
        root,
        Msg::DeleteBackward { ptr: WirePtr { guid, server: server_ref }, changed: usize::MAX },
    );
    net.run_to_idle();
    assert!(
        holders(&net).is_empty(),
        "entries must be removed along the whole path: {:?}",
        holders(&net)
    );
    let deleted = metrics::OPTIMIZE_DELETED.read(net.engine().stats()) - deleted_before;
    assert!(
        deleted as usize >= path_holders.len(),
        "each path holder deletes once: {deleted} < {}",
        path_holders.len()
    );
    // The replica itself was never deleted — a republish restores service.
    assert!(net.node(server).unwrap().store().has_local(guid));
    net.publish(server, guid);
    let r = net.locate(net.node_ids()[11], guid).expect("completes");
    assert!(r.server.is_some(), "republish after cleanup restores reachability");
}

#[test]
fn a_probe_ack_after_its_own_rounds_deadline_readmits_the_neighbor() {
    // A deadline far shorter than any round trip: every neighbor is
    // declared dead, and every ack then arrives late, carrying the
    // *current* round's nonce. Each must be read as a late ack that
    // lifts the death certificate, not dropped for missing the (already
    // cleared) awaited set — which would leave the live mesh excised.
    let cfg =
        TapestryConfig { insert_level_timeout: SimTime::from_distance(1.0), ..Default::default() };
    let space = TorusSpace::random(16, 1000.0, 7);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 7);
    let tables = |net: &TapestryNetwork| -> Vec<_> {
        net.node_ids().into_iter().map(|m| net.node(m).unwrap().table().all_refs()).collect()
    };
    let before = tables(&net);
    let refs: usize = before.iter().map(Vec::len).sum();
    assert_eq!(refs, 16 * 15, "a 16-node base-16 mesh: everyone knows everyone");
    net.probe_all();
    let stats = net.engine().stats();
    assert_eq!(metrics::REPAIR_DETECTED_DEAD.read(stats), refs as u64, "every ack missed");
    assert_eq!(metrics::REPAIR_FACT_LATE_ACK.read(stats), refs as u64, "every ack came late");
    assert_eq!(metrics::REPAIR_READMITTED.read(stats), refs as u64);
    assert_eq!(tables(&net), before, "every live neighbor is back where it was");
}

#[test]
fn optimize_round_is_idempotent_on_fresh_networks() {
    // On a statically built network Property 2 is already perfect; the
    // §6.4 round must not disturb it.
    let space = TorusSpace::random(64, 1000.0, 56);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 56);
    let before = net.check_property2();
    net.optimize_all();
    let after = net.check_property2();
    assert_eq!(before.0, before.1);
    assert_eq!(after.0, after.1, "still perfect after sharing");
    assert!(net.check_property1().is_empty());
}

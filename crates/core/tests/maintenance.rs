//! Tests of the maintenance machinery: §6.4 continual optimization,
//! Observation 1 multi-root fault tolerance, soft-state republish timers,
//! pointer hygiene (Fig. 9) and §5.2 probe acks that miss their deadline.

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
fn republish_timer_refreshes_soft_state() {
    // With a short TTL and an automatic republish interval, pointers stay
    // alive across many TTL windows without any driver action.
    let cfg = TapestryConfig {
        pointer_ttl: SimTime::from_distance(40_000.0),
        republish_interval: SimTime::from_distance(15_000.0),
        ..Default::default()
    };
    let space = TorusSpace::random(48, 1000.0, 54);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 54);
    let members = net.node_ids();
    let server = members[7];
    let guid = net.random_guid();
    net.publish_async(server, guid);
    // Advance well past several TTL windows, letting timers fire.
    let deadline = net.engine().now() + SimTime::from_distance(200_000.0);
    net.run_until(deadline);
    let r = net.locate(members[20], guid).expect("completes");
    assert!(r.server.is_some(), "republish must keep soft state alive");
}

#[test]
fn expired_pointers_vanish_without_republish() {
    let cfg = TapestryConfig {
        pointer_ttl: SimTime::from_distance(40_000.0),
        republish_interval: SimTime::ZERO, // republish disabled
        ..Default::default()
    };
    let space = TorusSpace::random(48, 1000.0, 55);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 55);
    let members = net.node_ids();
    let server = members[7];
    let guid = net.random_guid();
    net.publish(server, guid);
    let deadline = net.engine().now() + SimTime::from_distance(80_000.0);
    net.run_until(deadline);
    let r = net.locate(members[20], guid).expect("completes");
    assert!(r.server.is_none(), "pointers must lapse after their TTL (§2.2)");
}

#[test]
fn expiry_without_republish_physically_removes_pointers() {
    // §2.2 soft state, storage side: once the TTL passes, the pointers
    // are not just invisible to lookups — the sweep reclaims the space.
    let cfg = TapestryConfig {
        pointer_ttl: SimTime::from_distance(40_000.0),
        republish_interval: SimTime::ZERO,
        ..Default::default()
    };
    let space = TorusSpace::random(48, 1000.0, 57);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 57);
    let server = net.node_ids()[3];
    let guid = net.random_guid();
    net.publish(server, guid);
    let root = net.root_of(guid, 0);
    assert!(net.node(root).unwrap().store().lookup(guid, net.engine().now()).count() > 0);

    let deadline = net.engine().now() + SimTime::from_distance(80_000.0);
    net.run_until(deadline);
    let now = net.engine().now();
    // Logically gone everywhere...
    for m in net.node_ids() {
        assert_eq!(
            net.node(m).unwrap().store().lookup(guid, now).count(),
            0,
            "expired pointer still visible at node {m}"
        );
    }
    // ...and physically reclaimed by the sweep.
    let before = net.node(root).unwrap().store().ptr_count();
    assert!(before > 0, "expired entries linger until swept");
    let swept = net.node_mut(root).unwrap().store_mut().sweep(now);
    assert!(swept > 0);
    assert!(net.node(root).unwrap().store().ptr_count() < before);
}

#[test]
fn republish_refreshes_pointer_expiry_in_place() {
    // A republish arriving along the same path must extend `expires` on
    // the existing entries rather than duplicating them.
    let cfg = TapestryConfig {
        pointer_ttl: SimTime::from_distance(40_000.0),
        republish_interval: SimTime::ZERO, // manual republish below
        ..Default::default()
    };
    let space = TorusSpace::random(48, 1000.0, 58);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 58);
    let server = net.node_ids()[5];
    let guid = net.random_guid();
    net.publish(server, guid);
    let root = net.root_of(guid, 0);
    let read_entry = |net: &TapestryNetwork| {
        let node = net.node(root).unwrap();
        let entries: Vec<_> =
            node.store().iter().filter(|&(g, _)| g == guid).map(|(_, e)| *e).collect();
        assert_eq!(entries.len(), 1, "one server, one entry");
        entries[0]
    };
    let first = read_entry(&net);

    // Let half the TTL elapse, then republish.
    let halfway = net.engine().now() + SimTime::from_distance(20_000.0);
    net.run_until(halfway);
    net.publish(server, guid);
    let refreshed = read_entry(&net);
    assert!(
        refreshed.expires > first.expires,
        "republish must push the deadline out: {:?} → {:?}",
        first.expires,
        refreshed.expires
    );
    // And the object stays reachable past the original deadline.
    let past_first_ttl = first.expires + SimTime(1);
    net.run_until(past_first_ttl);
    let origin = net.node_ids()[20];
    let r = net.locate(origin, guid).expect("completes");
    assert!(r.server.is_some(), "refreshed soft state must outlive the first TTL");
}

#[test]
fn delete_pointers_backward_cleans_expired_path_state() {
    // Fig. 9's DeletePointersBackward walks the recorded previous hops.
    // Drive the walk from the root after the pointers have expired: the
    // stale entries must be physically removed along the entire publish
    // path, and a fresh publish restores service.
    let cfg = TapestryConfig {
        pointer_ttl: SimTime::from_distance(40_000.0),
        republish_interval: SimTime::ZERO,
        ..Default::default()
    };
    let space = TorusSpace::random(48, 1000.0, 59);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 59);
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

    // Expire the soft state, then start the backward walk at the root.
    let deadline = net.engine().now() + SimTime::from_distance(80_000.0);
    net.run_until(deadline);
    let server_ref = net.ref_of(server);
    let deleted_before = metrics::OPTIMIZE_DELETED.read(net.engine().stats());
    net.engine_mut().inject(
        root,
        Msg::DeleteBackward { ptr: WirePtr { guid, server: server_ref }, changed: usize::MAX },
    );
    net.run_to_idle();
    assert!(
        holders(&net).is_empty(),
        "expired entries must be removed along the whole path: {:?}",
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

//! Tests of the maintenance machinery: §6.4 continual optimization,
//! Observation 1 multi-root fault tolerance, pointer hygiene (Fig. 9),
//! §5.2 probe acks that miss their deadline, and the beacon round, in
//! which every table edge costs one ping and only a re-check is ponged.

use std::collections::BTreeSet;
use tapestry_core::{Msg, TapestryConfig, TapestryNetwork, WirePtr};
use tapestry_metric::TorusSpace;
use tapestry_sim::{NodeIdx, SimTime};
use tapestry_trace::metrics;

/// Every directed table edge `(node, neighbor)` of the live mesh.
fn table_edges(net: &TapestryNetwork) -> BTreeSet<(NodeIdx, NodeIdx)> {
    let mut edges = BTreeSet::new();
    for m in net.node_ids() {
        for r in net.node(m).unwrap().table().all_refs() {
            edges.insert((m, r.idx));
        }
    }
    edges
}

/// `(pings, pongs, declared dead)` counted so far.
fn probe_counts(net: &TapestryNetwork) -> (u64, u64, u64) {
    let stats = net.engine().stats();
    (
        metrics::REPAIR_PINGS.read(stats),
        metrics::REPAIR_PONGS.read(stats),
        metrics::REPAIR_DETECTED_DEAD.read(stats),
    )
}

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
    net.optimize_all_async();
    net.run_to_idle();
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
    // Retried queries reach the object through the other roots: each
    // attempt picks a random root, so up to six tries per origin.
    let mut ok = 0;
    for &origin in members.iter().take(24) {
        if origin == root0 || origin == server {
            continue;
        }
        if (0..6).any(|_| net.locate(origin, guid).is_some_and(|r| r.server.is_some())) {
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
    // *current* round's number. Each must be read as a late ack that
    // lifts the death certificate, not dropped because its round's
    // deadline has passed — which would leave the live mesh excised.
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
    net.optimize_all_async();
    net.run_to_idle();
    let after = net.check_property2();
    assert_eq!(before.0, before.1);
    assert_eq!(after.0, after.1, "still perfect after sharing");
    assert!(net.check_property1().is_empty());
}

#[test]
fn a_fully_mutual_mesh_probes_with_pings_alone() {
    let space = TorusSpace::random(16, 1000.0, 7);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 7);
    let edges = table_edges(&net);
    assert_eq!(edges.len(), 16 * 15, "a 16-node base-16 mesh: everyone knows everyone");
    net.probe_all();
    assert_eq!(probe_counts(&net), (edges.len() as u64, 0, 0), "each ping answers its peer's");
}

#[test]
fn a_one_way_edge_costs_one_beacon_and_no_pong() {
    // A holds B, B does not hold A: B beacons A, its backpointer holder,
    // and A's own ping would be redundant. Every directed table edge is
    // one message, whichever way its reverse runs.
    let space = TorusSpace::random(64, 1000.0, 11);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 11);
    let edges = table_edges(&net);
    let one_way = edges.iter().filter(|&&(a, b)| !edges.contains(&(b, a))).count() as u64;
    assert!(one_way > 0, "a 64-node mesh has one-way edges");
    assert!(one_way < edges.len() as u64 / 2, "most edges run both ways");
    net.probe_all();
    assert_eq!(probe_counts(&net), (edges.len() as u64, 0, 0));
    assert_eq!(table_edges(&net), edges, "nobody was excised");
}

#[test]
fn a_ping_that_arrives_before_the_round_starts_counts_as_its_answer() {
    // Every node but `late` starts round 1 at once; `late` starts it only
    // after all their beacons have reached it, but before their deadline.
    // It remembers them (it has no round 1 yet, and a beacon asks for no
    // pong), so its own round awaits nobody, and its beacons still
    // answer every holder in time.
    let space = TorusSpace::random(16, 1000.0, 7);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 7);
    let edges = table_edges(&net).len() as u64;
    let members = net.node_ids();
    let late = members[5];
    for &m in &members {
        if m != late {
            net.engine_mut().inject(m, Msg::AppProbe { round: 1 });
        }
    }
    let later = net.engine().now() + SimTime::from_distance(2000.0);
    net.engine_mut().run_until(later);
    assert_eq!(probe_counts(&net), (edges - 15, 0, 0), "`late` was beaconed, not ponged");
    net.engine_mut().inject(late, Msg::AppProbe { round: 1 });
    net.run_to_idle();
    assert_eq!(probe_counts(&net), (edges, 0, 0), "nobody declared dead");
}

#[test]
fn a_node_still_joining_is_beaconed_and_beacons() {
    // A joiner that members hold already, but that is not a member yet,
    // takes part in the round: the members await its beacon, and it
    // awaits theirs. Nobody is declared dead, and the join completes.
    for seed in 1..=4 {
        let space = TorusSpace::random(64, 1000.0, seed);
        let mut net =
            TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, 48);
        let joiner = 48;
        net.insert_node_via(joiner, net.node_ids()[0]);
        let held = |net: &TapestryNetwork| {
            net.node_ids().iter().any(|&m| net.node(m).unwrap().table().contains(joiner))
        };
        while !held(&net) {
            assert!(net.engine_mut().step(), "seed {seed}: the join stalled");
        }
        assert!(!net.node_ids().contains(&joiner), "seed {seed}: still joining");
        net.probe_all();
        let stats = net.engine().stats();
        assert_eq!(metrics::REPAIR_DETECTED_DEAD.read(stats), 0, "seed {seed}");
        assert_eq!(metrics::REPAIR_READMITTED.read(stats), 0, "seed {seed}");
        assert!(net.finish_insert_bookkeeping(joiner), "seed {seed}: the join completes");
        assert!(held(&net), "seed {seed}");
    }
}

#[test]
fn a_holder_added_mid_round_is_beaconed_at_once() {
    // `holder` takes `held` back into its table just before the round
    // starts everywhere, so it awaits `held`; its `AddedYou` reaches
    // `held` only after `held` beaconed its holders. `held` beacons it
    // on arrival, in time for the deadline.
    let space = TorusSpace::random(16, 1000.0, 7);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 7);
    let members = net.node_ids();
    let (holder, held) = (members[2], members[9]);
    let (held_ref, holder_ref) = (net.ref_of(held), net.ref_of(holder));
    net.engine_mut().node_mut(holder).unwrap().table_mut().remove_node(held);
    net.engine_mut().inject(held, Msg::RemovedYou { me: holder_ref });
    net.run_to_idle();
    let edges = table_edges(&net).len() as u64;
    net.engine_mut().inject(holder, Msg::ShareTable { level: 0, refs: vec![held_ref] });
    net.probe_all();
    assert_eq!(probe_counts(&net), (edges + 1, 0, 0), "one beacon for the new edge");
    assert!(net.node(holder).unwrap().table().contains(held));
}

#[test]
fn a_recheck_is_the_only_ping_that_gets_a_pong() {
    // A partition makes each side certify the other. After the heal,
    // the next round re-checks every certificate with a ping that asks
    // for a pong; every beacon of that round goes unanswered.
    let space = TorusSpace::random(32, 1000.0, 5);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 5);
    let side = net.partition_around(net.node_ids()[0]);
    let certified = table_edges(&net).iter().filter(|&&(m, p)| side[m] != side[p]).count() as u64;
    net.probe_all();
    net.heal_partition();
    // A holder cut off across a one-way edge forgot its neighbor, but the
    // neighbor still holds its backpointer and beacons it.
    let beacons: u64 =
        net.node_ids().iter().map(|&m| net.node(m).unwrap().backpointers().count() as u64).sum();
    let (pings, pongs, _) = probe_counts(&net);
    assert!(pongs == 0 && certified > 0, "the cut certified {certified}, ponged {pongs}");
    // Drained to idle: the readmissions re-add the holders within the
    // round, and a holder that adds a peer mid-round does not await it,
    // so no beacon follows them.
    net.probe_all();
    let (pings2, pongs2, _) = probe_counts(&net);
    assert_eq!(pongs2, certified, "each re-check is answered, nothing else");
    assert_eq!(pings2 - pings, beacons + certified, "a beacon per holder, a ping per re-check");
    assert_eq!(metrics::REPAIR_READMITTED.read(net.engine().stats()), certified);
}

#[test]
fn a_dead_holder_outside_the_table_costs_only_its_backpointer() {
    // `gone` holds its neighbors but sits in no table: it is only their
    // backpointer. Their beacons bounce off it, and the bounce drops the
    // backpointer without re-routing a pointer or republishing an object.
    let space = TorusSpace::random(64, 1000.0, 17);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 17);
    let members = net.node_ids();
    for &server in members.iter().step_by(3) {
        let guid = net.random_guid();
        net.publish(server, guid);
    }
    let gone = members[20];
    for &m in &members {
        net.engine_mut().node_mut(m).unwrap().table_mut().remove_node(gone);
    }
    let held: Vec<NodeIdx> =
        net.node(gone).unwrap().table().all_refs().iter().map(|r| r.idx).collect();
    assert!(!held.is_empty());
    net.kill(gone);
    let edges = table_edges(&net).len() as u64;
    let before = net.engine().stats().messages;
    net.probe_all();
    let stats = net.engine().stats();
    assert_eq!(stats.messages - before, edges + held.len() as u64, "the beacons and nothing else");
    assert_eq!(metrics::REPAIR_FACT_FAILED_CONTACT.read(stats), held.len() as u64);
    assert_eq!(metrics::REPAIR_DETECTED_DEAD.read(stats), 0);
    for m in held {
        assert!(net.node(m).unwrap().backpointers().all(|r| r.idx != gone), "{m} forgot it");
    }
}

#[test]
fn a_killed_node_is_excised_by_every_neighbor() {
    let space = TorusSpace::random(64, 1000.0, 13);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 13);
    let victim = net.node_ids()[9];
    let knows = |net: &TapestryNetwork, m: NodeIdx| {
        net.node(m).unwrap().table().all_refs().iter().any(|r| r.idx == victim)
    };
    let holders = net.node_ids().into_iter().filter(|&m| knows(&net, m)).count();
    assert!(holders > 0);
    net.kill(victim);
    net.probe_all();
    let (_, _, dead) = probe_counts(&net);
    assert!(dead > 0, "the victim's silence is detected");
    let left: Vec<NodeIdx> = net.node_ids().into_iter().filter(|&m| knows(&net, m)).collect();
    assert!(left.is_empty(), "still linked to the dead node: {left:?}");
}

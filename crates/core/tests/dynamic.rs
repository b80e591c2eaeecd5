//! Dynamic membership tests: node insertion (§3–4), the nearest-neighbor
//! table build (Fig. 4, Theorems 3–4), availability during insertion
//! (§4.3), simultaneous insertion (§4.4, Theorem 6) and deletion (§5).

use tapestry_core::{NodeStatus, TapestryConfig, TapestryNetwork};
use tapestry_metric::TorusSpace;
use tapestry_trace::metrics;

fn boot(n_total: usize, n0: usize, seed: u64) -> TapestryNetwork {
    let space = TorusSpace::random(n_total, 1000.0, seed);
    TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, n0)
}

#[test]
fn single_insert_completes_and_joins_mesh() {
    let mut net = boot(33, 32, 21);
    assert!(net.insert_node(32), "insertion reaches Active");
    assert_eq!(net.len(), 33);
    assert_eq!(net.node(32).unwrap().status(), NodeStatus::Active);
    assert!(net.check_property1().is_empty(), "Property 1 holds after insert");
}

#[test]
fn join_list_size_is_fixed_at_admission() {
    // Left open, a join's `k` is the one for the population it joins
    // (the members plus itself); an explicit `list_size_k` is kept.
    let mut net = boot(65, 64, 23);
    assert!(net.insert_node(64));
    let k = net.node(64).unwrap().insertion_candidates().expect("joined").1;
    assert_eq!(k, TapestryConfig::default().k_for(65));
    let cfg = TapestryConfig { list_size_k: Some(5), ..Default::default() };
    let space = TorusSpace::random(65, 1000.0, 23);
    let mut net = TapestryNetwork::bootstrap(cfg, Box::new(space), 23, 64);
    assert!(net.insert_node(64));
    assert_eq!(net.node(64).unwrap().insertion_candidates().expect("joined").1, 5);
}

#[test]
fn inserted_node_is_routable_and_can_route() {
    let mut net = boot(41, 40, 22);
    net.insert_node(40);
    // Everyone routes to the new node's ID and reaches it (Theorem 2 +
    // Property 1: the new node fills its hole everywhere it must).
    let id = net.id_of(40);
    for &m in net.node_ids().iter() {
        assert_eq!(net.root_from(m, &id), 40, "member {m} routes to the new node");
    }
    // The new node can locate objects published before it joined.
    let guid = net.random_guid();
    let server = net.node_ids()[3];
    net.publish(server, guid);
    let r = net.locate(40, guid).expect("completes");
    assert_eq!(r.server.expect("found").idx, server);
}

#[test]
fn insert_adopts_objects_rooted_at_new_node() {
    // Publish many objects, then insert a node; any object whose root
    // moves to the new node must remain locatable (LinkAndXferRoot).
    let mut net = boot(65, 64, 23);
    let members = net.node_ids();
    let mut guids = Vec::new();
    for i in 0..40 {
        let guid = net.random_guid();
        net.publish(members[i % members.len()], guid);
        guids.push(guid);
    }
    net.insert_node(64);
    for guid in guids {
        let r = net.locate(64, guid).expect("completes");
        assert!(r.server.is_some(), "object {guid} lost after insertion");
        let r2 = net.locate(members[1], guid).expect("completes");
        assert!(r2.server.is_some(), "object {guid} lost for old members");
    }
}

#[test]
fn many_sequential_inserts_keep_invariants() {
    let mut net = boot(48, 16, 24);
    for idx in 16..48 {
        assert!(net.insert_node(idx), "insert {idx} completes");
    }
    assert_eq!(net.len(), 48);
    assert!(net.check_property1().is_empty());
    let (optimal, total) = net.check_property2();
    assert!(total > 0);
    let frac = optimal as f64 / total as f64;
    assert!(frac > 0.90, "dynamic build locality too weak: {optimal}/{total}");
    // Theorem 2 still holds.
    for _ in 0..10 {
        let guid = net.random_guid();
        assert_eq!(net.distinct_roots(&guid.id()).len(), 1);
    }
}

#[test]
fn nearest_neighbor_discovered_by_insertion_theorem3() {
    // After insertion, the new node's level-0 primaries should include its
    // true nearest neighbor (the §2.1 observation: the nearest neighbor is
    // the closest entry of ∪_j N_{ε,j}).
    let mut fails = 0;
    for seed in 30..38 {
        let mut net = boot(65, 64, seed);
        net.insert_node(64);
        let members: Vec<usize> = net.node_ids().into_iter().filter(|&m| m != 64).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "members are ascending and min_by keeps the first of equals: ties resolve to \
                      the lowest idx"
        )]
        let true_nn = members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                net.engine()
                    .metric()
                    .distance(64, a)
                    .partial_cmp(&net.engine().metric().distance(64, b))
                    .unwrap()
            })
            .unwrap();
        let node = net.node(64).unwrap();
        let mut best: Option<(f64, usize)> = None;
        for j in 0..16u8 {
            for (r, d) in node.table().slot(0, j).iter_with_dist() {
                if r.idx != 64 && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, r.idx));
                }
            }
        }
        let found = best.expect("level-0 entries exist").1;
        if found != true_nn {
            fails += 1;
        }
    }
    // Theorem 3 is "with high probability"; at laptop scale allow one miss.
    assert!(fails <= 1, "nearest neighbor missed in {fails}/8 runs");
}

#[test]
fn queries_succeed_during_insertion_fig10() {
    let mut net = boot(65, 64, 26);
    let members = net.node_ids();
    let mut guids = Vec::new();
    for i in 0..24 {
        let guid = net.random_guid();
        net.publish(members[(i * 5) % members.len()], guid);
        guids.push(guid);
    }
    // Start the insertion but do NOT drain: interleave queries while the
    // insertion protocol runs.
    let gw = members[0];
    net.insert_node_via(64, gw);
    let mut outstanding = Vec::new();
    for (qi, &guid) in guids.iter().enumerate() {
        // Advance the insertion a little, then fire a query.
        let deadline = net.engine().now() + tapestry_sim::SimTime(50_000 * (qi as u64 + 1));
        net.run_until(deadline);
        let origin = members[(qi * 7) % members.len()];
        net.locate_async(origin, guid);
        outstanding.push((origin, guid));
    }
    net.run_to_idle();
    net.finish_insert_bookkeeping(64);
    assert_eq!(net.node(64).unwrap().status(), NodeStatus::Active);
    for (origin, guid) in outstanding {
        let rs = net.take_results(origin);
        let r = rs.iter().find(|r| r.guid == guid).expect("query completed");
        assert!(r.server.is_some(), "query for {guid} failed during insertion");
    }
}

#[test]
fn simultaneous_insertions_converge_theorem6() {
    let mut net = boot(68, 64, 27);
    let members = net.node_ids();
    // Four nodes insert at the same instant through different gateways.
    for (i, idx) in (64..68).enumerate() {
        net.insert_node_via(idx, members[i * 3]);
    }
    net.run_to_idle();
    for idx in 64..68 {
        assert!(net.finish_insert_bookkeeping(idx), "insert {idx} completed");
    }
    assert!(
        net.check_property1().is_empty(),
        "no fillable holes after simultaneous insertion (Theorem 6)"
    );
    for _ in 0..10 {
        let guid = net.random_guid();
        assert_eq!(net.distinct_roots(&guid.id()).len(), 1);
    }
}

#[test]
fn same_hole_simultaneous_insertion() {
    // Force the Lemma 5 scenario: insert several nodes at once into a tiny
    // network where they will often contend for the same hole.
    let mut net = boot(12, 4, 28);
    let members = net.node_ids();
    for idx in 4..12 {
        net.insert_node_via(idx, members[idx % 4]);
    }
    net.run_to_idle();
    for idx in 4..12 {
        assert!(net.finish_insert_bookkeeping(idx), "insert {idx} completed");
    }
    assert!(net.check_property1().is_empty(), "same-hole conflicts resolved");
}

#[test]
fn voluntary_leave_preserves_availability_fig12() {
    let mut net = boot(48, 48, 29);
    let members = net.node_ids();
    let mut guids = Vec::new();
    for i in 0..20 {
        let guid = net.random_guid();
        net.publish(members[(i * 3) % members.len()], guid);
        guids.push((members[(i * 3) % members.len()], guid));
    }
    // A node that is *not* a publisher leaves voluntarily.
    let publishers: std::collections::BTreeSet<usize> = guids.iter().map(|&(s, _)| s).collect();
    let leaver = members.iter().copied().find(|m| !publishers.contains(m)).unwrap();
    assert!(net.leave(leaver), "leave protocol completes");
    assert_eq!(net.len(), 47);
    for &(server, guid) in &guids {
        let origin = net.random_member();
        let r = net.locate(origin, guid).expect("completes");
        assert!(r.server.is_some(), "object {guid} (server {server}) lost after voluntary leave");
    }
    assert!(net.check_property1().is_empty(), "links repaired after leave");
}

#[test]
fn involuntary_failure_recovers_after_republish() {
    let cfg = TapestryConfig::default();
    let space = TorusSpace::random(48, 1000.0, 30);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 30);
    let members = net.node_ids();
    let mut guids = Vec::new();
    for i in 0..16 {
        let guid = net.random_guid();
        net.publish(members[(i * 3) % 48], guid);
        guids.push(((i * 3) % 48, guid));
    }
    // Kill a non-publisher node without warning.
    let publishers: std::collections::BTreeSet<usize> =
        guids.iter().map(|&(s, _)| members[s]).collect();
    let victim = members.iter().copied().find(|m| !publishers.contains(m)).unwrap();
    net.kill(victim);
    // Lazy repair: everyone probes, detects the failure, patches tables,
    // and publishers republish around the hole.
    net.probe_all();
    for &(si, guid) in &guids {
        let origin = net.random_member();
        let r = net.locate(origin, guid).expect("completes");
        assert!(
            r.server.is_some(),
            "object {guid} (server {}) unavailable after repair",
            members[si]
        );
    }
    assert!(net.check_property1().is_empty(), "holes repaired or unfillable");
}

#[test]
fn insertion_cost_scales_polylogarithmically() {
    // §4.5: insertion takes O(log² n) messages. Compare the measured
    // per-insert message counts at two network sizes: the ratio should be
    // far below the linear ratio (multicast reach being the only
    // super-logarithmic risk).
    let cost = |n: usize, seed: u64| -> f64 {
        let space = TorusSpace::random(n + 4, 1000.0, seed);
        let mut net =
            TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, n);
        let mut msgs = 0u64;
        for idx in n..n + 4 {
            let before = net.engine().stats().messages;
            net.insert_node(idx);
            msgs += net.engine().stats().messages - before;
        }
        msgs as f64 / 4.0
    };
    let small = cost(32, 31);
    let large = cost(256, 31);
    assert!(large / small < 8.0 / 2.0, "insert cost grew too fast: {small} → {large} (8× nodes)");
}

#[test]
fn solo_wave_is_a_spanning_tree() {
    // Theorem 5: an acknowledged multicast reaching k nodes uses k − 1
    // edges. Every recipient forwards every branch, so across sequential
    // solo joins the edges are the recipients less one root per wave.
    const JOINS: usize = 8;
    for (n, seed) in [(64, 77), (128, 5), (256, 11)] {
        let mut net = boot(n + JOINS, n, seed);
        for idx in n..n + JOINS {
            assert!(net.insert_node(idx), "insert {idx} completes at n = {n}");
        }
        let stats = net.engine().stats();
        let waves = metrics::MULTICAST_BATCH_WAVES.read(stats);
        let recipients = metrics::MULTICAST_RECIPIENTS.read(stats);
        let edges = metrics::MULTICAST_EDGES.read(stats);
        assert_eq!(waves, JOINS as u64, "a solo join is a wave of one at n = {n}");
        assert_eq!(edges, recipients - waves, "k − 1 edges per wave at n = {n}");
    }
}

#[test]
fn solo_join_survives_wave_recipients_killed_mid_wave() {
    // A solo join is a wave of one, so it carries the wave's ack
    // deadline: killing the wave's recipients right after the initiator
    // forwarded to them must not strand the join behind their missing
    // acks (before waves of one, it stayed `Inserting` forever).
    let n = 64;
    let mut net = boot(n + 1, n, 29);
    let gw = net.members()[0];
    let new_id = net.id_of(n);
    let initiator = net.root_from(gw, &new_id);
    let coverage = new_id.shared_prefix_len(&net.id_of(initiator));
    net.insert_node_via(n, gw);
    while metrics::MULTICAST_EDGES.read(net.engine().stats()) == 0 {
        assert!(net.engine_mut().step(), "the wave never forwarded a branch");
    }
    // Everything else the wave covers: its recipients, in flight now.
    let victims: Vec<_> = net
        .node_ids()
        .into_iter()
        .filter(|&m| m != initiator)
        .filter(|&m| net.id_of(m).shared_prefix_len(&new_id) >= coverage)
        .collect();
    assert!(!victims.is_empty());
    for v in victims {
        net.kill(v);
    }
    net.run_to_idle();
    assert!(net.finish_insert_bookkeeping(n), "the join completed");
    assert!(metrics::MULTICAST_DEADLINE_FORCED.read(net.engine().stats()) >= 1);
}

#[test]
fn join_message_accounting_tracks_insertions() {
    // Every insertion bumps `membership.join.messages`; quiet traffic does not.
    let n = 48;
    let space = TorusSpace::random(n + 2, 1000.0, 13);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), 13, n);
    assert_eq!(metrics::JOIN_MESSAGES.read(net.engine().stats()), 0, "static bootstrap sends none");
    let guid = net.random_guid();
    net.publish(net.members()[0], guid);
    net.locate(net.members()[5], guid);
    assert_eq!(
        metrics::JOIN_MESSAGES.read(net.engine().stats()),
        0,
        "publish/locate are not joins"
    );
    let before = net.engine().stats().messages;
    assert!(net.insert_node(n));
    let join_msgs = metrics::JOIN_MESSAGES.read(net.engine().stats());
    let all_msgs = net.engine().stats().messages - before;
    assert!(join_msgs > 0, "insertion must be accounted");
    assert!(
        join_msgs <= all_msgs,
        "accounted join messages ({join_msgs}) cannot exceed actual sends ({all_msgs})"
    );
}

/// Regression: a synchronous `locate` used to take the origin's whole
/// result queue and keep only its own answer, so async locates issued
/// earlier from the same node vanished (a runner would count them lost).
#[test]
fn sync_locate_leaves_earlier_async_results_collectable() {
    let mut net = boot(32, 32, 29);
    let members = net.node_ids();
    let guids: Vec<_> = (0..3)
        .map(|i| {
            let guid = net.random_guid();
            net.publish(members[i + 1], guid);
            guid
        })
        .collect();
    let origin = members[10];
    net.locate_async(origin, guids[0]);
    net.locate_async(origin, guids[1]);
    let sync = net.locate(origin, guids[2]).expect("completes");
    assert_eq!(sync.guid, guids[2]);
    // The two async results are still queued at the origin, and the
    // origin is still on the completion feed.
    let mut rest: Vec<_> = net.drain_results().iter().map(|r| r.guid).collect();
    rest.sort();
    let mut expected = vec![guids[0], guids[1]];
    expected.sort();
    assert_eq!(rest, expected);
    assert!(net.take_results(origin).is_empty());
    assert!(net.drain_results().is_empty());
}

#[test]
fn drain_results_collects_from_exactly_the_origins_that_finished() {
    let mut net = boot(32, 32, 30);
    let members = net.node_ids();
    let guid = net.random_guid();
    net.publish(members[0], guid);
    assert!(net.drain_results().is_empty(), "publishes complete nothing");
    // Issue in descending origin order: results come back in node order.
    for origin in [members[20], members[7], members[20], members[3]] {
        net.locate_async(origin, guid);
    }
    net.run_to_idle();
    // An origin killed between completion and collection takes its
    // result with it.
    net.kill(members[7]);
    let got = net.drain_results();
    // An op id carries its initiating node in the high bits.
    let origins: Vec<usize> = got.iter().map(|r| (r.op.0 >> 40) as usize).collect();
    assert_eq!(origins, vec![members[3], members[20], members[20]]);
    assert!(got.iter().all(|r| r.guid == guid && r.server.is_some()));
    assert!(net.take_results(members[3]).is_empty(), "already collected");
    assert!(net.drain_results().is_empty(), "second drain is empty");
    // A driver that polls one origin leaves a stale feed entry behind;
    // draining it later finds nothing and costs nothing.
    net.locate_async(members[3], guid);
    net.run_to_idle();
    assert_eq!(net.take_results(members[3]).len(), 1);
    assert!(net.drain_results().is_empty());
}

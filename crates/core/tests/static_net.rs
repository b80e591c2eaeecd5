//! End-to-end tests of the statically built network: mesh invariants,
//! surrogate routing uniqueness (Theorem 2), publication and location
//! (Figs. 2–3), and Property 4.

use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_id::{Guid, Id};
use tapestry_metric::{MetricSpace, RingSpace, TorusSpace};

fn net(n: usize, seed: u64) -> TapestryNetwork {
    let space = TorusSpace::random(n, 1000.0, seed);
    TapestryNetwork::build(TapestryConfig::default(), Box::new(space), seed)
}

#[test]
fn static_build_satisfies_property1() {
    let net = net(64, 1);
    assert!(net.check_property1().is_empty(), "no false holes after static build");
}

#[test]
fn static_build_satisfies_property2_exactly() {
    let net = net(64, 2);
    let (optimal, total) = net.check_property2();
    assert_eq!(optimal, total, "static build keeps the closest neighbor as primary");
    assert!(total > 0);
}

#[test]
fn surrogate_routing_has_unique_root_theorem2() {
    let mut net = net(96, 3);
    for _ in 0..20 {
        let guid = net.random_guid();
        let roots = net.distinct_roots(&guid.id());
        assert_eq!(roots.len(), 1, "Theorem 2: all sources agree on the root of {guid}");
    }
}

#[test]
fn surrogate_of_existing_node_is_that_node() {
    let net = net(48, 4);
    for &m in net.node_ids().iter().take(10) {
        let id = net.id_of(m);
        assert_eq!(net.root_from(m, &id), m);
        // And from everywhere else too: routing toward an existing name
        // reaches exactly that node.
        for &o in net.node_ids().iter().take(5) {
            assert_eq!(net.root_from(o, &id), m);
        }
    }
}

#[test]
fn publish_then_locate_finds_object_from_everywhere() {
    let mut net = net(64, 5);
    let members = net.node_ids();
    let server = members[7];
    let guid = net.random_guid();
    net.publish(server, guid);
    for &origin in members.iter().take(20) {
        let r = net.locate(origin, guid).expect("locate completes");
        let s = r.server.expect("deterministic location (paper property 1 of intro)");
        assert_eq!(s.idx, server);
    }
}

#[test]
fn locate_unpublished_object_reports_not_found() {
    let mut net = net(32, 6);
    let origin = net.node_ids()[0];
    let guid = net.random_guid();
    let r = net.locate(origin, guid).expect("completion");
    assert!(r.server.is_none());
    assert!(r.reached_root, "failure is only declared at the root");
}

#[test]
fn publish_deposits_pointers_along_path_property4() {
    let mut net = net(64, 7);
    let members = net.node_ids();
    for i in 0..8 {
        let guid = net.random_guid();
        net.publish(members[i * 3], guid);
    }
    assert!(net.check_property4().is_empty(), "every path node holds a pointer");
}

#[test]
fn replicas_all_reachable_and_closest_tends_to_win() {
    let mut net = net(128, 8);
    let members = net.node_ids();
    let guid = net.random_guid();
    let (s1, s2) = (members[3], members[100]);
    net.publish(s1, guid);
    net.publish(s2, guid);
    let mut found = std::collections::BTreeSet::new();
    for &origin in &members {
        let r = net.locate(origin, guid).expect("completes");
        found.insert(r.server.expect("found").idx);
    }
    assert!(found.contains(&s1) || found.contains(&s2));
    assert!(found.iter().all(|s| *s == s1 || *s == s2));
}

#[test]
fn query_stretch_is_bounded_on_torus() {
    // The PRR/Tapestry claim: constant expected stretch on
    // growth-restricted metrics. We assert a loose aggregate bound.
    let mut net = net(128, 9);
    let members = net.node_ids();
    let mut stretches = Vec::new();
    for t in 0..12 {
        let guid = net.random_guid();
        let server = members[(t * 11) % members.len()];
        net.publish(server, guid);
        for &origin in members.iter().take(30) {
            if origin == server {
                continue;
            }
            let direct = net.nearest_replica_distance(origin, guid).unwrap();
            let r = net.locate(origin, guid).expect("completes");
            if let Some(s) = r.stretch(direct) {
                assert!(s >= 1.0 - 1e-9, "stretch below 1 is impossible, got {s}");
                stretches.push(s);
            }
        }
    }
    let mean = stretches.iter().sum::<f64>() / stretches.len() as f64;
    assert!(mean < 12.0, "mean stretch should be small, got {mean}");
}

#[test]
fn routing_toward_arbitrary_guid_terminates() {
    let net = net(64, 10);
    let members = net.node_ids();
    for v in [0u64, 1, 0xFFFF_FFFF, 0x1234_5678] {
        let id = Id::from_u64(net.config().space, v);
        let path = net.surrogate_path(members[0], &id);
        assert!(path.len() <= 16, "path of {} hops is too long", path.len());
    }
}

#[test]
fn multi_root_configuration_still_locates() {
    let cfg = TapestryConfig { roots_per_object: 3, ..Default::default() };
    let space = TorusSpace::random(64, 1000.0, 11);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 11);
    let members = net.node_ids();
    let guid = Guid::from_u64(cfg.space, 0xABCD_EF01);
    net.publish(members[5], guid);
    for &origin in members.iter().take(16) {
        let r = net.locate(origin, guid).expect("completes");
        assert_eq!(r.server.expect("found").idx, members[5]);
    }
    // Each of the three roots has a pointer.
    for i in 0..3 {
        let root = net.root_of(guid, i);
        let now = net.engine().now();
        assert!(net
            .node(root)
            .unwrap()
            .store()
            .lookup(guid, now)
            .any(|e| e.server.idx == members[5]));
    }
}

#[test]
fn snapshot_space_is_logarithmic_per_node() {
    let net = net(256, 12);
    let snap = net.snapshot();
    assert_eq!(snap.n, 256);
    // Table 1: space O(n log n) → per node O(b · log_b n · R) entries.
    assert!(snap.avg_table_entries > 4.0);
    assert!(
        (snap.max_table_entries as f64) < 16.0 * 8.0 * 3.0,
        "max {} exceeds b·levels·R",
        snap.max_table_entries
    );
}

/// §2.1 pairs every forward pointer with a backpointer: node `b`'s
/// backpointers must be exactly the nodes whose tables reference `b`.
fn assert_backpointers_invert_tables(net: &TapestryNetwork, when: &str) {
    let members = net.node_ids();
    for &b in &members {
        let want: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&a| a != b && net.node(a).expect("member").table().contains(b))
            .collect();
        let got: Vec<usize> = net.node(b).expect("member").backpointers().map(|r| r.idx).collect();
        assert_eq!(got, want, "{when}: backpointers of node {b}");
    }
}

/// The bulk-built backpointers are the inverse of the tables, in
/// whatever profile this runs in — and the dynamic protocol, which keeps
/// the same relation one message at a time, picks the bulk-built state up
/// without a seam: one join and one voluntary departure later it still
/// holds.
#[test]
fn backpointers_invert_forward_pointers_through_join_and_leave() {
    for name in ["torus", "ring"] {
        // One point more than the bootstrap takes, for the join.
        let space: Box<dyn MetricSpace> = match name {
            "torus" => Box::new(TorusSpace::random(301, 1000.0, 41)),
            _ => Box::new(RingSpace::random(257, 5000.0, 42)),
        };
        let n0 = space.len() - 1;
        let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), space, 7, n0);
        let when = |what: &str| format!("{name}, {what}");
        assert_eq!(net.len(), n0);
        assert_backpointers_invert_tables(&net, &when("after bootstrap"));
        assert!(net.insert_node(n0), "dynamic join completes");
        assert_backpointers_invert_tables(&net, &when("after a join"));
        assert!(net.leave(n0 / 2), "voluntary departure completes");
        assert_backpointers_invert_tables(&net, &when("after a leave"));
    }
}

#[test]
fn sampled_distinct_roots_agree_with_exhaustive() {
    let space = TorusSpace::random(200, 1000.0, 23);
    let net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 23);
    for v in [0u64, 7, 0xDEAD_BEEF] {
        let target = Id::from_u64(net.config().space, v);
        let full = net.distinct_roots(&target);
        // Under Theorem 2 the exhaustive set is a singleton, and any
        // member sample must observe exactly that root.
        assert_eq!(full.len(), 1, "Theorem 2 on the static build");
        assert_eq!(net.distinct_roots_sampled(&target, 16), full, "sampled ⊆ agreed root");
        // A cap at or above n degenerates to the exhaustive walk.
        assert_eq!(net.distinct_roots_sampled(&target, 10_000), full);
        // Sampling is deterministic.
        assert_eq!(
            net.distinct_roots_sampled(&target, 16),
            net.distinct_roots_sampled(&target, 16)
        );
    }
}

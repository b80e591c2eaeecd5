//! Edge cases and unusual configurations: tiny networks, growth from a
//! single bootstrap node, alternative metric spaces and radices, repeated
//! operations, and degenerate queries.

use tapestry_core::{NodeStatus, TapestryConfig, TapestryNetwork};
use tapestry_id::IdSpace;
use tapestry_metric::{GridSpace, RingSpace, TorusSpace};

#[test]
fn single_node_network_is_its_own_root() {
    let space = TorusSpace::random(1, 100.0, 81);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 81);
    let only = net.node_ids()[0];
    let guid = net.random_guid();
    assert_eq!(net.root_of(guid, 0), only);
    net.publish(only, guid);
    let r = net.locate(only, guid).expect("completes");
    assert_eq!(r.server.expect("found").idx, only);
    assert_eq!(r.hops, 0, "local hit");
    assert!(net.check_property1().is_empty());
}

#[test]
fn grow_from_one_bootstrap_node() {
    // The severest dynamic case: every structure is built by the
    // insertion protocol itself, starting from a singleton.
    let space = TorusSpace::random(24, 1000.0, 82);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), 82, 1);
    for idx in 1..24 {
        assert!(net.insert_node(idx), "insert {idx} starting from singleton");
    }
    assert_eq!(net.len(), 24);
    assert!(net.check_property1().is_empty());
    let (optimal, total) = net.check_property2();
    assert!(optimal as f64 / total.max(1) as f64 > 0.85, "locality {optimal}/{total}");
    // Full function: publish/locate from every node.
    let guid = net.random_guid();
    net.publish(5, guid);
    for idx in 0..24 {
        let r = net.locate(idx, guid).expect("completes");
        assert_eq!(r.server.expect("found").idx, 5);
    }
}

#[test]
fn two_node_network_inserts_and_locates() {
    let space = TorusSpace::random(2, 100.0, 83);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), 83, 1);
    assert!(net.insert_node(1));
    assert_eq!(net.node(1).unwrap().status(), NodeStatus::Active);
    let guid = net.random_guid();
    net.publish(1, guid);
    let r = net.locate(0, guid).expect("completes");
    assert_eq!(r.server.expect("found").idx, 1);
}

#[test]
fn works_on_ring_metric() {
    let space = RingSpace::random(64, 10_000.0, 84);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 84);
    let guid = net.random_guid();
    net.publish(10, guid);
    for origin in [0usize, 20, 40, 63] {
        let r = net.locate(origin, guid).expect("completes");
        assert_eq!(r.server.expect("found").idx, 10);
    }
    assert!(net.check_property1().is_empty());
}

#[test]
fn works_on_grid_metric() {
    let space = GridSpace::new(8, 8, 10.0);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 85);
    let guid = net.random_guid();
    net.publish(27, guid);
    let r = net.locate(0, guid).expect("completes");
    assert_eq!(r.server.expect("found").idx, 27);
}

#[test]
fn works_with_base_32_ids() {
    // Lemma 1 wants b > c²; base 32 gives the theory slack on 2-D metrics
    // (c ≈ 4 ⇒ c² = 16 < 32).
    let cfg = TapestryConfig { space: IdSpace::new(32, 7), ..Default::default() };
    let space = TorusSpace::random(96, 1000.0, 86);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 86);
    let guid = net.random_guid();
    net.publish(7, guid);
    for origin in [1usize, 30, 60, 90] {
        let r = net.locate(origin, guid).expect("completes");
        assert_eq!(r.server.expect("found").idx, 7);
    }
    for _ in 0..8 {
        let g = net.random_guid();
        assert_eq!(net.distinct_roots(&g.id()).len(), 1, "Theorem 2 at base 32");
    }
}

#[test]
fn works_with_base_4_ids() {
    let cfg = TapestryConfig { space: IdSpace::new(4, 10), ..Default::default() };
    let space = TorusSpace::random(48, 1000.0, 87);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 87);
    let guid = net.random_guid();
    net.publish(3, guid);
    let r = net.locate(40, guid).expect("completes");
    assert_eq!(r.server.expect("found").idx, 3);
}

#[test]
fn republishing_the_same_object_is_idempotent() {
    let space = TorusSpace::random(48, 1000.0, 88);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 88);
    let guid = net.random_guid();
    for _ in 0..5 {
        net.publish(9, guid);
    }
    let root = net.root_of(guid, 0);
    let entries =
        net.node(root).unwrap().store().lookup(guid).filter(|e| e.server.idx == 9).count();
    assert_eq!(entries, 1, "refresh, not duplicate");
    assert!(net.check_property4().is_empty());
}

#[test]
fn same_object_from_many_servers_keeps_all_pointers() {
    // §2.4: "Tapestry nodes keep pointers to all copies of a given object."
    let space = TorusSpace::random(64, 1000.0, 89);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 89);
    let guid = net.random_guid();
    let servers = [3usize, 17, 42, 55];
    for &s in &servers {
        net.publish(s, guid);
    }
    let root = net.root_of(guid, 0);
    let held: std::collections::BTreeSet<usize> =
        net.node(root).unwrap().store().lookup(guid).map(|e| e.server.idx).collect();
    for &s in &servers {
        assert!(held.contains(&s), "root missing replica pointer for {s}");
    }
}

#[test]
fn locate_from_the_server_itself_is_free() {
    let space = TorusSpace::random(32, 1000.0, 90);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 90);
    let guid = net.random_guid();
    net.publish(11, guid);
    let r = net.locate(11, guid).expect("completes");
    assert_eq!(r.server.expect("found").idx, 11);
    assert_eq!(r.hops, 0);
    assert_eq!(r.distance, 0.0);
}

#[test]
fn leave_of_last_publisher_keeps_nothing_dangling() {
    let space = TorusSpace::random(32, 1000.0, 91);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 91);
    let guid = net.random_guid();
    net.publish(5, guid);
    assert!(net.leave(5), "publisher leaves voluntarily");
    // The replica is gone with its server; queries must terminate (either
    // clean not-found or a stale pointer to the departed server — but
    // they must not hang).
    let r = net.locate(20, guid);
    if let Some(res) = r {
        if let Some(s) = res.server {
            assert_eq!(s.idx, 5, "only the departed server was ever a replica");
        }
    }
}

#[test]
fn repeated_leave_and_rejoin_of_the_same_point() {
    let space = TorusSpace::random(33, 1000.0, 92);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), 92, 32);
    for round in 0..3 {
        assert!(net.insert_node(32), "round {round} insert");
        assert!(net.leave(32), "round {round} leave");
        assert!(net.check_property1().is_empty(), "round {round} consistency");
    }
}

#[test]
fn kill_then_reinsert_different_point() {
    let space = TorusSpace::random(50, 1000.0, 93);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), 93, 48);
    net.kill(7);
    net.probe_all();
    assert!(net.insert_node(48), "insert after unrepaired... repaired failure");
    assert!(net.insert_node(49));
    assert!(net.check_property1().is_empty());
}

#[test]
fn redundancy_one_still_routes_correctly() {
    // R = 1: a single neighbor per slot; Property 1 still holds and
    // routing still resolves (the paper's minimum configuration).
    let cfg = TapestryConfig { redundancy: 1, ..Default::default() };
    let space = TorusSpace::random(64, 1000.0, 94);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 94);
    assert!(net.check_property1().is_empty());
    let guid = net.random_guid();
    net.publish(30, guid);
    for origin in [0usize, 21, 45] {
        let r = net.locate(origin, guid).expect("completes");
        assert_eq!(r.server.expect("found").idx, 30);
    }
}

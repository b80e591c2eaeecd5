//! Determinism and reproducibility: identical seeds must reproduce entire
//! protocol histories bit-for-bit — the property every experiment in the
//! README's *Reproducing the paper's figures and tables* relies on.

use tapestry::prelude::*;

fn full_scenario(seed: u64) -> (u64, u64, Vec<(u32, u64)>, usize) {
    let space = TorusSpace::random(72, 1000.0, seed);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, 56);
    let mut results = Vec::new();
    let mut guids = Vec::new();
    for i in 0..12 {
        let server = net.node_ids()[(i * 7) % net.len()];
        let guid = net.random_guid();
        net.publish(server, guid);
        guids.push(guid);
    }
    for idx in 56..64 {
        assert!(net.insert_node(idx));
    }
    let members = net.node_ids();
    for (i, idx) in (64..72).enumerate() {
        net.insert_node_via(idx, members[i * 5 % members.len()]);
    }
    net.run_to_idle();
    for idx in 64..72 {
        assert!(net.finish_insert_bookkeeping(idx));
    }
    let leaver = net.node_ids()[30];
    net.leave(leaver);
    net.kill(net.node_ids()[10]);
    net.probe_all();
    for (i, &g) in guids.iter().enumerate() {
        let origin = net.node_ids()[(i * 13) % net.len()];
        let r = net.locate(origin, g).expect("completes");
        results.push((r.hops, r.distance.to_bits()));
    }
    (net.engine().stats().messages, net.engine().now().0, results, net.check_property1().len())
}

#[test]
fn identical_seeds_build_identical_snapshots() {
    // Static construction is a pure function of (config, space, seed):
    // two builds must agree entry-for-entry, and the space summary —
    // the NetworkSnapshot — must be equal as a value.
    fn snap(build_seed: u64) -> NetworkSnapshot {
        let space = TorusSpace::random(96, 1000.0, build_seed);
        let net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), build_seed);
        net.snapshot()
    }
    let a = snap(17);
    let b = snap(17);
    assert_eq!(a, b, "same seed ⇒ identical NetworkSnapshot");
}

#[test]
fn different_build_seeds_diverge_in_snapshot_or_roots() {
    // Different seeds give different IDs and geometry; the table-space
    // summary (or, at minimum, the root assignment of a fixed GUID) must
    // differ. Checking both makes the test robust to coincidental
    // snapshot collisions while still demanding real divergence.
    fn build(build_seed: u64) -> TapestryNetwork {
        let space = TorusSpace::random(96, 1000.0, build_seed);
        TapestryNetwork::build(TapestryConfig::default(), Box::new(space), build_seed)
    }
    let a = build(18);
    let b = build(19);
    let guid_a = Guid::from_u64(a.config().space, 0x5EED_CAFE);
    let guid_b = Guid::from_u64(b.config().space, 0x5EED_CAFE);
    let diverged = a.snapshot() != b.snapshot() || a.root_of(guid_a, 0) != b.root_of(guid_b, 0);
    assert!(diverged, "different seeds must produce observably different networks");
}

#[test]
fn identical_seeds_reproduce_identical_histories() {
    let a = full_scenario(71);
    let b = full_scenario(71);
    assert_eq!(a, b, "same seed ⇒ bit-identical protocol history");
}

#[test]
fn different_seeds_diverge() {
    let a = full_scenario(72);
    let b = full_scenario(73);
    assert_ne!((a.0, a.1), (b.0, b.1), "different seeds should explore different histories");
}

#[test]
fn facade_prelude_covers_the_quickstart_flow() {
    // The doc-comment example, as a real test.
    let config = TapestryConfig::default();
    let space = TorusSpace::random(64, 1_000.0, 42);
    let mut net = TapestryNetwork::build(config, Box::new(space), 42);
    let server = net.node_ids()[0];
    let guid = net.random_guid();
    net.publish(server, guid);
    let hit = net.locate(net.node_ids()[13], guid).expect("deterministic location");
    assert_eq!(hit.server.expect("found").idx, server);
}

//! Replica placement on a transit-stub internet (the OceanStore-style
//! workload that motivates the paper's introduction).
//!
//! ```sh
//! cargo run --example replica_cdn
//! ```
//!
//! A "CDN" replicates a popular object into several stub networks of a
//! transit-stub topology. Tapestry's location-independent routing finds
//! the *nearby* replica, and with the §6.3 local-branch optimization
//! enabled, queries for locally replicated objects never leave the stub.

use tapestry::prelude::*;

fn run(local_opt: bool) -> (f64, f64) {
    let space = TransitStubSpace::new(4, 4, 8, 99); // 128 nodes, 16 stubs
    let threshold = if local_opt { space.local_threshold() } else { 0.0 };
    let stub_of: Vec<usize> = (0..space.len()).map(|i| space.stub_of(i)).collect();
    let config = TapestryConfig { stub_latency_threshold: threshold, ..Default::default() };
    let mut net = TapestryNetwork::build(config, Box::new(space), 99);

    // Replicate one object into stubs 0, 5 and 10 (one server each).
    let guid = net.random_guid();
    let mut servers = Vec::new();
    for target_stub in [0usize, 5, 10] {
        let server = (0..stub_of.len()).find(|&i| stub_of[i] == target_stub).unwrap();
        net.publish(server, guid);
        servers.push(server);
    }

    // Clients in replica-holding stubs should resolve locally; everyone
    // else pays wide-area latency to the nearest replica.
    let mut local_dist = Vec::new();
    let mut remote_dist = Vec::new();
    for (origin, &origin_stub) in stub_of.iter().enumerate() {
        if servers.contains(&origin) {
            continue;
        }
        let r = net.locate(origin, guid).expect("completes");
        assert!(r.server.is_some(), "replica always found");
        if [0usize, 5, 10].contains(&origin_stub) {
            local_dist.push(r.distance);
        } else {
            remote_dist.push(r.distance);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&local_dist), mean(&remote_dist))
}

fn main() {
    let (local_off, remote_off) = run(false);
    let (local_on, remote_on) = run(true);
    println!("mean query latency (metric units):");
    println!("{:<28} {:>12} {:>12}", "", "local stubs", "other stubs");
    println!("{:<28} {:>12.1} {:>12.1}", "plain Tapestry", local_off, remote_off);
    println!("{:<28} {:>12.1} {:>12.1}", "with §6.3 local branches", local_on, remote_on);
    println!(
        "\nintra-stub improvement: {:.1}× (queries for locally replicated data \
         never leave the stub)",
        local_off / local_on.max(1e-9)
    );
    assert!(local_on < local_off, "the locality optimization must cut intra-stub query latency");
}

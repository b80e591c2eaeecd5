//! **§6.3** — the transit-stub locality enhancement.
//!
//! On a transit-stub topology, queries for objects replicated inside the
//! querier's stub should never pay an inter-stub hop. The experiment
//! compares plain Tapestry against the local-branch optimization on the
//! same topology: intra-stub query latency, the fraction of intra-stub
//! queries that escape the stub, and the penalty remote queries pay for
//! the extra local surrogate hops.

use tapestry_bench::{f2, header, mean, parallel_sweep, row};
use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_metric::{MetricSpace, TransitStubSpace};

fn run(local_opt: bool, seed: u64) -> (f64, f64, f64) {
    let space = TransitStubSpace::new(4, 4, 8, seed); // 128 nodes, 16 stubs
    let threshold = if local_opt { space.local_threshold() } else { 0.0 };
    let stub_of: Vec<usize> = (0..space.len()).map(|i| space.stub_of(i)).collect();
    let n = space.len();
    let query_space = space.clone();
    let cfg = TapestryConfig { stub_latency_threshold: threshold, ..Default::default() };
    let mut net = TapestryNetwork::build(cfg, Box::new(space), seed);

    // Each of 8 objects is replicated in exactly one stub.
    let mut replicas = Vec::new();
    for s in 0..8usize {
        let server = (0..n).find(|&i| stub_of[i] == s * 2).unwrap();
        let guid = net.random_guid();
        net.publish(server, guid);
        replicas.push((server, guid, s * 2));
    }
    let mut local_lat = Vec::new();
    let mut local_escapes = 0usize;
    let mut local_total = 0usize;
    let mut remote_lat = Vec::new();
    for &(server, guid, stub) in &replicas {
        for (origin, &origin_stub) in stub_of.iter().enumerate().take(n) {
            if origin == server {
                continue;
            }
            let r = net.locate(origin, guid).expect("completes");
            assert!(r.server.is_some(), "always found");
            if origin_stub == stub {
                local_total += 1;
                local_lat.push(r.distance);
                // An intra-stub query "escaped" if it traveled farther
                // than any intra-stub path possibly could.
                let stub_diam = 3.0 * query_space.local_threshold();
                if r.distance > stub_diam {
                    local_escapes += 1;
                }
            } else {
                remote_lat.push(r.distance);
            }
        }
    }
    (mean(&local_lat), local_escapes as f64 / local_total.max(1) as f64, mean(&remote_lat))
}

fn main() {
    header(&["config", "intra_stub_latency", "escape_rate", "remote_latency"]);
    let results = parallel_sweep(8, |job| {
        let seed = 16_000 + (job / 2) as u64;
        let local_opt = job % 2 == 1;
        (local_opt, run(local_opt, seed))
    });
    for opt in [false, true] {
        let runs: Vec<&(f64, f64, f64)> =
            results.iter().filter(|(o, _)| *o == opt).map(|(_, r)| r).collect();
        let lat = mean(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        let esc = mean(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
        let rem = mean(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
        row(&[
            if opt { "with_local_branch(§6.3)" } else { "plain_tapestry" }.to_string(),
            f2(lat),
            f2(esc),
            f2(rem),
        ]);
    }
    println!("\n# expected: the §6.3 row cuts intra-stub latency by an order of");
    println!("# magnitude and drives the escape rate to ~0, while remote queries");
    println!("# pay only a small extra-local-hop penalty (\"less than 2 hops in");
    println!("# expectation\", §6.3).");
}

//! **Table 1** — comparison of object-location systems.
//!
//! Regenerates the paper's Table 1 empirically: insert cost (messages per
//! join), space (routing entries per node), lookup hops, stretch and load
//! balance for Tapestry (this paper), Chord, CAN, Pastry, PRR v.0 + this
//! paper, plus the two strawmen of the introduction (central directory,
//! full broadcast). Viceroy / Awerbuch–Peleg / RRVV are cited rows in the
//! paper with no evaluated implementation; their asymptotics are printed
//! as-is at the end for completeness.
//!
//! Expected shape (the paper's claims): Tapestry/Chord/Pastry routing
//! state and hops grow logarithmically, CAN hops grow as √n, only
//! Tapestry and PRR v.0 keep stretch small and only broadcast beats them
//! (at catastrophic space/publish cost), and the central directory
//! concentrates all load on one node.

use tapestry_baselines::{
    path_distance, Broadcast, Can, CentralizedDirectory, Chord, LocatorSystem, Pastry, PrrV0,
};
use tapestry_bench::{f2, header, mean, parallel_sweep, percentile, row};
use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_metric::{MetricSpace, TorusSpace};

const SIDE: f64 = 1000.0;
const OBJECTS: usize = 64;
const QUERIES: usize = 256;

struct Row {
    system: &'static str,
    n: usize,
    insert_msgs: Option<f64>,
    routing_entries: f64,
    hops: f64,
    stretch_med: Option<f64>,
    dir_balance: f64, // max directory entries / mean (1 = perfectly even)
}

fn print_row(r: &Row) {
    row(&[
        r.system.to_string(),
        r.n.to_string(),
        r.insert_msgs.map(f2).unwrap_or_else(|| "-".into()),
        f2(r.routing_entries),
        f2(r.hops),
        r.stretch_med.map(f2).unwrap_or_else(|| "-".into()),
        f2(r.dir_balance),
    ]);
}

fn tapestry_row(n: usize, seed: u64) -> Row {
    let joins = (n / 4).clamp(8, 48);
    let space = TorusSpace::random(n, SIDE, seed);
    let mut net =
        TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, n - joins);
    let mut join_msgs = Vec::new();
    for idx in (n - joins)..n {
        let before = net.engine().stats().messages;
        assert!(net.insert_node(idx), "insert completes");
        join_msgs.push((net.engine().stats().messages - before) as f64);
    }
    // Publish a working set, then measure lookups.
    let mut guids = Vec::new();
    for i in 0..OBJECTS {
        let server = net.node_ids()[(i * 7) % n];
        let guid = net.random_guid();
        net.publish(server, guid);
        guids.push(guid);
    }
    let mut hops = Vec::new();
    let mut stretch = Vec::new();
    for q in 0..QUERIES {
        let guid = guids[q % OBJECTS];
        let origin = net.node_ids()[(q * 13) % n];
        let direct = net.nearest_replica_distance(origin, guid).unwrap();
        let r = net.locate(origin, guid).expect("completes");
        assert!(r.server.is_some());
        hops.push(r.hops as f64);
        if let Some(s) = r.stretch(direct) {
            stretch.push(s);
        }
    }
    let snap = net.snapshot();
    Row {
        system: "tapestry (this paper)",
        n,
        insert_msgs: Some(mean(&join_msgs)),
        routing_entries: snap.avg_table_entries,
        hops: mean(&hops),
        stretch_med: Some(percentile(&stretch, 50.0)),
        dir_balance: snap.max_object_ptrs as f64 / snap.avg_object_ptrs.max(1e-9),
    }
}

fn baseline_row<S: LocatorSystem>(
    name: &'static str,
    n: usize,
    seed: u64,
    mut sys: S,
    join: impl Fn(&mut S, usize) -> u64,
) -> Row {
    let space = TorusSpace::random(n, SIDE, seed);
    for p in 0..n {
        join(&mut sys, p);
    }
    let mut keys = Vec::new();
    for i in 0..OBJECTS {
        let key = i as u64 * 1_000_003;
        sys.publish((i * 7) % n, key);
        keys.push(((i * 7) % n, key));
    }
    let mut hops = Vec::new();
    let mut stretch = Vec::new();
    for q in 0..QUERIES {
        let (server, key) = keys[q % OBJECTS];
        let origin = (q * 13) % n;
        if origin == server {
            continue;
        }
        let path = sys.locate(origin, key).expect("published");
        hops.push(path.hops() as f64);
        let direct = space.distance(origin, *path.nodes.last().unwrap());
        // Stretch relative to the replica the system routed to (all these
        // systems keep one replica per key here).
        if direct > 0.0 {
            stretch.push(path_distance(&space, &path) / direct);
        }
    }
    let sp = sys.space();
    Row {
        system: name,
        n,
        insert_msgs: Some(sys.join_messages() as f64 / n as f64),
        routing_entries: sp.avg_routing_entries,
        hops: mean(&hops),
        stretch_med: Some(percentile(&stretch, 50.0)),
        dir_balance: sp.max_directory_entries as f64 / sp.avg_directory_entries.max(1e-9),
    }
}

fn prrv0_row(n: usize, seed: u64) -> Row {
    let space = TorusSpace::random(n, SIDE, seed);
    let dists = TorusSpace::random(n, SIDE, seed);
    let mut sys = PrrV0::build(Box::new(space), (0..n).collect(), 2, seed);
    let mut keys = Vec::new();
    let mut publish_msgs = 0u64;
    for i in 0..OBJECTS {
        let key = i as u64 * 99_991;
        publish_msgs += sys.publish((i * 7) % n, key);
        keys.push(((i * 7) % n, key));
    }
    let mut msgs = Vec::new();
    let mut stretch = Vec::new();
    for q in 0..QUERIES {
        let (server, key) = keys[q % OBJECTS];
        let origin = (q * 13) % n;
        if origin == server {
            continue;
        }
        let r = sys.locate(origin, key);
        assert_eq!(r.server, Some(server));
        msgs.push(r.messages as f64);
        let direct = dists.distance(origin, server);
        if direct > 0.0 {
            stretch.push(r.distance / direct);
        }
    }
    let (avg_space, _max) = sys.space_per_node();
    let _ = publish_msgs;
    Row {
        system: "prr-v0 + this paper",
        n,
        insert_msgs: None, // static scheme: the paper's Table 1 marks "-"
        routing_entries: avg_space,
        hops: mean(&msgs), // messages per query (probes count, per §7 accounting)
        stretch_med: Some(percentile(&stretch, 50.0)),
        dir_balance: 0.0,
    }
}

fn main() {
    header(&[
        "system",
        "n",
        "insert_msgs/join",
        "routing_entries/node",
        "lookup_hops",
        "stretch_median",
        "dir_balance(max/avg)",
    ]);
    let sizes = [64usize, 256, 1024];
    let rows = parallel_sweep(sizes.len(), |si| {
        let n = sizes[si];
        let seed = 7000 + si as u64;
        let mut out = vec![tapestry_row(n, seed)];
        out.push(baseline_row("chord", n, seed, Chord::for_size(n, seed), |s, p| s.join(p)));
        out.push(baseline_row("can (r=2)", n, seed, Can::new(seed), |s, p| s.join(p)));
        out.push(baseline_row("pastry", n, seed, Pastry::new(seed), |s, p| s.join(p)));
        out.push(baseline_row("central-dir", n, seed, CentralizedDirectory::new(0), |s, p| {
            s.join(p)
        }));
        out.push(baseline_row(
            "broadcast",
            n,
            seed,
            Broadcast::new(Box::new(TorusSpace::random(n, SIDE, seed))),
            |s, p| s.join(p),
        ));
        out.push(prrv0_row(n, seed));
        out
    });
    for per_n in rows {
        for r in per_n {
            print_row(&r);
        }
        println!();
    }
    println!("# cited-only rows (no evaluated system in the paper):");
    println!("# viceroy        insert O(log n)   space O(1)/node        hops O(log n)   stretch -");
    println!("# awerbuch-peleg insert -          space O(log^3 n)/node  hops O(log^2 n) stretch O(log^2 n)");
    println!("# rrvv           insert O(log^3 n) space O(log^3 n)/node  hops O(log^2 n) stretch O(log^3 n)");
}

//! **Figures 9, 10, 12 / §4.2–4.3 / §5** — availability and pointer
//! hygiene under churn.
//!
//! A timeline experiment: publish a working set, then run phases of
//! dynamic joins, voluntary departures, and unannounced failures with
//! lazy repair. After each phase we measure query availability,
//! Property 1 and Property 4 violations, and dangling pointers (entries
//! naming dead servers — what `OptimizeObjectPtrs` + republish clean
//! up). The paper's claim: objects remain available through all of it,
//! with only the unannounced-failure window showing degradation until
//! repair/republish runs.

use tapestry_bench::{f2, header, row};
use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_metric::TorusSpace;

const N0: usize = 128;
const EXTRA: usize = 24;
const OBJECTS: usize = 32;

fn phase_stats(net: &mut TapestryNetwork, objects: &[(usize, tapestry_id::Guid)], label: &str) {
    let mut ok = 0usize;
    let total = objects.len() * 4;
    for (i, &(_, g)) in objects.iter().enumerate() {
        for q in 0..4 {
            let origin = net.node_ids()[(i * 17 + q * 31) % net.len()];
            if net.locate(origin, g).and_then(|r| r.server).is_some() {
                ok += 1;
            }
        }
    }
    let p1 = net.check_property1().len();
    let p4 = net.check_property4().len();
    // Dangling pointers: entries naming servers that no longer exist.
    let mut dangling = 0usize;
    let alive: std::collections::BTreeSet<usize> = net.node_ids().into_iter().collect();
    for &m in alive.iter() {
        let node = net.node(m).unwrap();
        dangling += node.store().iter().filter(|(_, e)| !alive.contains(&e.server.idx)).count();
    }
    row(&[
        label.to_string(),
        net.len().to_string(),
        format!("{ok}/{total}"),
        f2(ok as f64 / total as f64),
        p1.to_string(),
        p4.to_string(),
        dangling.to_string(),
    ]);
}

fn main() {
    header(&[
        "phase",
        "n",
        "queries_ok",
        "availability",
        "prop1_viol",
        "prop4_viol",
        "dangling_ptrs",
    ]);
    let seed = 14_000u64;
    let space = TorusSpace::random(N0 + EXTRA, 1000.0, seed);
    let mut net = TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, N0);
    let mut objects = Vec::new();
    for i in 0..OBJECTS {
        let server = net.node_ids()[(i * 11) % net.len()];
        let guid = net.random_guid();
        net.publish(server, guid);
        objects.push((server, guid));
    }
    phase_stats(&mut net, &objects, "baseline");

    // Phase 1: sequential joins.
    for idx in N0..(N0 + EXTRA / 2) {
        assert!(net.insert_node(idx));
    }
    phase_stats(&mut net, &objects, "after_12_joins");

    // Phase 2: simultaneous joins.
    let members = net.node_ids();
    for (i, idx) in ((N0 + EXTRA / 2)..(N0 + EXTRA)).enumerate() {
        net.insert_node_via(idx, members[(i * 13) % members.len()]);
    }
    net.run_to_idle();
    for idx in (N0 + EXTRA / 2)..(N0 + EXTRA) {
        assert!(net.finish_insert_bookkeeping(idx));
    }
    phase_stats(&mut net, &objects, "after_12_simul_joins");

    // Phase 3: voluntary departures (Fig. 12).
    let publishers: std::collections::BTreeSet<usize> = objects.iter().map(|&(s, _)| s).collect();
    for _ in 0..10 {
        let leaver =
            net.node_ids().into_iter().find(|m| !publishers.contains(m)).expect("non-publisher");
        assert!(net.leave(leaver));
    }
    phase_stats(&mut net, &objects, "after_10_leaves");

    // Phase 4: unannounced failures — *before* any repair.
    for _ in 0..8 {
        let victim = net
            .node_ids()
            .into_iter()
            .rev()
            .find(|m| !publishers.contains(m))
            .expect("non-publisher");
        net.kill(victim);
    }
    phase_stats(&mut net, &objects, "after_8_kills_no_repair");

    // Phase 5: lazy repair (probe round + republish around holes).
    net.probe_all();
    phase_stats(&mut net, &objects, "after_probe_repair");

    // Phase 6: every server republishes once (§2.2 republishes at regular
    // intervals; one explicit round is what erases the last
    // performance-only Property 4 gaps and dangling pointers).
    for &(server, guid) in &objects {
        net.publish(server, guid);
    }
    phase_stats(&mut net, &objects, "after_republish_round");

    println!("\n# expected: availability 1.00 everywhere except possibly the");
    println!("# no-repair failure window; prop1 stays 0; prop4 gaps from churn");
    println!("# are performance-only and vanish after the republish round.");
}

//! Host seconds of each stage of the static bootstrap, of the two
//! Property sweeps and of publishing a catalog of `nodes / 2` objects,
//! then what the mesh and the pointers cost in memory — the stage table
//! and the bytes-per-node tables in README *Performance*.
//!
//!   bootstrap_stages [--nodes N]
//!
//! The default mesh is the `bootstrap-checks` benchmark workload's:
//! 25 000 nodes on a torus at the presets' density, seed 42, one thread.
//! The build is repeated in-process. Times are the last repetition's: the
//! first one pays the page faults of a fresh heap, which is not what the
//! benchmark's warmed-up `setup_s` times. Resident memory is the first
//! repetition's, for the same reason the other way round: a heap earlier
//! repetitions have grown says nothing about one mesh.

use std::mem::size_of;
use std::time::Instant;
use tapestry_core::{
    BootstrapStage, Msg, NodeRef, PtrEntry, RoutingTable, TapestryConfig, TapestryNetwork,
    TapestryNode,
};
use tapestry_id::Id;
use tapestry_metric::TorusSpace;

const SEED: u64 = 42;
const REPS: usize = 3;
/// Levels below this one hold every member; from it on only the few
/// whose prefix is still shared.
const DEEP: usize = 4;

/// `VmRSS` and `VmHWM` of this process in MB, `None` where there is no
/// `/proc/self/status` to read.
fn resident_mb() -> Option<(f64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let mb = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
    };
    Some((mb("VmRSS:")?, mb("VmHWM:")?))
}

fn resident_row(at: &str, reading: Option<(f64, f64)>, nodes: usize) -> String {
    let per_node = |mb: f64| mb * 1024.0 * 1024.0 / nodes as f64;
    match reading {
        Some((rss, hwm)) => format!(
            "  {at:<17} VmRSS {rss:7.1} MB ({:.0} B/node)  VmHWM {hwm:7.1} MB ({:.0} B/node)",
            per_node(rss),
            per_node(hwm)
        ),
        None => format!("  {at:<17} VmRSS n/a  VmHWM n/a"),
    }
}

fn main() {
    let mut nodes = 25_000usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().and_then(|v| v.parse().ok())) {
            ("--nodes", Some(n)) if n >= 2 => nodes = n,
            _ => {
                eprintln!("usage: bootstrap_stages [--nodes N]   (N >= 2)");
                std::process::exit(2);
            }
        }
    }
    let side = 1000.0 * (nodes as f64 / 64.0).sqrt();
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut memory: Vec<String> = Vec::new();
    for rep in 0..REPS {
        let space = TorusSpace::random(nodes, side, SEED);
        let (mut add, mut query, mut query_deep, mut apply, mut backptrs) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let start = Instant::now();
        let mut last = start;
        let mut net = TapestryNetwork::bootstrap_observed(
            TapestryConfig::default(),
            Box::new(space),
            SEED,
            nodes,
            &mut |stage| {
                let secs = last.elapsed().as_secs_f64();
                last = Instant::now();
                match stage {
                    BootstrapStage::NodesAdded => add += secs,
                    BootstrapStage::LevelQueried(l) if l < DEEP => query += secs,
                    BootstrapStage::LevelQueried(_) => query_deep += secs,
                    BootstrapStage::LevelApplied(_) => apply += secs,
                    BootstrapStage::Backpointers => backptrs += secs,
                }
            },
        );
        let bootstrap = start.elapsed().as_secs_f64();
        let after_bootstrap = resident_mb();
        let t = Instant::now();
        let (optimal, total) = net.check_property2();
        let p2_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let violations = net.check_property1().len();
        let p1_secs = t.elapsed().as_secs_f64();
        let after_sweeps = resident_mb();
        let t = Instant::now();
        for _ in 0..nodes / 2 {
            let (server, guid) = (net.random_member(), net.random_guid());
            net.publish(server, guid);
        }
        let publish_secs = t.elapsed().as_secs_f64();
        let after_publish = resident_mb();
        let members = || net.members().iter().map(|&m| net.node(m).expect("member"));
        let entries: usize = members().map(|n| n.table().entry_count()).sum();
        let backpointers: usize = members().map(|n| n.backpointers().count()).sum();
        let pointers: usize = members().map(|n| n.store().ptr_count()).sum();
        if rep == 0 {
            let filled: usize = members()
                .map(|n| {
                    let t = n.table();
                    (0..t.levels())
                        .flat_map(|l| (0..t.base() as u8).map(move |j| (l, j)))
                        .filter(|&(l, j)| !t.slot(l, j).is_empty())
                        .count()
                })
                .sum();
            let heap: usize = members().map(TapestryNode::heap_bytes).sum();
            let store_heap: usize = members().map(|n| n.store().heap_bytes()).sum();
            let mean = |total: usize| total as f64 / nodes as f64;
            memory = vec![
                resident_row("after bootstrap", after_bootstrap, nodes),
                resident_row("after the sweeps", after_sweeps, nodes),
                resident_row("after the publish", after_publish, nodes),
                format!(
                    "  size_of: Id {} B, table entry {} B, NodeRef {} B, PtrEntry {} B, Msg {} B, \
                     TapestryNode {} B",
                    size_of::<Id>(),
                    RoutingTable::ENTRY_BYTES,
                    size_of::<NodeRef>(),
                    size_of::<PtrEntry>(),
                    size_of::<Msg>(),
                    size_of::<TapestryNode>()
                ),
                format!(
                    "  mean per node: {:.1} table entries in {:.1} filled slots, {:.1} backpointers",
                    mean(entries),
                    mean(filled),
                    mean(backpointers)
                ),
                format!("  heap_bytes/node {:.0}", mean(heap)),
                format!(
                    "  store heap_bytes/node {:.0}, per pointer {:.1} ({pointers} pointers of {} objects)",
                    mean(store_heap),
                    store_heap as f64 / pointers as f64,
                    nodes / 2
                ),
            ];
        }
        rows = vec![
            ("add nodes".into(), add),
            (format!("populate_tables queries, levels 0-{}", DEEP - 1), query),
            (format!("populate_tables queries, levels {DEEP}+"), query_deep),
            (format!("apply fills ({entries} table entries)"), apply),
            (format!("backpointers ({backpointers})"), backptrs),
            ("bootstrap".into(), bootstrap),
            (format!("check_property2 ({optimal}/{total} slots optimal)"), p2_secs),
            (format!("check_property1 ({violations} violations)"), p1_secs),
            (format!("publish {} objects ({pointers} pointers)", nodes / 2), publish_secs),
        ];
    }
    println!("{nodes}-node torus, seed {SEED}, 1 thread, repetition {REPS} of {REPS}");
    for (stage, secs) in rows {
        println!("{secs:8.3} s  {stage}");
    }
    println!("memory, repetition 1 of {REPS} (table entries + slot offsets + backpointers = heap_bytes):");
    for line in memory {
        println!("{line}");
    }
}

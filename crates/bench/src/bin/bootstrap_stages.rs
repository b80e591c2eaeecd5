//! Host seconds of each stage of the static bootstrap and of the two
//! Property sweeps — the stage table in README *Performance*.
//!
//! The mesh is the `bootstrap-checks` benchmark workload's: 25 000 nodes
//! on a torus at the presets' density, seed 42, one thread. The build is
//! repeated in-process and the last repetition is printed: the first one
//! pays the page faults of a fresh heap, which is not what the benchmark's
//! warmed-up `setup_s` times.

use std::time::Instant;
use tapestry_core::{BootstrapStage, TapestryConfig, TapestryNetwork};
use tapestry_metric::TorusSpace;

const NODES: usize = 25_000;
const SEED: u64 = 42;
const REPS: usize = 3;
/// Levels below this one hold every member; from it on only the few
/// whose prefix is still shared.
const DEEP: usize = 4;

fn main() {
    let side = 1000.0 * (NODES as f64 / 64.0).sqrt();
    let mut rows: Vec<(String, f64)> = Vec::new();
    for _ in 0..REPS {
        let space = TorusSpace::random(NODES, side, SEED);
        let (mut add, mut query, mut query_deep, mut apply, mut backptrs) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let start = Instant::now();
        let mut last = start;
        let net = TapestryNetwork::bootstrap_observed(
            TapestryConfig::default(),
            Box::new(space),
            SEED,
            NODES,
            1,
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
        let t = Instant::now();
        let (optimal, total) = net.check_property2();
        let p2_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let violations = net.check_property1().len();
        let p1_secs = t.elapsed().as_secs_f64();
        let entries: usize =
            net.members().iter().map(|&m| net.node(m).expect("member").table().entry_count()).sum();
        let backpointers: usize = net
            .members()
            .iter()
            .map(|&m| net.node(m).expect("member").backpointers().count())
            .sum();
        rows = vec![
            ("add nodes".into(), add),
            (format!("populate_tables queries, levels 0-{}", DEEP - 1), query),
            (format!("populate_tables queries, levels {DEEP}+"), query_deep),
            (format!("apply fills ({entries} table entries)"), apply),
            (format!("backpointers ({backpointers})"), backptrs),
            ("bootstrap".into(), bootstrap),
            (format!("check_property2 ({optimal}/{total} slots optimal)"), p2_secs),
            (format!("check_property1 ({violations} violations)"), p1_secs),
        ];
    }
    println!("{NODES}-node torus, seed {SEED}, 1 thread, repetition {REPS} of {REPS}");
    for (stage, secs) in rows {
        println!("{secs:8.3} s  {stage}");
    }
}

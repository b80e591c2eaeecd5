//! Scripted workloads: build a custom scenario with the spec builder,
//! run it, and read the percentile report.
//!
//! ```sh
//! cargo run --release --example scenario
//! ```
//!
//! The scenario below is a miniature "weekday": a warmup, graceful
//! join/leave churn under Zipf traffic, then a flash crowd on one hot
//! object — all deterministic from the single seed. It also shows
//! `TapestryNetwork::drain_results`, which hands drivers that want raw
//! per-op results instead of a report each finished locate once.

use tapestry::prelude::*;
use tapestry::workload::runner;

fn d(units: f64) -> SimTime {
    SimTime::from_distance(units)
}

fn main() {
    let spec = ScenarioSpec::new("weekday")
        .seed(2026)
        .capacity(96)
        .initial_nodes(64)
        .objects(32)
        .phase(
            PhaseSpec::new("warmup", d(15_000.0))
                .arrival(Arrival::Even { ops: 150 })
                .popularity(Popularity::Uniform)
                .checked(),
        )
        .phase(
            PhaseSpec::new("daily-churn", d(60_000.0))
                .arrival(Arrival::Poisson { ops: 400 })
                .popularity(Popularity::Zipf { exponent: 1.1 })
                .writes(0.1)
                .churn(ChurnSpec::Churn { joins: 12, leaves: 12, graceful: true, min_nodes: 48 })
                .churn(ChurnSpec::ProbeAt { at: 0.5 }),
        )
        .phase(
            PhaseSpec::new("flash-crowd", d(30_000.0))
                .arrival(Arrival::FlashCrowd { ops: 300, peak_ratio: 6.0 })
                .popularity(Popularity::Hotspot { hot: 0, weight: 0.75 })
                .checked(),
        );

    let report = runner::run(&spec).expect("valid spec");
    for p in &report.phases {
        println!(
            "{:12} nodes {:2}→{:2}  ops {:3} (lost {})  locate p50/p99 = {:.0}/{:.0}  hops p99 = {:.0}",
            p.name,
            p.nodes_start,
            p.nodes_end,
            p.ops.issued,
            p.ops.lost,
            p.latency.p50,
            p.latency.p99,
            p.hops.p99,
        );
        if let Some(inv) = &p.invariants {
            println!(
                "{:12} invariants: prop1 viol {}  prop2 {}/{}  unique roots {}/{}",
                "",
                inv.prop1_violations,
                inv.prop2_optimal,
                inv.prop2_total,
                inv.roots_unique,
                inv.roots_sampled,
            );
        }
    }
    println!(
        "total: {} ops, p50 latency {:.0}, {} messages, {} dropped",
        report.total_ops.completed,
        report.total_latency.p50,
        report.total_messages,
        report.total_dropped,
    );

    // ---- raw per-op results, for custom drivers ---------------------------
    let mut net = TapestryNetwork::build(
        TapestryConfig::default(),
        Box::new(TorusSpace::random(32, 1000.0, 1)),
        1,
    );
    let server = net.node_ids()[0];
    let guid = net.random_guid();
    net.publish(server, guid);
    for &origin in net.node_ids().iter().take(8) {
        net.locate_async(origin, guid);
    }
    net.run_to_idle();
    let hits = net.drain_results().iter().filter(|r| r.server.is_some()).count();
    println!("drain_results collected {hits} successful locates");
}

//! Churn: nodes join and leave while objects stay available.
//!
//! ```sh
//! cargo run --example churn
//! ```
//!
//! Exercises the paper's dynamic-membership machinery end to end: dynamic
//! insertion (Figs. 4 & 7), voluntary departure (Fig. 12), unannounced
//! failure with lazy repair (§5.2), and availability checks throughout.

use tapestry::prelude::*;

fn main() {
    let config = TapestryConfig::default();
    // 96 points; the first 64 are bootstrapped statically, the rest join
    // dynamically below.
    let space = TorusSpace::random(96, 1000.0, 7);
    let mut net = tapestry::core::TapestryNetwork::bootstrap(config, Box::new(space), 7, 64);
    println!("bootstrapped {} nodes", net.len());

    // Publish a working set.
    let mut objects = Vec::new();
    for i in 0..24 {
        let server = net.node_ids()[(i * 5) % net.len()];
        let guid = net.random_guid();
        net.publish(server, guid);
        objects.push(guid);
    }

    let availability = |net: &mut TapestryNetwork, objects: &[Guid], label: &str| {
        let mut ok = 0;
        for (i, &g) in objects.iter().enumerate() {
            let origin = net.node_ids()[(i * 13) % net.len()];
            if net.locate(origin, g).and_then(|r| r.server).is_some() {
                ok += 1;
            }
        }
        println!("{label}: {ok}/{} objects locatable", objects.len());
        ok
    };
    availability(&mut net, &objects, "baseline          ");

    // ---- dynamic joins (some simultaneous) --------------------------------
    let before = net.engine().stats().messages;
    for idx in 64..72 {
        assert!(net.insert_node(idx), "insertion completes");
    }
    // Four more join at the same instant (§4.4 simultaneous insertion).
    let members = net.node_ids();
    for (i, idx) in (72..76).enumerate() {
        net.insert_node_via(idx, members[i * 7]);
    }
    net.run_to_idle();
    for idx in 72..76 {
        assert!(net.finish_insert_bookkeeping(idx));
    }
    println!(
        "inserted 12 nodes ({} messages total, {:.0} per join)",
        net.engine().stats().messages - before,
        (net.engine().stats().messages - before) as f64 / 12.0
    );
    availability(&mut net, &objects, "after 12 joins    ");
    assert!(net.check_property1().is_empty(), "Property 1 after joins");

    // ---- coalesced joins: one shared multicast wave -----------------------
    let before = net.engine().stats().messages;
    let mut coalescer = JoinCoalescer::new(BatchPolicy {
        window: SimTime::from_distance(500.0),
        max_batch: 6,
        ready_timeout: SimTime::from_distance(5_000.0),
    });
    let gw = net.members()[0];
    for idx in 76..82 {
        coalescer.request(&mut net, idx, gw); // 6th request fills the batch
    }
    net.run_to_idle(); // surrogate discovery
    coalescer.pump(&mut net); // everyone ready: launch the shared wave
    net.run_to_idle();
    for idx in 76..82 {
        assert!(net.finish_insert_bookkeeping(idx), "batched join completes");
    }
    println!(
        "coalesced 6 joins into {} wave(s) ({} messages, {:.0} per join)",
        coalescer.outcome().waves,
        net.engine().stats().messages - before,
        (net.engine().stats().messages - before) as f64 / 6.0
    );
    availability(&mut net, &objects, "after batched join");
    assert!(net.check_property1().is_empty(), "Property 1 after batched joins");

    // ---- voluntary departures (Fig. 12) -----------------------------------
    for _ in 0..6 {
        let leaver = net
            .node_ids()
            .into_iter()
            .find(|&m| net.node(m).is_some_and(|n| n.store().local_objects().count() == 0))
            .expect("non-publisher exists");
        assert!(net.leave(leaver), "voluntary leave completes");
    }
    availability(&mut net, &objects, "after 6 departures");

    // ---- unannounced failures + lazy repair (§5.2) ------------------------
    for _ in 0..4 {
        let victim = net
            .node_ids()
            .into_iter()
            .find(|&m| net.node(m).is_some_and(|n| n.store().local_objects().count() == 0))
            .expect("non-publisher exists");
        net.kill(victim);
    }
    net.probe_all(); // probe round: detect, patch tables, republish
    let ok = availability(&mut net, &objects, "after 4 failures  ");
    assert_eq!(ok, objects.len(), "lazy repair restored full availability");
    let violations = net.check_property1().len();
    println!("final size: {} nodes, Property 1 violations: {violations}", net.len());
    assert_eq!(violations, 0, "mesh consistency maintained through churn");
}

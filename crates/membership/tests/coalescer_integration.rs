//! The coalescer against a live network: window and batch-size flushes,
//! wave launching, solo joins under a disabled policy, and straggler
//! abandonment.

use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_membership::{BatchPolicy, JoinCoalescer};
use tapestry_metric::TorusSpace;
use tapestry_sim::SimTime;
use tapestry_trace::metrics;

fn boot(total: usize, n0: usize, seed: u64) -> TapestryNetwork {
    let space = TorusSpace::random(total, 1000.0, seed);
    TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, n0)
}

fn policy() -> BatchPolicy {
    BatchPolicy {
        window: SimTime::from_distance(500.0),
        max_batch: 4,
        ready_timeout: SimTime::from_distance(5_000.0),
    }
}

#[test]
fn full_batch_flushes_early_and_joins_complete() {
    let mut net = boot(40, 32, 5);
    let mut c = JoinCoalescer::new(policy());
    let gw = net.members()[0];
    for idx in 32..36 {
        c.request(&mut net, idx, gw); // 4th request fills the batch
    }
    // Discovery, then the wave, then the table builds.
    for _ in 0..3 {
        net.run_to_idle();
        c.pump(&mut net);
    }
    net.run_to_idle();
    for idx in 32..36 {
        assert!(net.finish_insert_bookkeeping(idx), "batched join {idx} completed");
    }
    let o = c.outcome();
    assert_eq!(o.waves, 1, "one shared wave for the full batch: {o:?}");
    assert_eq!(o.batched_joins, 4);
    assert_eq!(o.solo_joins, 0);
    assert_eq!(o.abandoned, 0);
    assert!(c.is_idle());
    assert_eq!(metrics::MULTICAST_BATCH_WAVES.read(net.engine().stats()), 1);
    assert_eq!(metrics::INSERT_COMPLETED.read(net.engine().stats()), 4);
}

#[test]
fn window_expiry_flushes_a_partial_batch() {
    let mut net = boot(40, 32, 7);
    let mut c = JoinCoalescer::new(policy());
    let gw = net.members()[0];
    c.request(&mut net, 32, gw);
    c.request(&mut net, 33, gw);
    // Let simulated time pass the window, then pump.
    net.run_to_idle();
    let past_window = net.engine().now() + SimTime::from_distance(600.0);
    net.run_until(past_window);
    c.pump(&mut net);
    net.run_to_idle();
    c.pump(&mut net); // wave may have needed a second look after drain
    net.run_to_idle();
    for idx in 32..34 {
        assert!(net.finish_insert_bookkeeping(idx), "windowed join {idx} completed");
    }
    assert_eq!(c.outcome().waves, 1);
    assert_eq!(c.outcome().batched_joins, 2);
}

#[test]
fn disabled_policy_takes_the_solo_path() {
    let mut net = boot(34, 32, 9);
    let mut c = JoinCoalescer::new(BatchPolicy::disabled());
    let gw = net.members()[0];
    c.request(&mut net, 32, gw);
    net.run_to_idle();
    assert!(net.finish_insert_bookkeeping(32));
    assert_eq!(c.outcome().solo_joins, 1);
    assert_eq!(c.outcome().waves, 0, "no coalescing");
    assert!(c.is_idle(), "solo joins never occupy the coalescer");
    // The solo join ran its own wave of one.
    let stats = net.engine().stats();
    assert_eq!(metrics::MULTICAST_BATCH_WAVES.read(stats), 1);
    assert_eq!(metrics::MULTICAST_BATCH_JOINS.read(stats), 1);
    assert_eq!(metrics::INSERT_STARTED.read(stats), 1);
}

#[test]
fn force_launches_whoever_is_ready() {
    let mut net = boot(40, 32, 11);
    let mut c = JoinCoalescer::new(policy());
    let gw = net.members()[0];
    c.request(&mut net, 32, gw);
    c.request(&mut net, 33, gw);
    // Phase-end style drain: idle the engine, then force.
    net.run_to_idle();
    c.force(&mut net);
    net.run_to_idle();
    for idx in 32..34 {
        assert!(net.finish_insert_bookkeeping(idx), "forced join {idx} completed");
    }
    assert!(c.is_idle());
    assert_eq!(c.outcome().waves, 1);
}

//! The engine's completion feed: handlers call `Ctx::notify_driver`, the
//! driver drains `Engine::take_notified`. The feed must list nodes in
//! event pop order, hold each node at most once
//! (so it is bounded by the population whatever the driver does), and
//! shrug off nodes that are removed before the driver collects.

use tapestry_metric::RingSpace;
use tapestry_sim::{Actor, Ctx, Engine, NodeIdx};

/// Notifies the driver `msg` times on every receipt.
struct Notifier;

impl Actor for Notifier {
    type Msg = u32;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _from: NodeIdx, times: u32) {
        for _ in 0..times {
            ctx.notify_driver();
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, ()>, _timer: ()) {}
}

fn engine(n: usize) -> Engine<Notifier> {
    let mut e = Engine::new(Box::new(RingSpace::even(n, 1000.0)));
    for i in 0..n {
        e.add_node(i, Notifier);
    }
    e
}

#[test]
fn feed_lists_notifiers_in_pop_order_and_drains() {
    let mut e = engine(8);
    // Same-instant injections pop in injection order; node 4 stays silent.
    for (node, times) in [(5, 1), (2, 1), (4, 0), (7, 1)] {
        e.inject(node, times);
    }
    e.run_until_idle(100);
    assert_eq!(e.take_notified(), vec![5, 2, 7]);
    let idle = e.take_notified();
    assert!(idle.is_empty());
    assert_eq!(idle.capacity(), 0, "an idle drain allocates nothing");
}

#[test]
fn feed_lists_a_same_instant_burst_in_pop_order() {
    // 300 distinct nodes notify at one instant, injected in a scrambled
    // order: the feed follows the pop (injection) order, not node order.
    const N: usize = 300;
    let order: Vec<NodeIdx> = (0..N).map(|i| (i * 7) % N).collect(); // 7 ⊥ 300: a permutation
    let mut e = engine(N);
    for &node in &order {
        e.inject(node, (node % 3) as u32); // every third node stays silent
    }
    assert_eq!(e.run_until_idle(10_000), N as u64);
    let expected: Vec<NodeIdx> = order.iter().copied().filter(|n| n % 3 != 0).collect();
    assert_eq!(e.take_notified(), expected);
}

#[test]
fn a_node_is_listed_once_however_often_it_notifies() {
    let mut e = engine(4);
    e.inject(3, 5); // five notifications from one handler
    e.inject(3, 2); // and more from a second event
    e.inject(1, 1);
    e.run_until_idle(100);
    assert_eq!(e.take_notified(), vec![3, 1]);
    // Draining re-arms the node.
    e.inject(3, 1);
    e.run_until_idle(100);
    assert_eq!(e.take_notified(), vec![3]);
}

#[test]
fn an_undrained_feed_is_bounded_by_the_population() {
    let mut e = engine(16);
    for round in 0..10 {
        for node in 0..16 {
            e.inject((node + round) % 16, 3);
        }
        e.run_until_idle(1000);
    }
    assert_eq!(e.take_notified().len(), 16);
}

#[test]
fn a_notifier_removed_before_collection_is_harmless() {
    let mut e = engine(4);
    e.inject(1, 1);
    e.inject(2, 1);
    e.run_until_idle(100);
    assert!(e.remove_node(1).is_some());
    // The feed records that node 1 *had* output; liveness is the
    // driver's question to ask.
    assert_eq!(e.take_notified(), vec![1, 2]);
    assert!(!e.alive(1));
    // A successor at the same point gets a fresh listing — also when the
    // predecessor's entry was never drained.
    e.inject(2, 1);
    e.run_until_idle(100);
    e.remove_node(2);
    e.add_node(1, Notifier);
    e.add_node(2, Notifier);
    e.inject(1, 1);
    e.inject(2, 1);
    e.run_until_idle(100);
    assert_eq!(e.take_notified(), vec![2, 1]);
}

//! Engine-level determinism on a deep queue. The in-crate tests run 8
//! nodes and 64 events — one time bucket, no refill. Here 2 000 nodes fan
//! 120 000 sends out of one instant over a ring wide enough to spread
//! them across thousands of far buckets, with same-instant self-timers,
//! removed nodes and failure notices in the mix, and every observable
//! must be identical from one run to the next.

use tapestry_metric::RingSpace;
use tapestry_sim::{Actor, Ctx, Engine, NodeIdx, SimTime};

const N: usize = 2_000;
const FANOUT: u32 = 60;
/// Message that makes a node fan out; anything else is hops left.
const KICK: u32 = u32::MAX;

/// A deterministic scatter of peers over the whole ring.
fn peer(me: NodeIdx, i: u32) -> NodeIdx {
    (me * 31 + i as usize * 977 + 1) % N
}

#[derive(Default)]
struct Fan {
    received: u32,
    timers: u32,
    bounced: Vec<NodeIdx>,
}

impl Actor for Fan {
    type Msg = u32;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _from: NodeIdx, msg: u32) {
        if msg == KICK {
            for i in 0..FANOUT {
                ctx.send(peer(ctx.me, i), i % 3);
            }
            return;
        }
        self.received += 1;
        if self.received.is_multiple_of(7) {
            ctx.notify_driver();
        }
        if msg > 0 {
            ctx.send(peer(ctx.me, self.received), msg - 1);
        } else if self.received.is_multiple_of(5) {
            // Due at the instant being drained: lands below the horizon.
            ctx.set_timer(SimTime::ZERO, ());
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, ()>, _timer: ()) {
        self.timers += 1;
    }

    fn on_contact_failed(&mut self, _ctx: &mut Ctx<'_, u32, ()>, peer: NodeIdx) {
        self.bounced.push(peer);
    }
}

#[test]
fn deep_queue_run_is_identical_from_run_to_run() {
    let run = || {
        // 400 000 around: deliveries take up to 200 000 distance units,
        // about 3 000 of the queue's 64-unit buckets.
        let mut e: Engine<Fan> = Engine::new(Box::new(RingSpace::even(N, 400_000.0)), SimTime(1));
        for i in 0..N {
            e.add_node(i, Fan::default());
        }
        for i in 0..N {
            e.inject(i, KICK);
        }
        // The kick instant only: everything it sent is now in flight.
        assert_eq!(e.run_until(SimTime(1)), N as u64);
        let in_flight = e.pending();
        assert!(in_flight >= 100_000, "first instant left {in_flight} pending");
        // Unannounced departures: their in-flight mail drops and bounces.
        for i in (3..N).step_by(97) {
            e.remove_node(i);
        }
        let mut drained = 0;
        let mut notified = Vec::new();
        // Drain in slices so the completion feed is taken mid-run too.
        while !e.is_idle() {
            drained += e.run_until(e.now() + SimTime::from_distance(20_000.0));
            notified.push(e.take_notified());
        }
        let nodes: Vec<_> =
            (0..N).map(|i| e.node(i).map(|a| (a.received, a.timers, a.bounced.clone()))).collect();
        (
            (in_flight, drained, notified, nodes),
            (e.stats().messages, e.stats().timers, e.stats().dropped),
            e.stats().distance.to_bits(),
            (e.events_processed(), e.events_by_kind(), e.now()),
        )
    };
    let first = run();
    let (_, (_, timers, dropped), _, (_, by_kind, _)) = &first;
    assert!(*timers > 0 && *dropped > 0 && by_kind[2] > 0, "timers, drops and bounces all occur");
    assert!(first == run(), "two runs of one schedule diverged");
}

use crate::shard::ShardedQueue;
use crate::{Histogram, SimStats, SimTime, Slot, TraceRecord};
use tapestry_metric::MetricSpace;

/// Index of a node. Node indices coincide with point indices of the
/// underlying [`MetricSpace`]: node `i` sits at point `i`.
pub type NodeIdx = usize;

/// Sentinel "sender" for messages injected from outside the network
/// (e.g. a test driver or an application issuing a query).
pub const EXTERNAL: NodeIdx = usize::MAX;

/// Node behaviour: a deterministic state machine driven by messages and
/// timers. All outbound effects go through the [`Ctx`] so the engine can
/// account for every send.
pub trait Actor {
    /// Message type exchanged between nodes.
    type Msg;
    /// Timer payload type.
    type Timer;

    /// Handle a message delivered from `from` (possibly [`EXTERNAL`]).
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        from: NodeIdx,
        msg: Self::Msg,
    );

    /// Handle an expired timer previously set through [`Ctx::set_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, timer: Self::Timer);

    /// A message this node sent to `peer` bounced off a dead target — the
    /// transport-level failure notice behind repair's "failed Hello"
    /// facts. Partition drops and external injections never bounce. The
    /// default ignores the notice.
    fn on_contact_failed(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, peer: NodeIdx) {
        let _ = (ctx, peer);
    }
}

/// Handler-side view of the engine: lets a node send messages, set timers
/// and measure distances, while every cost is recorded centrally. It
/// borrows the engine fields a handler's effects land in (all disjoint
/// from the actor the handler runs on), so a send is accounted and queued
/// at the moment it is issued.
pub struct Ctx<'a, M, T> {
    /// Current simulated time.
    pub now: SimTime,
    /// The node this handler runs on.
    pub me: NodeIdx,
    metric: &'a dyn MetricSpace,
    stats: &'a mut SimStats,
    queue: &'a mut ShardedQueue<Event<M, T>>,
    seq: &'a mut u64,
    proc_delay: SimTime,
    notified: &'a mut Vec<NodeIdx>,
    listed: &'a mut [bool],
}

impl<M, T> Ctx<'_, M, T> {
    /// Send `msg` to `to`; it arrives after the metric latency plus the
    /// engine's fixed processing delay.
    pub fn send(&mut self, to: NodeIdx, msg: M) {
        let d = if to == self.me { 0.0 } else { self.metric.distance(self.me, to) };
        self.stats.messages += 1;
        self.stats.distance += d;
        let at = self.now + self.proc_delay + SimTime::from_distance(d);
        self.push(at, to, Event::Deliver { from: self.me, msg });
    }

    /// Arm a timer that fires on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, timer: T) {
        self.push(self.now + delay, self.me, Event::Fire { timer });
    }

    /// Tell the driver this node has output to collect: the node joins
    /// the engine's completion feed ([`Engine::take_notified`]) — once,
    /// however often it notifies before the driver drains the feed — so
    /// the feed fills in event pop order.
    pub fn notify_driver(&mut self) {
        if !std::mem::replace(&mut self.listed[self.me], true) {
            self.notified.push(self.me);
        }
    }

    fn push(&mut self, at: SimTime, node: NodeIdx, ev: Event<M, T>) {
        *self.seq += 1;
        self.queue.push(at, *self.seq, node, ev);
    }

    /// Metric distance between two nodes.
    ///
    /// In a deployment this is a cached RTT measurement; the exchanges the
    /// paper's pseudocode performs (e.g. `GetNextList` contacting every
    /// candidate) are where measurements happen, and those exchanges are
    /// real messages here too — so reading the metric directly does not
    /// hide any accounted cost.
    pub fn distance(&self, a: NodeIdx, b: NodeIdx) -> f64 {
        self.metric.distance(a, b)
    }

    /// Distance from this node to `other`.
    pub fn distance_to(&self, other: NodeIdx) -> f64 {
        self.metric.distance(self.me, other)
    }

    /// Bump the statistics counter in `slot`.
    pub fn count(&mut self, slot: Slot, v: u64) {
        self.stats.add(slot, v);
    }

    /// Record a sample into the statistics histogram in `slot`.
    pub fn record(&mut self, slot: Slot, v: u64) {
        self.stats.record(slot, v);
    }

    /// Is hop tracing on for this run? Handlers gate their record
    /// construction on this so the untraced path costs one branch.
    pub fn trace_enabled(&self) -> bool {
        self.stats.trace_enabled()
    }

    /// Emit one causal hop record into the bounded trace collector
    /// (no-op when tracing is off).
    pub fn trace(&mut self, rec: TraceRecord) {
        self.stats.trace_push(rec);
    }
}

/// What happens at a node. The node itself is not stored here: it is the
/// queue's node key, handed back by every pop.
enum Event<M, T> {
    Deliver {
        from: NodeIdx,
        msg: M,
    },
    Fire {
        timer: T,
    },
    /// Failure notice: a message the node sent to `peer` found it dead.
    /// Arrives after the round trip (the sender learns by its own
    /// timeout/ICMP analogue).
    ContactFailed {
        peer: NodeIdx,
    },
}

impl<M, T> Event<M, T> {
    /// Index into the per-kind event counters (see [`EVENT_KINDS`]).
    fn kind_idx(&self) -> usize {
        match *self {
            Event::Deliver { .. } => 0,
            Event::Fire { .. } => 1,
            Event::ContactFailed { .. } => 2,
        }
    }
}

/// Display names of the event kinds, indexed like
/// [`Engine::events_by_kind`]: deliveries, timer fires, contact-failure
/// notices.
pub const EVENT_KINDS: [&str; 3] = ["deliver", "timer", "contact_failed"];

/// The discrete-event engine: an event queue over a population of actors
/// placed at the points of a metric space.
pub struct Engine<A: Actor> {
    now: SimTime,
    seq: u64,
    /// Pending events; pops follow the exact `(at, seq)` total order of
    /// a single heap (see [`ShardedQueue`]).
    queue: ShardedQueue<Event<A::Msg, A::Timer>>,
    actors: Vec<Option<A>>,
    metric: Box<dyn MetricSpace>,
    stats: SimStats,
    proc_delay: SimTime,
    /// Total events popped over the engine's lifetime (deliveries, timer
    /// fires, and drops alike) — the denominator of events/sec reporting.
    events_processed: u64,
    /// `events_processed` split by event kind (see [`EVENT_KINDS`]),
    /// counted at pop time.
    events_by_kind: [u64; 3],
    /// Per-event-kind handler wall time in nanoseconds, recorded only
    /// when [`Engine::set_profile`] is on. Observational: wall clock
    /// never feeds simulated behaviour, and these histograms live outside
    /// [`SimStats`] so deterministic reports cannot see them.
    handler_ns: [Histogram; 3],
    /// Record handler wall time into `handler_ns`?
    profile: bool,
    /// Active network partition: group id per point. Messages whose
    /// endpoints fall in different groups are dropped at delivery time
    /// (so a heal lets *later* sends through but cannot resurrect
    /// messages lost while the cut was up).
    partition: Option<Vec<u32>>,
    /// The completion feed: nodes that called [`Ctx::notify_driver`]
    /// since the last [`Engine::take_notified`], in event pop order.
    /// `listed` keeps each node in it at most once, so it never outgrows
    /// the population even if the driver never drains it.
    notified: Vec<NodeIdx>,
    /// `listed[i]`: node `i` is currently in `notified`.
    listed: Vec<bool>,
}

impl<A: Actor> Engine<A> {
    /// Bytes the queue holds per pending event — slab entry (node key and
    /// event, message inline) plus ordering key — so the queue of a burst
    /// of `n` pending events costs `n · BYTES_PER_PENDING`.
    pub const BYTES_PER_PENDING: usize = ShardedQueue::<Event<A::Msg, A::Timer>>::BYTES_PER_PENDING;

    /// Create an engine over `metric`; every point starts empty (no node).
    ///
    /// `proc_delay` is the fixed per-message processing latency added on
    /// top of the metric latency (it also serializes self-sends, keeping
    /// causality strict even at distance zero).
    pub fn new(metric: Box<dyn MetricSpace>, proc_delay: SimTime) -> Self {
        let n = metric.len();
        let mut actors = Vec::with_capacity(n);
        actors.resize_with(n, || None);
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: ShardedQueue::new(0, 0, 0),
            actors,
            metric,
            stats: SimStats::default(),
            proc_delay,
            events_processed: 0,
            events_by_kind: [0; 3],
            handler_ns: [Histogram::default(), Histogram::default(), Histogram::default()],
            profile: false,
            partition: None,
            notified: Vec::new(),
            listed: vec![false; n],
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cost counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Mutable cost counters (drivers tag experiment phases).
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// The underlying metric space.
    pub fn metric(&self) -> &dyn MetricSpace {
        &*self.metric
    }

    /// Place an actor at point `idx`.
    ///
    /// # Panics
    /// If the point is occupied or out of range.
    pub fn add_node(&mut self, idx: NodeIdx, actor: A) {
        assert!(idx < self.actors.len(), "point index out of range");
        assert!(self.actors[idx].is_none(), "point {idx} already occupied");
        self.actors[idx] = Some(actor);
    }

    /// Remove the actor at `idx` (involuntary failure or the final step of
    /// a voluntary departure). In-flight messages to it will be dropped.
    /// `None` when no node is there, including an out-of-range `idx`.
    pub fn remove_node(&mut self, idx: NodeIdx) -> Option<A> {
        self.actors.get_mut(idx).and_then(Option::take)
    }

    /// Is a node alive at `idx`?
    pub fn alive(&self, idx: NodeIdx) -> bool {
        idx < self.actors.len() && self.actors[idx].is_some()
    }

    /// Shared view of a node's state.
    pub fn node(&self, idx: NodeIdx) -> Option<&A> {
        self.actors.get(idx).and_then(|a| a.as_ref())
    }

    /// Exclusive view of a node's state (for test setup / invariant checks).
    pub fn node_mut(&mut self, idx: NodeIdx) -> Option<&mut A> {
        self.actors.get_mut(idx).and_then(|a| a.as_mut())
    }

    /// Partition the network: point `i` belongs to group `groups[i]`, and
    /// node-to-node messages crossing group boundaries are dropped at
    /// delivery time (counted in [`SimStats::partition_dropped`]).
    /// Externally injected messages and timers are unaffected.
    ///
    /// # Panics
    /// If `groups` does not assign a group to every point.
    pub fn set_partition(&mut self, groups: Vec<u32>) {
        assert_eq!(groups.len(), self.actors.len(), "one group per point");
        self.partition = Some(groups);
    }

    /// Heal the partition: all subsequent deliveries go through again.
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Is a partition currently in force?
    pub fn partition_active(&self) -> bool {
        self.partition.is_some()
    }

    /// Drain the completion feed: every node that called
    /// [`Ctx::notify_driver`] since the previous call, once each, in the
    /// pop order of the events that notified first. O(1) and
    /// allocation-free when nothing notified. A listed node may have been
    /// removed since — the feed records that it *had* output, not that it
    /// is still alive.
    pub fn take_notified(&mut self) -> Vec<NodeIdx> {
        let ready = std::mem::take(&mut self.notified);
        for &node in &ready {
            self.listed[node] = false;
        }
        ready
    }

    /// Inject a message from outside the network; it is delivered to `to`
    /// after the processing delay.
    pub fn inject(&mut self, to: NodeIdx, msg: A::Msg) {
        let at = self.now + self.proc_delay;
        self.push(at, to, Event::Deliver { from: EXTERNAL, msg });
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `ev` to happen at `node` at time `at`.
    fn push(&mut self, at: SimTime, node: NodeIdx, ev: Event<A::Msg, A::Timer>) {
        self.seq += 1;
        self.queue.push(at, self.seq, node, ev);
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events processed split by kind, indexed like [`EVENT_KINDS`].
    pub fn events_by_kind(&self) -> [u64; 3] {
        self.events_by_kind
    }

    /// Enable (or disable) per-event-kind handler wall-time profiling.
    /// Observation only: simulated behaviour and deterministic reports
    /// are unaffected at either setting.
    pub fn set_profile(&mut self, enabled: bool) {
        self.profile = enabled;
    }

    /// Handler wall-time histograms in nanoseconds, indexed like
    /// [`EVENT_KINDS`]. Empty unless [`Engine::set_profile`] was on while
    /// events drained.
    pub fn handler_ns(&self) -> &[Histogram; 3] {
        &self.handler_ns
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_due(SimTime(u64::MAX))
    }

    /// Process the next event if it is due at or before `deadline`.
    /// Returns `false` when it is not, or the queue is empty. Every event
    /// the engine ever dispatches goes through here.
    fn step_due(&mut self, deadline: SimTime) -> bool {
        let Some((at, _, node, ev)) = self.queue.pop_due(deadline) else {
            return false;
        };
        self.events_processed += 1;
        let kind = ev.kind_idx();
        self.events_by_kind[kind] += 1;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        if let (Event::Deliver { from, .. }, Some(groups)) = (&ev, &self.partition) {
            if *from != EXTERNAL && groups[*from] != groups[node] {
                self.stats.partition_dropped += 1;
                return true;
            }
        }
        // The handler runs on the actor where it sits: `actors` and the
        // fields `Ctx` borrows are disjoint, so nothing is moved out.
        let Some(actor) = self.actors.get_mut(node).and_then(Option::as_mut) else {
            // Timers and failure notices on dead nodes are inert; a
            // message is counted as dropped and bounces: a node sender
            // hears `on_contact_failed` after the return latency. A
            // partition drop returned above, so a cut link stays silence.
            if let Event::Deliver { from, .. } = ev {
                self.stats.dropped += 1;
                if from != EXTERNAL {
                    let d = if from == node { 0.0 } else { self.metric.distance(node, from) };
                    let at = self.now + self.proc_delay + SimTime::from_distance(d);
                    self.push(at, from, Event::ContactFailed { peer: node });
                }
            }
            return true;
        };
        // Observation only: handler wall time lands in `handler_ns`,
        // never in simulated state.
        let started = if self.profile {
            Some(std::time::Instant::now()) // tapestry-lint: allow(wall-clock)
        } else {
            None
        };
        let mut ctx = Ctx {
            now: self.now,
            me: node,
            metric: &*self.metric,
            stats: &mut self.stats,
            queue: &mut self.queue,
            seq: &mut self.seq,
            proc_delay: self.proc_delay,
            notified: &mut self.notified,
            listed: &mut self.listed,
        };
        match ev {
            Event::Deliver { from, msg } => actor.on_message(&mut ctx, from, msg),
            Event::Fire { timer } => {
                ctx.stats.timers += 1;
                actor.on_timer(&mut ctx, timer);
            }
            Event::ContactFailed { peer } => actor.on_contact_failed(&mut ctx, peer),
        }
        if let Some(t0) = started {
            self.handler_ns[kind].record(t0.elapsed().as_nanos() as u64);
        }
        true
    }

    /// Run until the queue drains or `max_events` have been processed.
    /// Returns the number of events processed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Run while the next event is at or before `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while self.step_due(deadline) {
            n += 1;
        }
        self.now = self.now.max(deadline);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_metric::RingSpace;

    const TICKS: Slot = Slot(0);

    /// Ping-pong actor: replies `n - 1` until zero, counting receipts.
    struct Pinger {
        peer: NodeIdx,
        received: u32,
    }

    impl Actor for Pinger {
        type Msg = u32;
        type Timer = &'static str;

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, &'static str>, _from: NodeIdx, msg: u32) {
            self.received += 1;
            if msg > 0 {
                ctx.send(self.peer, msg - 1);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, &'static str>, timer: &'static str) {
            assert_eq!(timer, "tick");
            ctx.count(TICKS, 1);
        }
    }

    fn engine2() -> Engine<Pinger> {
        let space = RingSpace::even(2, 100.0);
        let mut e = Engine::new(Box::new(space), SimTime(1));
        e.add_node(0, Pinger { peer: 1, received: 0 });
        e.add_node(1, Pinger { peer: 0, received: 0 });
        e
    }

    #[test]
    fn ping_pong_counts_messages_and_distance() {
        let mut e = engine2();
        e.inject(0, 4); // 4 replies follow the injection
        let processed = e.run_until_idle(1000);
        assert_eq!(processed, 5, "injection + 4 bounced messages");
        assert_eq!(e.stats().messages, 4, "injection is not a node send");
        // Each bounced message crosses the 50.0 half-ring.
        assert!((e.stats().distance - 200.0).abs() < 1e-9);
        assert_eq!(e.node(0).unwrap().received + e.node(1).unwrap().received, 5);
    }

    #[test]
    fn latency_orders_delivery() {
        let mut e = engine2();
        e.inject(0, 0);
        e.run_until_idle(10);
        // Message took proc_delay only (external). Node 0 received at t=1.
        assert_eq!(e.now(), SimTime(1));
        e.inject(0, 1);
        e.run_until_idle(10);
        // Reply traveled distance 50 → 50*1024 units + 2 proc delays.
        assert_eq!(e.now().0, 1 + 1 + 1 + 50 * 1024);
    }

    #[test]
    fn messages_to_dead_nodes_drop() {
        let mut e = engine2();
        e.inject(0, 3);
        // Let the first hop get scheduled, then kill node 1.
        e.step();
        e.remove_node(1);
        e.run_until_idle(100);
        assert_eq!(e.stats().dropped, 1);
        assert_eq!(e.node(0).unwrap().received, 1);
    }

    /// Sender that records which peers bounced (failure-notice path).
    struct Bouncer {
        peer: NodeIdx,
        failures: Vec<NodeIdx>,
    }

    impl Actor for Bouncer {
        type Msg = u32;
        type Timer = &'static str;

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, &'static str>, _from: NodeIdx, msg: u32) {
            if msg > 0 {
                ctx.send(self.peer, msg - 1);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>, _timer: &'static str) {}

        fn on_contact_failed(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>, peer: NodeIdx) {
            self.failures.push(peer);
        }
    }

    fn bouncers() -> Engine<Bouncer> {
        let space = RingSpace::even(2, 100.0);
        let mut e = Engine::new(Box::new(space), SimTime(1));
        e.add_node(0, Bouncer { peer: 1, failures: Vec::new() });
        e.add_node(1, Bouncer { peer: 0, failures: Vec::new() });
        e
    }

    #[test]
    fn failure_notices_bounce_to_sender() {
        let mut e = bouncers();
        e.inject(0, 3);
        e.step(); // node 0 sends to 1
        e.remove_node(1);
        e.run_until_idle(100);
        assert_eq!(e.stats().dropped, 1, "the drop is still counted");
        assert_eq!(e.node(0).unwrap().failures, vec![1], "sender heard the bounce");
    }

    /// `step()` runs handlers on the actor in place; a removed target
    /// takes the other branch. The drop is counted once and the bounce is
    /// due one return trip after the drop.
    #[test]
    fn step_counts_one_drop_and_times_the_bounce() {
        let mut e = bouncers();
        e.inject(0, 3);
        assert!(e.step()); // t=1: node 0 sends to 1 across the 50.0 half-ring
        e.remove_node(1);
        assert!(e.step()); // the delivery finds node 1 gone
        let dropped_at = 1 + 1 + 50 * 1024;
        assert_eq!(e.now(), SimTime(dropped_at));
        assert_eq!((e.stats().dropped, e.pending()), (1, 1), "one drop, one bounce queued");
        assert!(e.step()); // the notice reaches node 0
        assert_eq!(e.now(), SimTime(dropped_at + 1 + 50 * 1024));
        assert_eq!(e.node(0).unwrap().failures, vec![1]);
        assert_eq!(e.events_by_kind(), [2, 0, 1]);
        assert!(!e.step());
        assert_eq!(e.stats().dropped, 1);
    }

    #[test]
    fn remove_node_tolerates_an_out_of_range_index() {
        let mut e = engine2();
        assert!(e.remove_node(2).is_none());
        assert!(e.remove_node(usize::MAX).is_none());
        assert!(e.remove_node(1).is_some());
        assert!(e.remove_node(1).is_none(), "already gone");
        assert!(e.alive(0) && !e.alive(1));
    }

    #[test]
    fn partition_drops_never_bounce() {
        let mut e = bouncers();
        e.set_partition(vec![0, 1]);
        e.inject(0, 3);
        e.run_until_idle(100);
        assert_eq!(e.stats().partition_dropped, 1);
        assert!(e.node(0).unwrap().failures.is_empty(), "a cut link is silence, not death");
    }

    /// An injection has no node to bounce to: it is counted as dropped
    /// and nothing else is queued.
    #[test]
    fn external_sends_never_bounce() {
        let mut e = bouncers();
        e.remove_node(1);
        e.inject(1, 3);
        e.run_until_idle(100);
        assert_eq!(e.stats().dropped, 1);
        assert_eq!(e.events_by_kind(), [1, 0, 0], "no notice was scheduled");
        assert!(e.node(0).unwrap().failures.is_empty());
    }

    #[test]
    fn timers_fire_in_order() {
        let space = RingSpace::even(1, 10.0);
        let mut e: Engine<Pinger> = Engine::new(Box::new(space), SimTime(1));
        e.add_node(0, Pinger { peer: 0, received: 0 });
        // Two timers set from outside via a message handler would need a
        // message; instead drive through node_mut + manual push is private,
        // so set timers through a handler: inject 0 (no reply) then check.
        e.inject(0, 0);
        e.run_until_idle(10);
        assert_eq!(e.stats().get(TICKS), 0);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = engine2();
        e.inject(0, 10);
        let before = e.run_until(SimTime(2));
        assert!(before >= 1);
        assert!(e.now() >= SimTime(2));
        assert!(!e.is_idle(), "long-latency replies still pending");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut e = engine2();
            e.inject(0, 7);
            e.inject(1, 7);
            e.run_until_idle(1000);
            (e.stats().messages, e.stats().distance.to_bits(), e.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partition_blocks_delivery_until_healed() {
        let mut e = engine2();
        e.set_partition(vec![0, 1]);
        e.inject(0, 5); // node 0 receives (external), reply to 1 is cut
        e.run_until_idle(100);
        assert_eq!(e.stats().partition_dropped, 1);
        assert_eq!(e.node(1).unwrap().received, 0);
        // After healing, traffic flows end to end again.
        e.clear_partition();
        assert!(!e.partition_active());
        e.inject(0, 2);
        e.run_until_idle(100);
        assert_eq!(e.node(1).unwrap().received, 1);
        assert_eq!(e.stats().partition_dropped, 1, "heal does not resurrect lost messages");
    }

    #[test]
    #[should_panic]
    fn partition_requires_group_per_point() {
        let mut e = engine2();
        e.set_partition(vec![0]);
    }

    #[test]
    #[should_panic]
    fn double_occupancy_rejected() {
        let mut e = engine2();
        e.add_node(0, Pinger { peer: 1, received: 0 });
    }

    #[test]
    fn events_processed_counts_all_pops() {
        let mut e = engine2();
        e.inject(0, 3);
        e.run_until_idle(1000);
        assert_eq!(e.events_processed(), 4, "injection + 3 bounces");
        // Drops count too: they are popped from the queue, and so is the
        // failure notice the drop bounces back to node 1.
        e.inject(1, 1);
        e.step();
        e.remove_node(0);
        e.run_until_idle(1000);
        assert_eq!(e.events_processed(), 7);
        assert_eq!(e.events_by_kind(), [6, 0, 1]);
        assert_eq!(e.stats().dropped, 1);
    }

    /// An actor that logs every receipt into a shared trace, for ordering
    /// stress tests: `(time, node, payload)` triples in processing order.
    struct Tracer {
        log: std::rc::Rc<std::cell::RefCell<Vec<(u64, NodeIdx, u32)>>>,
    }

    impl Actor for Tracer {
        type Msg = u32;
        type Timer = u32;

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: NodeIdx, msg: u32) {
            self.log.borrow_mut().push((ctx.now.0, ctx.me, msg));
            // Fan out same-instant work: a self-timer at zero delay and a
            // burst of timers landing on one shared future instant.
            if msg < 8 {
                ctx.set_timer(SimTime::ZERO, msg + 100);
                ctx.set_timer(SimTime(64 - ctx.now.0 % 64), msg + 200);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u32>, timer: u32) {
            self.log.borrow_mut().push((ctx.now.0, ctx.me, timer));
        }
    }

    /// Queue stress: many messages and timers collapsing onto identical
    /// timestamps must drain in a stable order — same-instant events in
    /// scheduling (FIFO) order, across runs. This pins the tie-breaking
    /// contract (`(at, seq)`) the pre-sized queue must preserve.
    #[test]
    fn stress_same_instant_ordering_is_stable_fifo() {
        let run = || {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let space = RingSpace::even(8, 64.0);
            let mut e: Engine<Tracer> = Engine::new(Box::new(space), SimTime(1));
            for i in 0..8 {
                e.add_node(i, Tracer { log: log.clone() });
            }
            // 64 injections, all delivered at the same instant t=1.
            for i in 0..64u32 {
                e.inject((i as usize) % 8, i % 8);
            }
            e.run_until_idle(100_000);
            assert!(e.is_idle());
            let trace = log.borrow().clone();
            trace
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical schedules must produce identical traces");
        // Times never go backwards, and the first 64 events (all at t=1)
        // arrive in injection (FIFO) order.
        for w in a.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards in trace");
        }
        let first: Vec<u32> = a
            .iter()
            .take(64)
            .map(|&(t, _, m)| {
                assert_eq!(t, 1);
                m
            })
            .collect();
        let expected: Vec<u32> = (0..64).map(|i| i % 8).collect();
        assert_eq!(first, expected, "same-instant deliveries keep scheduling order");
    }
}

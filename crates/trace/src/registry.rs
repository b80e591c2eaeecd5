//! The typed metrics registry: one declaration per metric the system
//! emits, binding together its **name**, its kind and a help line. A
//! metric has one name, declared once, here; where its value lives in
//! `SimStats` is a slot the `registry!` macro assigns (declaration order
//! within its kind) and nobody else chooses. Bumps are indexed adds;
//! names are resolved only where bytes are written
//! ([`metrics::counters`] / [`metrics::hists`] walk the slots in order).
//!
//! Namespace scheme (the counter-name audit's outcome):
//!
//! | namespace        | contents                                              |
//! |------------------|-------------------------------------------------------|
//! | `engine.*`       | event-loop builtins: events, messages, queue depth    |
//! | `routing.*`      | per-hop forwarding costs and locality fallbacks       |
//! | `locate.*`       | object location operations and their distributions    |
//! | `publish.*`      | publish path                                          |
//! | `availability.*` | §4.3 keep-objects-available machinery                 |
//! | `membership.*`   | insert/join protocol and acknowledged multicast       |
//! | `maintenance.*`  | optimize rounds and voluntary leaves                  |
//! | `repair.*`       | fact ledger, detection and targeted repairs           |

use tapestry_sim::{Ctx, Histogram, SimStats, Slot};

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Instantaneous level, sampled by the time-series sampler.
    Gauge,
    /// Distribution of per-operation samples.
    Histogram,
}

/// One registry entry.
#[derive(Debug)]
pub struct MetricDef {
    /// The metric's name (see the module table), as every report and
    /// `--metrics-json` print it.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// One-line description.
    pub help: &'static str,
}

/// The slot of the metric declared at `at`: its rank among the earlier
/// declarations of its own kind.
const fn slot_of(at: usize) -> Slot {
    let defs = metrics::REGISTRY;
    let (mut i, mut rank) = (0, 0);
    while i < at {
        if defs[i].kind as u8 == defs[at].kind as u8 {
            rank += 1;
        }
        i += 1;
    }
    Slot(rank)
}

/// Every declaration of `kind` with its slot, in slot order.
fn slotted(kind: MetricKind) -> impl Iterator<Item = (&'static MetricDef, Slot)> {
    let defs = metrics::REGISTRY.iter().enumerate();
    defs.filter(move |(_, def)| def.kind == kind).map(|(at, def)| (def, slot_of(at)))
}

/// Typed counter handle: a bump is an indexed add into `SimStats`.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    def: &'static MetricDef,
    slot: Slot,
}

impl Counter {
    const fn declared(at: usize) -> Self {
        Counter { def: &metrics::REGISTRY[at], slot: slot_of(at) }
    }

    /// The metric's name.
    pub fn name(&self) -> &'static str {
        self.def.name
    }

    /// Bump by one through a handler context.
    pub fn inc<M, T>(&self, ctx: &mut Ctx<'_, M, T>) {
        ctx.count(self.slot, 1);
    }

    /// Bump by `v` through a handler context.
    pub fn add<M, T>(&self, ctx: &mut Ctx<'_, M, T>, v: u64) {
        ctx.count(self.slot, v);
    }

    /// Bump by `v` directly on a stats accumulator (drivers, tests).
    pub fn add_to(&self, stats: &mut SimStats, v: u64) {
        stats.add(self.slot, v);
    }

    /// Current value in `stats` (0 when never bumped).
    pub fn read(&self, stats: &SimStats) -> u64 {
        stats.get(self.slot)
    }
}

/// Typed gauge handle. Gauges have no `SimStats` slot — they are sampled
/// levels the [`crate::SeriesSampler`] reports; the handle exists so the
/// name and help live in the registry like everything else.
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    def: &'static MetricDef,
}

impl Gauge {
    const fn declared(at: usize) -> Self {
        Gauge { def: &metrics::REGISTRY[at] }
    }

    /// The metric's name.
    pub fn name(&self) -> &'static str {
        self.def.name
    }
}

/// Typed histogram handle, slotted like [`Counter`].
#[derive(Debug, Clone, Copy)]
pub struct Hist {
    def: &'static MetricDef,
    slot: Slot,
}

impl Hist {
    const fn declared(at: usize) -> Self {
        Hist { def: &metrics::REGISTRY[at], slot: slot_of(at) }
    }

    /// The metric's name.
    pub fn name(&self) -> &'static str {
        self.def.name
    }

    /// Record one sample through a handler context.
    pub fn record<M, T>(&self, ctx: &mut Ctx<'_, M, T>, v: u64) {
        ctx.record(self.slot, v);
    }

    /// Record one sample directly on a stats accumulator.
    pub fn record_to(&self, stats: &mut SimStats, v: u64) {
        stats.record(self.slot, v);
    }

    /// The distribution in `stats` (`None` when nothing was recorded).
    pub fn read<'s>(&self, stats: &'s SimStats) -> Option<&'s Histogram> {
        stats.histogram(self.slot)
    }
}

macro_rules! kind_of {
    (Counter) => {
        MetricKind::Counter
    };
    (Gauge) => {
        MetricKind::Gauge
    };
    (Hist) => {
        MetricKind::Histogram
    };
}

macro_rules! registry {
    ($( $ty:ident $ident:ident : $name:literal, $help:literal; )*) => {
        /// Every metric the system emits, in declaration order.
        pub static REGISTRY: &[MetricDef] = &[
            $( MetricDef { name: $name, kind: kind_of!($ty), help: $help } ),*
        ];
        /// Position of each declaration in `REGISTRY`.
        #[expect(non_camel_case_types, reason = "a variant is named after its metric's static")]
        enum Decl { $( $ident ),* }
        $(
            #[doc = $help]
            pub static $ident: $ty = $ty::declared(Decl::$ident as usize);
        )*
    };
}

/// All metric declarations.
pub mod metrics {
    use super::{slotted, Counter, Gauge, Hist, MetricDef, MetricKind};

    /// Every counter, in slot order.
    pub fn counters() -> impl Iterator<Item = Counter> {
        slotted(MetricKind::Counter).map(|(def, slot)| Counter { def, slot })
    }

    /// Every histogram, in slot order.
    pub fn hists() -> impl Iterator<Item = Hist> {
        slotted(MetricKind::Histogram).map(|(def, slot)| Hist { def, slot })
    }

    registry! {
        // -- engine builtins (counted in `SimStats`' own fields) ---------
        Counter ENGINE_EVENTS: "engine.events",
            "Events popped from the queue (deliveries, timers, drops alike)";
        Counter ENGINE_MESSAGES: "engine.messages",
            "Node-to-node sends accounted by the engine";
        Counter ENGINE_DROPPED: "engine.dropped",
            "Messages addressed to departed nodes";
        Counter ENGINE_PARTITION_DROPPED: "engine.partition_dropped",
            "Messages dropped at an active partition cut";
        Counter ENGINE_TIMERS: "engine.timers",
            "Timer events fired";
        Gauge ENGINE_DISTANCE: "engine.distance",
            "Sum of metric distances of all sends (the paper's traffic measure)";
        Gauge ENGINE_LIVE_NODES: "engine.live_nodes",
            "Nodes alive at the sample instant";
        Gauge ENGINE_QUEUE_DEPTH: "engine.queue_depth",
            "Pending events at the sample instant";
        Hist ENGINE_HANDLER_NS: "engine.handler_ns",
            "Handler wall time per event kind, ns (observational; timing JSON only)";

        // -- routing ---------------------------------------------------
        Counter ROUTE_HOPS: "routing.hops",
            "Prefix-routing forwards taken by routed messages";
        Counter LOCALITY_RESUME_GLOBAL: "routing.locality.resume_global",
            "Local-branch routes that fell back to the global mesh";

        // -- locate / publish / availability ---------------------------
        Counter LOCATE_FOUND: "locate.found",
            "Locates that found a pointer and reached a server";
        Counter LOCATE_NOT_FOUND: "locate.not_found",
            "Locates that terminated at the root without a pointer";
        Counter PUBLISH_ROOTED: "publish.rooted",
            "Publishes that reached the object's root";
        Counter AVAILABILITY_BOUNCE_TO_SURROGATE: "availability.bounce_to_surrogate",
            "Not-found locates bounced to the pre-insertion surrogate (§4.3)";
        Hist LOCATE_LATENCY_UNITS: "locate.latency_units",
            "Locate round-trip latency in sim-time units";
        Hist LOCATE_LATENCY_UNITS_FOUND_LIVE: "locate.latency_units.found_live",
            "Locate latency restricted to found-and-live results";
        Hist LOCATE_HOPS: "locate.hops",
            "Overlay hops per locate";

        // -- membership: insert / join / multicast ---------------------
        Counter INSERT_STARTED: "membership.insert.started",
            "Node insertions started";
        Counter INSERT_COMPLETED: "membership.insert.completed",
            "Node insertions completed";
        Counter INSERT_BATCH_READY: "membership.insert.batch_ready",
            "Insertions released by a coalesced batch wave";
        Counter INSERT_GETPTR: "membership.insert.getptr",
            "Pointer-transfer fetches during insertion";
        Counter INSERT_LEVEL_TIMEOUT: "membership.insert.level_timeout",
            "Per-level acknowledgment deadlines that expired";
        Counter INSERT_ROOT_TRANSFERS: "membership.insert.root_transfers",
            "Object roots transferred to a newly inserted node";
        Counter INSERT_CHAINED_TRANSFERS: "membership.insert.chained_transfers",
            "Root transfers chained through a departing node";
        Counter JOIN_MESSAGES: "membership.join.messages",
            "Messages attributed to the join protocol";
        Counter MULTICAST_RECIPIENTS: "membership.multicast.recipients",
            "Nodes reached by acknowledged multicasts";
        Counter MULTICAST_EDGES: "membership.multicast.edges",
            "Multicast tree edges traversed";
        Counter MULTICAST_BATCH_WAVES: "membership.multicast.batch_waves",
            "Multicast waves launched (a solo join is a wave of one)";
        Counter MULTICAST_BATCH_JOINS: "membership.multicast.batch_joins",
            "Joins carried by multicast waves, solo or coalesced";
        Counter MULTICAST_BATCH_INSERTEES: "membership.multicast.batch_insertees",
            "Insertees carried into each wave recipient, summed";
        Counter MULTICAST_DEADLINE_FORCED: "membership.multicast.deadline_forced",
            "Wave sessions force-completed by their ack deadline";

        // -- maintenance: optimize rounds and leaves ------------------
        Counter OPTIMIZE_REPUBLISHED: "maintenance.optimize.republished",
            "Objects republished by optimize rounds";
        Counter OPTIMIZE_DELETED: "maintenance.optimize.deleted",
            "Stale pointers deleted by optimize rounds";
        Counter OPTIMIZE_TABLE_SHARES: "maintenance.optimize.table_shares",
            "Routing-table entries shared during optimize rounds";
        Counter LEAVE_REROOTED: "maintenance.leave.rerooted",
            "Objects re-rooted by voluntary departures";

        // -- repair: detection, ledger, targeted repairs ---------------
        Counter REPAIR_PINGS: "repair.pings",
            "Liveness pings sent: beacons to backpointer holders and certificate re-checks";
        Counter REPAIR_PONGS: "repair.pongs",
            "Answers to certificate re-checks (a beacon gets none)";
        Counter REPAIR_DETECTED_DEAD: "repair.detected_dead",
            "Dead neighbors detected by probing";
        Counter REPAIR_QUERIES: "repair.queries",
            "Replacement queries sent for dead table slots";
        Counter REPAIR_FACTS: "repair.facts",
            "Staleness facts recorded into the ledger";
        Counter REPAIR_OVERFLOW: "repair.overflow",
            "Ledger inserts rejected by the per-node cap";
        Counter REPAIR_EVENTS: "repair.events",
            "Targeted repair tasks released by the scheduler";
        Counter REPAIR_DEFERRED_BUDGET: "repair.deferred_budget",
            "Repair tasks deferred by the per-node budget";
        Counter REPAIR_REROUTED: "repair.rerouted",
            "Pointers re-routed around dead servers";
        Counter REPAIR_READMITTED: "repair.readmitted",
            "Certified peers re-admitted after answering (a late ack, or a ping or pong)";
        Counter REPAIR_PROMOTIONS: "repair.promotions",
            "Backup neighbors promoted into dead primary slots";
        Gauge REPAIR_BACKLOG: "repair.backlog",
            "Ledger facts pending across live nodes at the sample instant";
        Counter REPAIR_FACT_FAILED_CONTACT: "repair.fact.failed_contact",
            "Facts from transport-level failed contacts";
        Counter REPAIR_FACT_MISSED_ACK: "repair.fact.missed_ack",
            "Facts from missed probe acknowledgments";
        Counter REPAIR_FACT_LATE_ACK: "repair.fact.late_ack",
            "Facts from probe answers after the deadline or from certified peers";
        Counter REPAIR_FACT_EVICTION: "repair.fact.eviction",
            "Facts from table evictions";
    }
}

#[cfg(test)]
mod tests {
    use super::metrics::{self, REGISTRY};
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_documented() {
        let names: BTreeSet<_> = REGISTRY.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate name");
        for def in REGISTRY {
            assert!(!def.help.is_empty(), "{} has no help", def.name);
        }
    }

    #[test]
    fn every_canonical_name_is_namespaced() {
        const NAMESPACES: [&str; 8] = [
            "engine.",
            "routing.",
            "locate.",
            "publish.",
            "availability.",
            "membership.",
            "maintenance.",
            "repair.",
        ];
        for def in REGISTRY {
            assert!(
                NAMESPACES.iter().any(|ns| def.name.starts_with(ns)),
                "{} is outside the documented namespaces",
                def.name
            );
        }
    }

    /// Each kind numbers its slots `0..n` with no gap and no reuse.
    #[test]
    fn slots_are_dense_per_kind() {
        let of = |kind| REGISTRY.iter().filter(|d| d.kind == kind).count();
        let counters: Vec<usize> = metrics::counters().map(|c| c.slot.0.into()).collect();
        let hists: Vec<usize> = metrics::hists().map(|h| h.slot.0.into()).collect();
        assert_eq!(counters, (0..of(MetricKind::Counter)).collect::<Vec<_>>());
        assert_eq!(hists, (0..of(MetricKind::Histogram)).collect::<Vec<_>>());
        assert_eq!(of(MetricKind::Gauge) + counters.len() + hists.len(), REGISTRY.len());
    }

    #[test]
    fn handles_round_trip_and_untouched_slots_read_empty() {
        let mut stats = SimStats::default();
        metrics::JOIN_MESSAGES.add_to(&mut stats, 3);
        metrics::LOCATE_HOPS.record_to(&mut stats, 4);
        assert_eq!(metrics::JOIN_MESSAGES.read(&stats), 3);
        assert_eq!(metrics::LOCATE_HOPS.read(&stats).map(|h| h.count()), Some(1));
        // Below and above the touched slots alike.
        assert_eq!(metrics::ROUTE_HOPS.read(&stats), 0);
        assert_eq!(metrics::REPAIR_FACT_EVICTION.read(&stats), 0);
        assert!(metrics::LOCATE_LATENCY_UNITS.read(&stats).is_none());
        for c in metrics::counters().filter(|c| c.name() != metrics::JOIN_MESSAGES.name()) {
            assert_eq!(c.read(&stats), 0, "{} moved with another counter", c.name());
        }
    }
}

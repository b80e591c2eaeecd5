//! Incremental, fact-driven maintenance: §5.2's lazy, local repair.
//!
//! The node that notices a failure fixes its own state, and nothing
//! else. Hooks across `maintain`/`insert`/`multicast` and the engine's
//! contact-failure notices record staleness **facts** into a per-node
//! [`RepairLedger`]; a reactive `RepairTick` timer (armed only while the
//! ledger is non-empty) releases at most `repairs_per_sec_per_node`
//! targeted repair tasks per maintenance second. Detection is
//! beacon-based (§5.2 probe rounds), and a dead neighbor costs a handful
//! of targeted `(level, digit)` messages, so maintenance cost follows the
//! churn rate, not the population size.
//!
//! Everything here touches only the owning node's state plus ordinary
//! `ctx.send`s. The ledger is generic over the task type so its
//! scheduling contract (dedup, FIFO order, budget slicing, backlog cap)
//! is unit-tested with plain integers; it is `BTreeSet`/`VecDeque`-based
//! and insertion-ordered, so draining is byte-identical from run to run.

use crate::messages::{Msg, Timer};
use crate::node::TapestryNode;
use crate::refs::NodeRef;
use std::collections::{BTreeSet, VecDeque};
use tapestry_sim::{Ctx, NodeIdx, SimTime, TraceRecord};
use tapestry_trace::{metrics, TraceId};

/// The one maintenance behaviour, fact-driven localized repair.
///
/// Kept only because the standalone `benchmark/` package names
/// `MaintenanceMode::Incremental` in a `TapestryConfig` literal; nothing
/// in the workspace reads it. The benchmark-only PR that re-points
/// `benchmark/src/workloads.rs` deletes this type and
/// `TapestryConfig::maintenance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Staleness facts accumulate in a per-node ledger and a budgeted
    /// scheduler issues targeted `(level, digit)` repair events.
    #[default]
    Incremental,
}

/// The staleness-fact taxonomy. Facts are *evidence*, not commands: each
/// kind maps to the targeted repair the scheduler will eventually run,
/// and to the `repair.fact.*` counter that makes the evidence auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FactKind {
    /// A message we sent bounced off a dead node (failed Hello): the
    /// engine's contact-failure notice. Repairs as dead-neighbor removal
    /// with backup promotion plus per-hole slot re-query.
    FailedContact,
    /// A neighbor missed the probe-ack deadline (§5.2 beacon timeout).
    /// Same repair as `FailedContact`, but scheduled rather than swept.
    MissedProbeAck,
    /// A probe ack arrived *after* its round's deadline — the node is
    /// slow or flapping, not dead. Repairs by re-admitting the sender so
    /// it is not re-declared dead every round.
    LateProbeAck,
    /// `consider_neighbor` evicted a live node from a full slot; the
    /// evictee may still be the best entry somewhere else. Repairs by
    /// re-routing pointers that traveled through it.
    Eviction,
    /// An acknowledged-multicast branch was deferred past the
    /// `multicast_fanout` bound (`membership.multicast.fanout_deferred`).
    /// Repairs by re-introducing the insertee to the deferred subtree's
    /// representative directly.
    DeferredBranch,
}

/// One "maintenance second" of simulated time: 1000 distance units at
/// the engine's `UNITS_PER_DISTANCE = 1024` granularity. The budget knob
/// is expressed per maintenance second, and the scheduler fires one tick
/// per second while a backlog exists.
pub(crate) const REPAIR_TICK: SimTime = SimTime(1_024_000);

/// Backlog cap: a ledger never holds more than this many queued tasks.
/// Overflow drops the *oldest* entries — under sustained churn the newest
/// evidence supersedes repairs for state that has likely churned again.
pub(crate) const MAX_BACKLOG: usize = 4096;

/// Per-node staleness ledger and budgeted repair scheduler.
///
/// A deduplicating FIFO: pushing a task already queued is a no-op (facts
/// are monotonic — repeated evidence for the same repair coalesces), and
/// `drain(budget)` releases at most `budget` tasks in arrival order.
/// The `armed` flag carries the "is a RepairTick timer outstanding"
/// state so the owner arms exactly one timer per busy period.
#[derive(Debug, Clone)]
pub(crate) struct RepairLedger<T: Ord + Clone> {
    queue: VecDeque<T>,
    queued: BTreeSet<T>,
    armed: bool,
    /// Tasks dropped to the backlog cap (observability; surfaces as the
    /// `repair.overflow` counter when the owner records it).
    pub(crate) overflowed: u64,
}

impl<T: Ord + Clone> RepairLedger<T> {
    pub(crate) fn new() -> Self {
        RepairLedger {
            queue: VecDeque::new(),
            queued: BTreeSet::new(),
            armed: false,
            overflowed: 0,
        }
    }

    /// Queue a repair task unless an identical one is already pending.
    /// Returns `true` if the task was newly queued.
    pub(crate) fn push(&mut self, task: T) -> bool {
        if !self.queued.insert(task.clone()) {
            return false;
        }
        self.queue.push_back(task);
        if self.queue.len() > MAX_BACKLOG {
            if let Some(old) = self.queue.pop_front() {
                self.queued.remove(&old);
                self.overflowed += 1;
            }
        }
        true
    }

    /// Release up to `budget` tasks in arrival order.
    pub(crate) fn drain(&mut self, budget: usize) -> Vec<T> {
        let n = budget.min(self.queue.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = self.queue.pop_front().expect("len checked");
            self.queued.remove(&t);
            out.push(t);
        }
        out
    }

    /// Number of queued tasks.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Try to claim the single outstanding repair-tick timer slot.
    /// Returns `true` exactly when no timer is currently armed (the
    /// caller should then set one); subsequent calls return `false`
    /// until [`RepairLedger::disarm`].
    pub(crate) fn arm(&mut self) -> bool {
        !std::mem::replace(&mut self.armed, true)
    }

    /// Release the timer slot (called when the tick fires).
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }
}

/// Targeted peers per single-slot re-query, rather than every table
/// reference per hole.
const REQUERY_PEERS: usize = 4;

/// One queued repair: the targeted action a staleness fact schedules.
/// `Ord` is required by the ledger's dedup set; the derived order never
/// affects scheduling (the queue is FIFO).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RepairTask {
    /// Remove a dead neighbor everywhere, promoting backups (§3) and
    /// re-routing pointers; holes become `SlotRequery` follow-ups.
    RemoveDead { peer: NodeIdx },
    /// Single-slot nearest-neighbor re-query: ask a few prefix-sharing
    /// peers for live `(level, digit)` candidates.
    SlotRequery { level: usize, digit: u8, dead: NodeIdx },
    /// Re-route stored pointers that traveled through a neighbor evicted
    /// from the table (it is alive, but no longer on our paths — §4.2
    /// redistribution, deferred to the budget).
    ReRoute { peer: NodeIdx },
    /// Heal a fan-out-deferred multicast branch: introduce the insertee
    /// and the deferred subtree's representative to each other.
    Reintroduce { rep: NodeRef, insertee: NodeRef, level: usize },
    /// Re-admit a flapping neighbor that answered a probe late.
    Readmit { peer: NodeRef },
}

impl TapestryNode {
    /// Record a staleness fact and queue its repair task.
    pub(crate) fn record_fact(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        kind: FactKind,
        task: RepairTask,
    ) {
        metrics::REPAIR_FACTS.inc(ctx);
        let by_kind = match kind {
            FactKind::FailedContact => metrics::REPAIR_FACT_FAILED_CONTACT,
            FactKind::MissedProbeAck => metrics::REPAIR_FACT_MISSED_ACK,
            FactKind::LateProbeAck => metrics::REPAIR_FACT_LATE_ACK,
            FactKind::Eviction => metrics::REPAIR_FACT_EVICTION,
            FactKind::DeferredBranch => metrics::REPAIR_FACT_DEFERRED_BRANCH,
        };
        by_kind.inc(ctx);
        self.schedule_task(ctx, task);
    }

    /// Queue a repair task (follow-up work derived from an earlier fact —
    /// counted as an event when it runs, not as new evidence) and make
    /// sure exactly one `RepairTick` is armed while a backlog exists.
    /// A zero budget never arms: facts accumulate (bounded by the
    /// ledger's backlog cap) and the run still drains to idle.
    pub(crate) fn schedule_task(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, task: RepairTask) {
        self.repair.push(task);
        if self.cfg.repairs_per_sec_per_node > 0 && !self.repair.is_empty() && self.repair.arm() {
            ctx.set_timer(REPAIR_TICK, Timer::RepairTick);
        }
    }

    /// One repair tick: release a budget's worth of queued tasks, re-arm
    /// if a backlog remains (the leftover is the `repair.deferred_budget`
    /// pressure gauge), then execute the released tasks.
    pub(crate) fn on_repair_tick(&mut self, ctx: &mut Ctx<'_, Msg, Timer>) {
        self.repair.disarm();
        if self.repair.overflowed > 0 {
            metrics::REPAIR_OVERFLOW.add(ctx, self.repair.overflowed);
            self.repair.overflowed = 0;
        }
        let budget = self.cfg.repairs_per_sec_per_node as usize;
        let tasks = self.repair.drain(budget);
        metrics::REPAIR_EVENTS.add(ctx, tasks.len() as u64);
        if !self.repair.is_empty() {
            metrics::REPAIR_DEFERRED_BUDGET.add(ctx, self.repair.len() as u64);
            if self.repair.arm() {
                ctx.set_timer(REPAIR_TICK, Timer::RepairTick);
            }
        }
        for t in tasks {
            self.run_repair(ctx, t);
        }
    }

    /// Execute one released repair task. When tracing is on, each task
    /// leaves one point record (hop/level/distance zero, `trace` = the
    /// repair sentinel, `to` = the task's target peer) so sampled traces
    /// show *when* maintenance acted between the op-level hop chains.
    fn run_repair(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, task: RepairTask) {
        if ctx.trace_enabled() {
            let to = match &task {
                RepairTask::RemoveDead { peer } | RepairTask::ReRoute { peer } => *peer,
                RepairTask::SlotRequery { dead, .. } => *dead,
                RepairTask::Reintroduce { rep, .. } => rep.idx,
                RepairTask::Readmit { peer } => peer.idx,
            };
            ctx.trace(TraceRecord {
                trace: TraceId::REPAIR.raw(),
                kind: "repair",
                hop: 0,
                level: 0,
                digit: 0,
                from: self.me.idx,
                to,
                dist: 0.0,
                cum_dist: 0.0,
                at: ctx.now,
            });
        }
        match task {
            RepairTask::RemoveDead { peer } => self.repair_remove_dead(ctx, peer),
            RepairTask::SlotRequery { level, digit, dead } => {
                self.repair_slot_requery(ctx, level, digit, dead)
            }
            RepairTask::ReRoute { peer } => {
                if !self.table.contains(peer) {
                    metrics::REPAIR_REROUTED.inc(ctx);
                    self.optimize_pointers_after_change(ctx, peer);
                }
            }
            RepairTask::Reintroduce { rep, insertee, level } => {
                // Both sides run the ordinary `AddToTableIfCloser` path on
                // receipt, so the deferred subtree learns the insertee (and
                // vice versa) without replaying the wave.
                metrics::REPAIR_REINTRODUCED.inc(ctx);
                ctx.send(rep.idx, Msg::ShareTable { level, refs: vec![insertee] });
                ctx.send(insertee.idx, Msg::ShareTable { level, refs: vec![rep] });
            }
            RepairTask::Readmit { peer } => {
                // A late probe ack proves the peer is alive after all:
                // tear up its death certificate before re-admitting it.
                metrics::REPAIR_READMITTED.inc(ctx);
                self.dead_list.remove(&peer.idx);
                self.consider_neighbor(ctx, peer);
            }
        }
    }

    /// The localized §5.2 removal: promote backups, re-route pointers,
    /// republish local replicas, and turn each hole into a targeted
    /// re-query.
    fn repair_remove_dead(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, peer: NodeIdx) {
        let occupied = self.table.occupancy(peer);
        if occupied == 0 && !self.backptrs.contains(peer) {
            return; // stale evidence — already removed
        }
        let holes = self.table.remove_node(peer);
        // Every occupied slot that did not become a hole had a §3 backup
        // entry step up as the new primary.
        metrics::REPAIR_PROMOTIONS.add(ctx, (occupied - holes.len()) as u64);
        self.backptrs.remove(peer);
        self.optimize_pointers_after_change(ctx, peer);
        let locals: Vec<_> = self.store.local_objects().collect();
        for g in locals {
            self.publish_now(ctx, g);
        }
        for (level, digit) in holes {
            self.schedule_task(ctx, RepairTask::SlotRequery { level, digit, dead: peer });
        }
    }

    /// Ask a few peers that share the hole's prefix for candidates. Peers
    /// at table level ≥ `level` share at least `level` digits with us, so
    /// they match the hole's prefix and can answer `FindReplacement`;
    /// deeper peers are preferred (they share more structure). Falls back
    /// to any reference when no prefix-sharing peer remains.
    fn repair_slot_requery(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        level: usize,
        digit: u8,
        dead: NodeIdx,
    ) {
        if !self.table.slot(level, digit).is_empty() {
            return; // the hole healed in the meantime
        }
        let mut peers: Vec<NodeRef> = Vec::new();
        for l in (level..self.table.levels()).rev() {
            for r in self.table.level_refs(l) {
                if r.idx != dead && !self.dead_list.contains(&r.idx) && !peers.contains(&r) {
                    peers.push(r);
                    if peers.len() >= REQUERY_PEERS {
                        break;
                    }
                }
            }
            if peers.len() >= REQUERY_PEERS {
                break;
            }
        }
        if peers.is_empty() {
            peers = self
                .table
                .all_refs()
                .into_iter()
                .filter(|r| r.idx != dead && !self.dead_list.contains(&r.idx))
                .take(REQUERY_PEERS)
                .collect();
        }
        let prefix = self.me.id.prefix(level);
        let op = self.next_op();
        for p in peers {
            metrics::REPAIR_QUERIES.inc(ctx);
            ctx.send(p.idx, Msg::FindReplacement { op, prefix, digit, dead, reply_to: self.me });
        }
    }
}

//! Incremental, fact-driven maintenance (`MaintenanceMode::Incremental`).
//!
//! The global rounds of §5.2/§6.4 sweep every node's full table each
//! round; here the *response* side of maintenance is localized instead.
//! Hooks across `maintain`/`insert`/`multicast` and the engine's
//! contact-failure notices record staleness **facts** into a per-node
//! [`RepairLedger`]; a reactive `RepairTick` timer (armed only while the
//! ledger is non-empty) releases at most `repairs_per_sec_per_node`
//! targeted repair tasks per maintenance second. Detection stays
//! beacon-based (§5.2 probes still run), but a dead neighbor now costs a
//! handful of targeted `(level, digit)` messages instead of a
//! network-wide `FindReplacement` broadcast — maintenance cost follows
//! the churn rate, not the population size.
//!
//! Everything here touches only the owning node's state plus ordinary
//! `ctx.send`s.

use crate::messages::{Msg, Timer};
use crate::node::TapestryNode;
use crate::refs::NodeRef;
use tapestry_id::Guid;
use tapestry_repair::{FactKind, MaintenanceMode, REPAIR_TICK};
use tapestry_sim::{Ctx, NodeIdx, TraceRecord};
use tapestry_trace::{metrics, TraceId};

/// Targeted peers per single-slot re-query — versus the global path's
/// broadcast to *every* table reference per hole.
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
    /// Republish a locally stored replica whose soft-state pointer lapsed.
    Republish { guid: Guid },
    /// Heal a fan-out-deferred multicast branch: introduce the insertee
    /// and the deferred subtree's representative to each other.
    Reintroduce { rep: NodeRef, insertee: NodeRef, level: usize },
    /// Re-admit a flapping neighbor that answered a probe late.
    Readmit { peer: NodeRef },
}

impl TapestryNode {
    /// Is fact-driven maintenance enabled on this node?
    pub(crate) fn incremental(&self) -> bool {
        self.cfg.maintenance == MaintenanceMode::Incremental
    }

    /// Record a staleness fact and queue its repair task. No-op under
    /// `GlobalRounds` — every committed report stays byte-identical.
    pub(crate) fn record_fact(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        kind: FactKind,
        task: RepairTask,
    ) {
        if !self.incremental() {
            return;
        }
        metrics::REPAIR_FACTS.inc(ctx);
        let by_kind = match kind {
            FactKind::FailedContact => metrics::REPAIR_FACT_FAILED_CONTACT,
            FactKind::MissedProbeAck => metrics::REPAIR_FACT_MISSED_ACK,
            FactKind::LateProbeAck => metrics::REPAIR_FACT_LATE_ACK,
            FactKind::Eviction => metrics::REPAIR_FACT_EVICTION,
            FactKind::DeferredBranch => metrics::REPAIR_FACT_DEFERRED_BRANCH,
            FactKind::ExpiredPointer => metrics::REPAIR_FACT_EXPIRED_POINTER,
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
                RepairTask::Republish { .. } => self.me.idx,
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
            RepairTask::Republish { guid } => {
                if self.store.has_local(guid) {
                    metrics::REPAIR_REPUBLISHED.inc(ctx);
                    self.publish_now(ctx, guid);
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
    /// re-query instead of a network-wide broadcast.
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

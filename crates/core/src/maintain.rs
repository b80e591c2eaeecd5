//! Mesh and pointer maintenance: root transfers (§4.3), object-pointer
//! redistribution (§4.2, Fig. 9), voluntary deletion (§5.1, Fig. 12) and
//! involuntary deletion with lazy repair (§5.2).

use crate::messages::{Msg, OpId, RoutedKind, RoutedMsg, Timer, Visited, WirePtr};
use crate::node::{Heard, LeaveState, NodeStatus, TapestryNode};
use crate::object_store::PtrEntry;
use crate::refs::{idx32, NodeRef};
use crate::repair::{FactKind, RepairTask};
use tapestry_id::Prefix;
use tapestry_sim::{Ctx, NodeIdx};
use tapestry_trace::metrics;

impl TapestryNode {
    // ------------------------- root transfers (§4.3) -----------------------

    /// Receiving side of `LinkAndXferRoot`: adopt pointers whose path now
    /// passes through us, acknowledge so the sender can demote its
    /// copies, and — when our own table routes a pointer onward (we are a
    /// path node, not the root, or the root moved again under a
    /// simultaneous insertion) — chain the transfer toward the true root
    /// so no newly rooted node is left empty-handed.
    pub(crate) fn on_transfer_ptrs(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        ptrs: Vec<WirePtr>,
        from: NodeRef,
    ) {
        let mut guids = Vec::new();
        let mut forward: std::collections::BTreeMap<tapestry_sim::NodeIdx, Vec<WirePtr>> =
            std::collections::BTreeMap::new();
        for p in ptrs {
            let level = self.me.id.shared_prefix_len(&p.guid.id());
            let (is_root, next) = match self.route_next(&p.guid.id(), level, None, false).0 {
                crate::routing_table::Hop::Root => (true, None),
                crate::routing_table::Hop::Forward(nx, _) => (false, Some(nx)),
            };
            let already = self.store.lookup(p.guid).any(|e| e.server.idx == p.server.idx);
            self.store
                .deposit(p.guid, PtrEntry { server: p.server, last_hop: Some(from.idx), is_root });
            if let Some(nx) = next {
                if nx.idx != from.idx && !already {
                    forward.entry(nx.idx).or_default().push(p);
                }
            }
            guids.push(p.guid);
        }
        guids.sort();
        guids.dedup();
        ctx.send(from.idx, Msg::TransferAck { guids });
        for (next, ptrs) in forward {
            metrics::INSERT_CHAINED_TRANSFERS.add(ctx, ptrs.len() as u64);
            ctx.send(next, Msg::TransferPtrs { ptrs, from: self.me });
        }
    }

    /// Old-root side: the new root has the pointers; demote ours to plain
    /// path pointers (they remain on the publish path, Property 4).
    pub(crate) fn on_transfer_ack(
        &mut self,
        _ctx: &mut Ctx<'_, Msg, Timer>,
        guids: Vec<tapestry_id::Guid>,
    ) {
        for g in guids {
            for e in self.store.entries_mut(g) {
                e.is_root = false;
            }
        }
    }

    // ------------------ pointer redistribution (Fig. 9) --------------------

    /// Re-route the pointers that used to travel through `changed` (a
    /// departed or replaced neighbor): send each up its *new* path; the
    /// paths converge at some node, which triggers the backward deletion
    /// of the old path.
    pub(crate) fn optimize_pointers_after_change(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        changed: NodeIdx,
    ) {
        let ptrs: Vec<WirePtr> =
            self.store.iter().map(|(g, e)| WirePtr { guid: g, server: e.server }).collect();
        let me = self.me.idx;
        for p in ptrs {
            let level = self.me.id.shared_prefix_len(&p.guid.id());
            if let crate::routing_table::Hop::Forward(next, lvl) =
                self.route_next(&p.guid.id(), level, Some(changed), false).0
            {
                metrics::OPTIMIZE_REPUBLISHED.inc(ctx);
                ctx.send(next.idx, Msg::OptimizePtr { ptr: p, changed, level: lvl, sender: me });
            }
        }
    }

    /// `OptimizeObjectPtrs` (Fig. 9): deposit the pointer arriving on the
    /// new path; if our recorded previous hop differs from the new sender,
    /// keep pushing up the new path and delete backwards down the old one.
    pub(crate) fn on_optimize_ptr(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        ptr: WirePtr,
        changed: NodeIdx,
        level: usize,
        sender: NodeIdx,
    ) {
        let old_sender = self
            .store
            .lookup(ptr.guid)
            .find(|e| e.server.idx == ptr.server.idx)
            .and_then(|e| e.last_hop);
        let is_root = matches!(
            self.route_next(&ptr.guid.id(), level.min(self.cfg.levels()), Some(changed), false).0,
            crate::routing_table::Hop::Root
        );
        self.store
            .deposit(ptr.guid, PtrEntry { server: ptr.server, last_hop: Some(sender), is_root });
        match old_sender {
            Some(old) if old != sender => {
                // Paths diverged below us: continue up the new path and
                // clean the old one (unless the old hop *is* the changed
                // node, which is gone anyway).
                if let crate::routing_table::Hop::Forward(next, lvl) =
                    self.route_next(&ptr.guid.id(), level, Some(changed), false).0
                {
                    ctx.send(
                        next.idx,
                        Msg::OptimizePtr { ptr, changed, level: lvl, sender: self.me.idx },
                    );
                }
                if old != changed {
                    ctx.send(old, Msg::DeleteBackward { ptr, changed });
                }
            }
            _ => {
                // Converged (same previous hop, or the pointer is new
                // here): the rest of the path upward is unchanged.
            }
        }
    }

    /// `DeletePointersBackward` (Fig. 9): drop the stale pointer and keep
    /// walking the recorded previous hops.
    pub(crate) fn on_delete_backward(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        ptr: WirePtr,
        changed: NodeIdx,
    ) {
        if let Some(e) = self.store.remove(ptr.guid, ptr.server.idx) {
            metrics::OPTIMIZE_DELETED.inc(ctx);
            if let Some(old) = e.last_hop {
                if old != changed {
                    ctx.send(old, Msg::DeleteBackward { ptr, changed });
                }
            }
        }
    }

    // ---------------------- voluntary delete (Fig. 12) ---------------------

    /// `DeleteSelf`: announce departure to every backpointer holder with
    /// replacement candidates, and re-root the objects rooted here.
    pub(crate) fn app_leave(&mut self, ctx: &mut Ctx<'_, Msg, Timer>) {
        self.status = NodeStatus::Leaving;
        let mut leave = LeaveState::default();

        // Re-root objects we are root for: route a publish for each along
        // the mesh as if we did not exist (§5.1: "examines local object
        // pointers for which it is the root, and forwards them on to their
        // respective surrogate nodes").
        let rooted = self.store.rooted_guids();
        let exit = self.closest_other_neighbor();
        if let Some(first_hop) = exit {
            for g in &rooted {
                let servers: Vec<NodeRef> = self
                    .store
                    .lookup(*g)
                    .map(|e| e.server)
                    .filter(|s| s.idx != self.me.idx)
                    .collect();
                for server in servers {
                    let mut m = Box::new(RoutedMsg {
                        kind: RoutedKind::Publish { guid: *g, server },
                        target: tapestry_id::root_id(self.cfg.space, *g, 0),
                        level: 0,
                        past_hole: false,
                        exclude: Some(self.me.idx),
                        hops: 0,
                        dist: 0.0,
                        visited: Visited::default(),
                        local_branch: false,
                        trace: None,
                    });
                    m.visited.push(self.me.idx);
                    metrics::LEAVE_REROOTED.inc(ctx);
                    ctx.send(first_hop.idx, Msg::Routed(m));
                }
            }
        }

        // Phase 1: Leaving + replacement candidates to backpointer holders.
        let holders: Vec<NodeRef> = self.backpointers().collect();
        if holders.is_empty() {
            leave.finished = true;
            self.leave = Some(leave);
            return;
        }
        for h in &holders {
            // GETNEAREST(pointer, level): the holder keeps us in slot
            // (lvl, our digit at lvl) with lvl = |GCP(holder, us)|; a true
            // substitute must share one digit more with us (same prefix
            // *and* same divergent digit). Property 1 applied to our own
            // table guarantees we know such a node whenever one exists.
            let lvl = h.id.shared_prefix_len(&self.me.id);
            let replacements: Vec<NodeRef> = self
                .table
                .all_refs()
                .into_iter()
                .filter(|r| r.id.shared_prefix_len(&self.me.id) > lvl && r.idx != h.idx)
                .take(self.cfg.redundancy * 2)
                .collect();
            leave.pending_acks.insert(h.idx);
            ctx.send(h.idx, Msg::Leaving { me: self.me, replacements });
        }
        self.leave = Some(leave);
    }

    /// A neighbor announced it is leaving: drop it, adopt replacements,
    /// republish local objects whose path may have used it, and ack.
    pub(crate) fn on_leaving(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        who: NodeRef,
        replacements: Vec<NodeRef>,
    ) {
        self.table.remove_node(who.idx);
        self.backptrs.remove(who.idx);
        for r in replacements {
            self.consider_neighbor(ctx, r);
        }
        // Re-route pointers that traveled through the departing node.
        self.optimize_pointers_after_change(ctx, who.idx);
        // Republish local objects as if the departed node were gone
        // (keeps Property 4 on the new paths).
        let locals: Vec<_> = self.store.local_objects().collect();
        for g in locals {
            self.publish_now(ctx, g);
        }
        ctx.send(who.idx, Msg::LeaveAck { me: self.me });
    }

    /// Departing side: count phase-1 acks; when all arrive, send the final
    /// `RemoveLink` round and mark ourselves removable.
    pub(crate) fn on_leave_ack(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, who: NodeRef) {
        let Some(leave) = self.leave.as_mut() else { return };
        leave.pending_acks.remove(&who.idx);
        if leave.pending_acks.is_empty() && !leave.finished {
            leave.finished = true;
            let mut all: Vec<NodeIdx> = self.backpointers().map(|r| r.idx).collect();
            all.extend(self.table.all_refs().iter().map(|r| r.idx));
            all.sort_unstable();
            all.dedup();
            all.retain(|&idx| idx != self.me.idx);
            ctx.send_each(all, Msg::LeaveFinal { me: self.me });
        }
    }

    /// Final removal notice from a departing node.
    pub(crate) fn on_leave_final(&mut self, _ctx: &mut Ctx<'_, Msg, Timer>, who: NodeRef) {
        self.table.remove_node(who.idx);
        self.backptrs.remove(who.idx);
    }

    fn closest_other_neighbor(&self) -> Option<NodeRef> {
        let mut best: Option<(f64, NodeRef)> = None;
        for l in 0..self.table.levels() {
            for j in 0..self.table.base() as u8 {
                for (r, d) in self.table.slot(l, j).iter_with_dist() {
                    if r.idx != self.me.idx && best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, r));
                    }
                }
            }
        }
        best.map(|(_, r)| r)
    }

    // --------------------- involuntary delete (§5.2) -----------------------

    /// One beacon round (§5.2: detection by beacons or timeouts). Ping
    /// every backpointer holder — each keeps us in its table and awaits
    /// exactly this ping — and await a ping from every distinct table
    /// neighbor; one silent at the deadline is treated as failed. Every
    /// certified peer outside the table is pinged with `reply` set, as a
    /// re-check of its certificate, and awaited too. The driver's
    /// `AppProbe` is the only trigger, and it numbers the round
    /// network-wide. Peers whose ping of this round arrived before it
    /// started are answered already.
    pub(crate) fn start_probe_round(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, round: u64) {
        let probe = &mut self.probe;
        probe.round = round;
        probe.closes = ctx.now + self.cfg.insert_level_timeout;
        probe.awaiting.clear();
        probe.awaiting.extend(self.table.refs().map(|r| (idx32(r.idx), Heard::Pending)));
        probe.awaiting.extend(probe.certificates.iter().map(|&idx| (idx, Heard::Recheck)));
        probe.awaiting.sort_unstable();
        probe.awaiting.dedup_by_key(|&mut (idx, _)| idx);
        if probe.early_round == round {
            for idx in &probe.early {
                if let Ok(at) = probe.awaiting.binary_search_by_key(idx, |&(i, _)| i) {
                    probe.awaiting[at].1 = Heard::Answered;
                }
            }
        }
        probe.early.clear();
        let rechecks: Vec<NodeIdx> = probe
            .awaiting
            .iter()
            .filter(|&&(_, heard)| heard == Heard::Recheck)
            .map(|&(idx, _)| idx as NodeIdx)
            .collect();
        let awaits = probe.awaiting.iter().any(|&(_, heard)| heard == Heard::Pending);
        // A holder that is re-checked gets the re-check alone.
        let beacons = self.backptrs.indices().filter(|&h| rechecks.binary_search(&h).is_err());
        metrics::REPAIR_PINGS.add(ctx, (beacons.clone().count() + rechecks.len()) as u64);
        ctx.send_each(beacons, Msg::Ping { round, me: self.me, reply: false });
        let rechecking = !rechecks.is_empty();
        if rechecking {
            ctx.send_each(rechecks, Msg::Ping { round, me: self.me, reply: true });
        }
        if awaits || rechecking {
            ctx.set_timer(self.cfg.insert_level_timeout, Timer::ProbeDeadline { round });
        }
    }

    /// A node now keeps us in its table; `round` is the latest probe
    /// round it had started when it added us. If that is older than our
    /// open round, it enters ours holding us and awaits our beacon, which
    /// went out without it, so it is beaconed at once. A holder that
    /// added us within our round had fixed its awaited peers before, and
    /// is not.
    pub(crate) fn on_added_you(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, who: NodeRef, round: u64) {
        let awaits_us = round < self.probe.round && ctx.now < self.probe.closes;
        if self.backptrs.insert(who, self.table.names()) && awaits_us {
            metrics::REPAIR_PINGS.inc(ctx);
            ctx.send(who.idx, Msg::Ping { round: self.probe.round, me: self.me, reply: false });
        }
        self.consider_neighbor(ctx, who);
    }

    /// A peer's ping. If we await it in the same round, the ping is its
    /// answer; a ping that finds it already declared dead is a late
    /// answer. One for a round we have not started yet is remembered, so
    /// that round counts the peer answered. A ping from a peer we hold a
    /// death certificate for is late evidence too, in-round or not:
    /// across a healed partition both sides certified each other, and
    /// their crossing re-checks readmit them. Only a re-check (`reply`)
    /// is ponged.
    pub(crate) fn on_ping(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        who: NodeRef,
        round: u64,
        reply: bool,
    ) {
        let probe = &mut self.probe;
        let mut late = probe.certified(who.idx);
        if round == probe.round {
            late |= probe.answer(who.idx) == Some(true);
        } else if round > probe.round {
            if probe.early_round != round {
                probe.early_round = round;
                probe.early.clear();
            }
            probe.early.push(idx32(who.idx));
        }
        if late {
            self.record_late_ack(ctx, who);
        }
        if reply {
            metrics::REPAIR_PONGS.inc(ctx);
            ctx.send(who.idx, Msg::Pong { round, me: self.me });
        }
    }

    /// A re-checked peer answered. An answer from a certified peer, or
    /// one that matches no entry still awaited in the current round — its
    /// round is stale, or it arrived after this round's deadline — is
    /// late.
    pub(crate) fn on_pong(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, who: NodeRef, round: u64) {
        let in_time = round == self.probe.round && self.probe.answer(who.idx) == Some(false);
        if !in_time || self.probe.certified(who.idx) {
            self.record_late_ack(ctx, who);
        }
    }

    /// A late answer: the sender is slow or flapping, not dead. The
    /// deadline handler has excised it (or is about to), so the answer
    /// becomes a re-admission fact instead of being discarded, which
    /// would leave the node excised for good.
    fn record_late_ack(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, who: NodeRef) {
        self.record_fact(ctx, FactKind::LateProbeAck, RepairTask::Readmit { peer: who });
    }

    /// Probe deadline: every silent neighbor is declared dead, and every
    /// silent re-check forgotten (`ProbeState::deadline`). Fix local state
    /// only (the paper's lazy stance): the evidence earns a death
    /// certificate and a fact, and the budgeted scheduler runs the
    /// targeted removal.
    pub(crate) fn on_probe_deadline(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, round: u64) {
        if round != self.probe.round {
            return;
        }
        for d in self.probe.deadline() {
            metrics::REPAIR_DETECTED_DEAD.inc(ctx);
            self.record_fact(ctx, FactKind::MissedProbeAck, RepairTask::RemoveDead { peer: d });
        }
    }

    /// Remote side of the replacement search.
    pub(crate) fn on_find_replacement(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        prefix: Prefix,
        digit: u8,
        dead: NodeIdx,
        reply_to: NodeRef,
    ) {
        if !prefix.matches(&self.me.id) {
            return; // cannot answer for a prefix we do not share
        }
        let lvl = prefix.len();
        let refs: Vec<NodeRef> = if lvl < self.cfg.levels() {
            self.table
                .slot(lvl, digit)
                .iter()
                .filter(|r| r.idx != dead && r.idx != reply_to.idx && !self.probe.certified(r.idx))
                .collect()
        } else {
            Vec::new()
        };
        if !refs.is_empty() {
            ctx.send(reply_to.idx, Msg::ReplacementCandidates { op, refs });
        }
    }

    // ------------------ continual optimization (§6.4) ----------------------

    /// One round of §6.4's fourth option — "local sharing of information":
    /// send each level's neighbor row to the neighbors at that level, who
    /// re-measure and adopt closer nodes. Pointer movement is deferred to
    /// the next republish, as §6.4 allows ("such pointer movement can
    /// often be deferred … it does not affect correctness").
    pub(crate) fn share_tables_round(&mut self, ctx: &mut Ctx<'_, Msg, Timer>) {
        for level in 0..self.table.levels() {
            let refs = self.table.level_refs(level);
            metrics::OPTIMIZE_TABLE_SHARES.add(ctx, refs.len() as u64);
            let peers: Vec<NodeIdx> = refs.iter().map(|r| r.idx).collect();
            ctx.send_each(peers, Msg::ShareTable { level, refs });
        }
    }
}

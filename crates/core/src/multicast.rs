//! Acknowledged multicast (§4.1, Fig. 8) with the watch-list and
//! pinned-pointer extensions for simultaneous insertion (§4.4, Fig. 11).
//!
//! A multicast for prefix `α` reaches every node whose ID starts with `α`:
//! each recipient forwards to one node per one-digit extension `α·j`
//! (recursing in place when it is itself the chosen `(α, j)` node) and
//! acknowledges its parent once all children acknowledged (Theorem 5).
//! The collapsed self-sends of the paper's description are performed
//! in-place here, so the message tree is exactly the spanning tree the
//! paper derives (`k − 1` edges for `k` recipients).
//!
//! There is one multicast, the **wave** (`StartBatchMulticast` /
//! `BatchMulticast`). A solo join is a wave of one: the new node sends
//! its surrogate `StartBatchMulticast` carrying itself (Fig. 7 step 4).
//! A coalesced join batch travels as *one* wave whose prefix is the
//! common prefix of the batch's coverage prefixes; each recipient applies
//! the per-insertee FUNCTION (SendID, pin, watch scan, `LinkAndXferRoot`)
//! only for insertees whose own coverage prefix it matches — so every
//! insertee sees exactly the recipients a wave of its own would have
//! reached, while the batch shares one spanning tree and one ack sweep.
//! Correctness rests on the §4.4 machinery unchanged: insertees are
//! pinned for the wave's duration and concurrent insertees are reported
//! through the Fig. 11 watch lists. A child killed mid-wave cannot strand
//! the wave's joins: every session with children arms `McastDeadline`.
//!
//! Every recipient forwards every branch, so a wave of `k` recipients is
//! a spanning tree of `k − 1` edges (`membership.multicast.edges`).

use crate::messages::{BatchInsertee, Msg, OpId, Timer, WirePtr};
use crate::node::{McastSession, TapestryNode};
use crate::refs::NodeRef;
use tapestry_id::Prefix;
use tapestry_sim::{Ctx, NodeIdx};
use tapestry_trace::metrics;

impl TapestryNode {
    /// The per-insertee half of the multicast FUNCTION: `SendID`, pin the
    /// insertee in its slot for the session's duration (§4.4 — it must
    /// not be evicted, and further multicasts through the slot must reach
    /// it), `LinkAndXferRoot`, and the Fig. 11 concurrent-insertee report
    /// (a new insertee may be exactly the filler some earlier watcher is
    /// still waiting for).
    fn apply_wave_function(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, op: OpId, new_node: NodeRef) {
        metrics::JOIN_MESSAGES.add(ctx, 2);
        ctx.send(new_node.idx, Msg::Hello { op, me: self.me });
        self.table.add_pinned(new_node);
        ctx.send(new_node.idx, Msg::AddedYou { me: self.me, round: self.probe.round });
        self.link_and_xfer_root(ctx, new_node);
        self.notify_watchers(ctx, new_node);
    }

    /// New node or driver → wave initiator: one acknowledged multicast
    /// carrying one insertee or a whole coalesced join batch. The wave
    /// covers the common prefix of the insertees' coverage prefixes;
    /// co-insertees are introduced to each other up front under the
    /// coverage rule the wave applies (insertee `a` hears `SendID` from
    /// everything `a.prefix` matches — including concurrent insertees,
    /// per §4.4).
    pub(crate) fn on_start_batch_multicast(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        insertees: Vec<BatchInsertee>,
    ) {
        if insertees.is_empty() {
            return;
        }
        metrics::MULTICAST_BATCH_WAVES.inc(ctx);
        metrics::MULTICAST_BATCH_JOINS.add(ctx, insertees.len() as u64);
        for a in &insertees {
            for b in &insertees {
                if a.op != b.op && a.prefix.matches(&b.new_node.id) {
                    metrics::JOIN_MESSAGES.inc(ctx);
                    ctx.send(a.new_node.idx, Msg::Hello { op: a.op, me: b.new_node });
                }
            }
        }
        let prefix = common_wave_prefix(&insertees);
        let op = self.next_op();
        self.run_batch(ctx, op, prefix, insertees, None);
    }

    /// A shared-wave branch arrived from `from`.
    pub(crate) fn on_batch_multicast(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        from: NodeIdx,
        op: OpId,
        prefix: Prefix,
        insertees: Vec<BatchInsertee>,
    ) {
        if self.mcast_done.contains(&op) || self.mcast.contains_key(&op) {
            // Duplicate via pinned-pointer forwarding (the FUNCTION
            // already ran here) — ack so the sender's count stays right.
            metrics::JOIN_MESSAGES.inc(ctx);
            ctx.send(from, Msg::MulticastAck { op });
            return;
        }
        self.run_batch(ctx, op, prefix, insertees, Some(from));
    }

    /// The shared-wave body: apply the FUNCTION per covered insertee, in
    /// batch order, then forward one `BatchMulticast` per child branch of
    /// the *wave* prefix and await Theorem 5 acks.
    fn run_batch(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        prefix: Prefix,
        insertees: Vec<BatchInsertee>,
        parent: Option<NodeIdx>,
    ) {
        metrics::MULTICAST_RECIPIENTS.inc(ctx);
        metrics::MULTICAST_BATCH_INSERTEES.add(ctx, insertees.len() as u64);
        let mut fwd: Vec<BatchInsertee> = Vec::with_capacity(insertees.len());
        let mut session: Vec<(OpId, NodeRef, bool)> = Vec::with_capacity(insertees.len());
        for ins in &insertees {
            let covered = ins.prefix.matches(&self.me.id);
            session.push((ins.op, ins.new_node, covered));
            if !covered {
                // Outside this insertee's coverage: a wave of its own
                // would never have reached this node — pass it along for
                // deeper branches that may match, untouched.
                fwd.push(ins.clone());
                continue;
            }
            if ins.new_node.idx != self.me.idx {
                self.apply_wave_function(ctx, ins.op, ins.new_node);
            }
            let watch = self.serve_watch_list(ctx, ins.new_node, ins.op, ins.watch.clone());
            fwd.push(BatchInsertee { watch, ..ins.clone() });
        }

        let mut children: Vec<(Prefix, NodeRef)> = Vec::new();
        self.gather_children(prefix, &mut children);
        children
            .retain(|(_, r)| r.idx != self.me.idx && !fwd.iter().any(|i| i.new_node.idx == r.idx));
        children.sort_by_key(|(_, r)| r.idx);
        children.dedup_by_key(|(_, r)| r.idx);
        // Prune: a branch is forwarded only with — and only because of —
        // the insertees whose coverage is prefix-compatible with it, so
        // the wave tree is exactly the *union* of the insertees' own
        // trees (one shared trunk, no ε-explosion when the
        // batch's common prefix collapses), and every node in any
        // insertee's `G(prefix)` is still reached (its whole prefix
        // chain is compatible by construction).
        let branches: Vec<(Prefix, NodeRef, Vec<BatchInsertee>)> = children
            .into_iter()
            .filter_map(|(p, r)| {
                let carry: Vec<BatchInsertee> = fwd
                    .iter()
                    .filter(|i| i.prefix.contains(&p) || p.contains(&i.prefix))
                    .cloned()
                    .collect();
                (!carry.is_empty()).then_some((p, r, carry))
            })
            .collect();

        let pending = branches.len();
        self.mcast.insert(op, McastSession { parent, pending, insertees: session });
        for (p, r, carry) in branches {
            metrics::MULTICAST_EDGES.inc(ctx);
            metrics::JOIN_MESSAGES.inc(ctx);
            ctx.send(r.idx, Msg::BatchMulticast { op, prefix: p, insertees: carry });
        }
        if pending == 0 {
            self.complete_session(ctx, op);
        } else {
            // A child killed mid-wave would strand every join in the
            // wave behind its missing ack; force-complete after a few
            // level deadlines and leave the unreached subtree to repair.
            let deadline = tapestry_sim::SimTime(self.cfg.insert_level_timeout.0.saturating_mul(4));
            ctx.set_timer(deadline, Timer::McastDeadline { op });
        }
    }

    /// A wave's ack deadline fired: if the session is still open,
    /// some child subtree is gone — complete anyway (acking upward /
    /// reporting `MulticastDone`) so the wave's joins proceed, and leave
    /// whatever the lost subtree missed to the repair scheduler.
    pub(crate) fn on_mcast_deadline(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, op: OpId) {
        if self.mcast.contains_key(&op) {
            metrics::MULTICAST_DEADLINE_FORCED.inc(ctx);
            self.complete_session(ctx, op);
        }
    }

    /// Walk the routing table gathering one recipient per one-digit
    /// extension, recursing through extensions where this node is itself
    /// the chosen representative (the paper's self-sends, collapsed).
    /// Pinned entries are forwarded too: §4.4 requires every multicast
    /// through a pinned slot to reach the in-flight insertee.
    fn gather_children(&self, prefix: Prefix, out: &mut Vec<(Prefix, NodeRef)>) {
        let l = prefix.len();
        if l >= self.table.levels() {
            return;
        }
        for j in 0..self.table.base() as u8 {
            let slot = self.table.slot(l, j);
            if slot.is_empty() {
                continue;
            }
            let ext = prefix.extend(j);
            match slot.first_unpinned() {
                Some(u) if u.idx == self.me.idx => self.gather_children(ext, out),
                Some(u) => out.push((ext, u)),
                None => {}
            }
            for p in slot.pinned() {
                if p.idx != self.me.idx {
                    out.push((ext, p));
                }
            }
        }
    }

    /// Fig. 11 watch list: report nodes that fill the new node's watched
    /// holes, and strip served entries from the forwarded list.
    fn serve_watch_list(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        new_node: NodeRef,
        op: OpId,
        watch: Vec<(usize, u8)>,
    ) -> Vec<(usize, u8)> {
        if watch.is_empty() {
            return watch;
        }
        let shared = self.me.id.shared_prefix_len(&new_node.id);
        let mut found = Vec::new();
        let mut remaining = Vec::new();
        for (lvl, dig) in watch {
            // We can only answer for slots whose prefix we share with the
            // new node.
            let mut served = false;
            if lvl <= shared {
                let refs: Vec<NodeRef> =
                    self.table.slot(lvl, dig).iter().filter(|r| r.idx != new_node.idx).collect();
                if !refs.is_empty() {
                    found.extend(refs);
                    served = true;
                }
            }
            if !served {
                remaining.push((lvl, dig));
                // Fig. 11: hold the unserved watch so a later arrival that
                // fills the hole (e.g. a concurrent insertee) still gets
                // reported. Entries are retired when served; many holes
                // have no possible filler and would pile up forever, so at
                // the cap the *oldest* entry is evicted — recent watches
                // (the live races) always get held.
                if lvl <= shared {
                    if self.watches.len() >= 1024 {
                        self.watches.remove(0);
                    }
                    self.watches.push((new_node, lvl, dig, op));
                }
            }
        }
        if !found.is_empty() {
            found.sort();
            found.dedup();
            metrics::JOIN_MESSAGES.inc(ctx);
            ctx.send(new_node.idx, Msg::Candidates { op, refs: found });
        }
        remaining
    }

    /// `LinkAndXferRoot` (Fig. 7): hand the new node every stored pointer
    /// whose route now passes through it — pointers we were *root* for
    /// (correctness: the new node may be the new root) as well as plain
    /// path pointers (Property 4: the new node is now on the publish
    /// path). We keep serving until the new holder acknowledges (§4.3:
    /// "the old root not delete pointers until the new root has
    /// acknowledged receiving them" — and in Tapestry the old copies
    /// simply remain as path pointers afterwards).
    fn link_and_xfer_root(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, new_node: NodeRef) {
        let mut ptrs: Vec<WirePtr> = Vec::new();
        let guids: Vec<tapestry_id::Guid> = {
            let mut v: Vec<_> = self.store.iter().map(|(g, _)| g).collect();
            v.sort();
            v.dedup();
            v
        };
        for guid in guids {
            let level = self.me.id.shared_prefix_len(&guid.id());
            if let crate::routing_table::Hop::Forward(p, _) =
                self.route_next(&guid.id(), level, None, false).0
            {
                if p.idx == new_node.idx {
                    for (g, e) in self.store.iter() {
                        if g == guid {
                            ptrs.push(WirePtr { guid: g, server: e.server });
                        }
                    }
                }
            }
        }
        if !ptrs.is_empty() {
            metrics::INSERT_ROOT_TRANSFERS.add(ctx, ptrs.len() as u64);
            metrics::JOIN_MESSAGES.inc(ctx);
            ctx.send(new_node.idx, Msg::TransferPtrs { ptrs, from: self.me });
        }
    }

    /// A child's subtree finished (Theorem 5 ack).
    pub(crate) fn on_mcast_ack(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, op: OpId) {
        let done = match self.mcast.get_mut(&op) {
            Some(s) => {
                s.pending = s.pending.saturating_sub(1);
                s.pending == 0
            }
            None => false,
        };
        if done {
            self.complete_session(ctx, op);
        }
    }

    fn complete_session(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, op: OpId) {
        let Some(s) = self.mcast.remove(&op) else { return };
        self.mcast_done.insert(op);
        for &(_, new_node, covered) in &s.insertees {
            if !covered {
                continue; // never pinned here; leave no trace
            }
            // Unpin: the session is acknowledged here, so the insertee is
            // now reachable through the regular multicast tree.
            self.table.unpin(&new_node);
            // `add_pinned` placed the insertee in its divergence slot
            // only; re-offer it through the regular path so it also gains
            // its nested own-digit memberships (§2.1) now that the
            // session is over.
            self.consider_neighbor(ctx, new_node);
        }
        match s.parent {
            Some(p) => {
                metrics::JOIN_MESSAGES.inc(ctx);
                ctx.send(p, Msg::MulticastAck { op });
            }
            None => {
                // The initiator: report completion to every insertee —
                // covered or not — under its own insertion op (Theorem 6:
                // core nodes from this instant).
                for &(iop, new_node, _) in &s.insertees {
                    metrics::JOIN_MESSAGES.inc(ctx);
                    ctx.send(new_node.idx, Msg::MulticastDone { op: iop });
                }
            }
        }
    }
}

/// The longest prefix every insertee's coverage prefix extends — the
/// prefix one shared wave must cover so each insertee still reaches all
/// of its own `G(prefix)` (usually ε once a batch mixes first digits).
fn common_wave_prefix(insertees: &[BatchInsertee]) -> Prefix {
    let first = insertees[0].prefix;
    let mut len = first.len();
    for ins in &insertees[1..] {
        let p = ins.prefix;
        let mut l = 0;
        while l < len.min(p.len()) && first.digit(l) == p.digit(l) {
            l += 1;
        }
        len = l;
    }
    let mut out = Prefix::empty(first.base());
    for l in 0..len {
        out = out.extend(first.digit(l));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::OpId;
    use tapestry_id::{Id, IdSpace};

    fn insertee(v: u64, plen: usize) -> BatchInsertee {
        let id = Id::from_u64(IdSpace::base16(), v);
        BatchInsertee {
            op: OpId::new(0, v),
            new_node: NodeRef::new(v as usize, id),
            prefix: id.prefix(plen),
            watch: Vec::new(),
        }
    }

    #[test]
    fn common_wave_prefix_is_shared_head() {
        // 0x4227… and 0x42A2… share "42"; adding 0x9000… collapses to ε.
        let two = [insertee(0x4227_0000, 3), insertee(0x42A2_0000, 3)];
        assert_eq!(format!("{}", common_wave_prefix(&two)), "42");
        let three = [insertee(0x4227_0000, 3), insertee(0x42A2_0000, 3), insertee(0x9000_0000, 2)];
        assert!(common_wave_prefix(&three).is_empty());
        // A singleton batch keeps its full coverage prefix.
        let one = [insertee(0x4227_0000, 4)];
        assert_eq!(format!("{}", common_wave_prefix(&one)), "4227");
    }
}

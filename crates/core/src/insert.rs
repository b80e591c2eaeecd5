//! Node insertion (§3–§4): surrogate discovery, preliminary table copy,
//! acknowledged multicast, and the distributed nearest-neighbor
//! neighbor-table construction of Fig. 4.
//!
//! Every protocol message belonging to an insertion (surrogate
//! discovery hops, table copy, multicast wave, `SendID`/`Candidates`
//! reports, `GetNextList` pointer fetches, root transfers and acks) also
//! bumps the `membership.join.messages` counter, so drivers can report a measured
//! mean messages/join figure. Opportunistic backpointer maintenance
//! (`AddedYou` / `RemovedYou` out of `consider_neighbor`) is deliberately
//! excluded — it is shared with every flow that touches a routing
//! table — with one exception: the `AddedYou` a multicast recipient
//! sends when *pinning* the insertee (§4.4) is counted, because that
//! pin is a mandatory step of the wave protocol itself.

use crate::messages::{BatchInsertee, Msg, OpId, RoutedKind, RoutedMsg, Timer, Visited};
use crate::node::{InsertState, NodeStatus, TapestryNode};
use crate::refs::NodeRef;
use crate::repair::{FactKind, RepairTask};
use std::collections::BTreeSet;
use tapestry_sim::{Ctx, NodeIdx};
use tapestry_trace::{metrics, TraceId};

impl TapestryNode {
    /// Fig. 7, step 1: find the primary surrogate through any gateway.
    /// In `deferred` mode (batched joins) the protocol pauses after step
    /// 3 until the driver launches a shared multicast wave.
    pub(crate) fn start_insert(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        gateway: NodeRef,
        deferred: bool,
    ) {
        debug_assert_eq!(self.status, NodeStatus::Inserting);
        let op = self.next_op();
        self.insert = Some(Box::new(InsertState {
            op,
            surrogate: None,
            shared_len: 0,
            hellos: Vec::new(),
            level: 0,
            list: Vec::new(),
            pending: BTreeSet::new(),
            acc: Vec::new(),
            k: self.cfg.k_for(8), // refined when the surrogate answers
            deferred,
            ready: None,
        }));
        let m = Box::new(RoutedMsg {
            kind: RoutedKind::FindSurrogate { reply_to: self.me, op },
            target: self.me.id,
            level: 0,
            past_hole: false,
            exclude: None,
            hops: 0,
            dist: 0.0,
            visited: Visited::default(),
            local_branch: false,
            // Joins are always traced when the collector is on: they are
            // rare relative to locates, so no sampling is needed.
            trace: ctx.trace_enabled().then_some(TraceId::join(op.0)),
        });
        metrics::INSERT_STARTED.inc(ctx);
        metrics::JOIN_MESSAGES.inc(ctx);
        ctx.send(gateway.idx, Msg::Routed(m));
    }

    /// Fig. 7, step 2: the surrogate answered; fetch its neighbor table.
    pub(crate) fn on_surrogate_is(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        surrogate: NodeRef,
    ) {
        let Some(ins) = self.insert.as_mut() else { return };
        if ins.op != op || ins.surrogate.is_some() {
            return;
        }
        ins.surrogate = Some(surrogate);
        ins.shared_len = self.me.id.shared_prefix_len(&surrogate.id);
        metrics::JOIN_MESSAGES.inc(ctx);
        ctx.send(surrogate.idx, Msg::GetTableCopy { op, new_node: self.me });
    }

    /// Surrogate side of `GetPrelimNeighborTable`.
    pub(crate) fn on_get_table_copy(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        new_node: NodeRef,
    ) {
        let mut refs = self.table.all_refs();
        refs.push(self.me);
        let shared_len = self.me.id.shared_prefix_len(&new_node.id);
        metrics::JOIN_MESSAGES.inc(ctx);
        ctx.send(new_node.idx, Msg::TableCopy { op, refs, shared_len });
    }

    /// Fig. 7, steps 3–4: absorb the preliminary table, then ask the
    /// surrogate for a wave of one that multicasts `LinkAndXferRoot` +
    /// `SendID` over the shared prefix, carrying the watch list of our
    /// remaining holes (Fig. 11).
    pub(crate) fn on_table_copy(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        refs: Vec<NodeRef>,
        shared_len: usize,
    ) {
        let Some(ins) = self.insert.as_ref() else { return };
        if ins.op != op {
            return;
        }
        // Refine k now that we have a population estimate: the surrogate's
        // table references Θ(b·log n) distinct nodes.
        let est_n = (refs.len().max(2)) * self.cfg.base().max(2);
        for r in refs {
            self.consider_neighbor(ctx, r);
        }
        let ins = self.insert.as_mut().expect("still inserting");
        ins.shared_len = shared_len;
        if self.cfg.list_size_k.is_none() {
            ins.k = self.cfg.k_for(est_n);
        } else {
            ins.k = self.cfg.k_for(0);
        }
        // Watch list: every hole at levels up to the shared prefix.
        let mut watch = Vec::new();
        for lvl in 0..=shared_len.min(self.cfg.levels() - 1) {
            for j in self.table.holes_at(lvl) {
                watch.push((lvl, j));
            }
        }
        let surrogate = ins.surrogate.expect("surrogate known");
        let insertee =
            BatchInsertee { op, new_node: self.me, prefix: self.me.id.prefix(shared_len), watch };
        if ins.deferred {
            // Batched mode: report readiness to the driver (which reads it
            // through `batch_join_ready`) instead of asking for a wave.
            ins.ready = Some(insertee);
            metrics::INSERT_BATCH_READY.inc(ctx);
        } else {
            metrics::JOIN_MESSAGES.inc(ctx);
            ctx.send(surrogate.idx, Msg::StartBatchMulticast { insertees: vec![insertee] });
        }
    }

    /// A multicast recipient announced itself (`SendID`): it belongs to
    /// the level-`|α|` candidate list.
    pub(crate) fn on_hello(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, op: OpId, who: NodeRef) {
        self.consider_neighbor(ctx, who);
        if let Some(ins) = self.insert.as_mut() {
            if ins.op == op {
                ins.hellos.push(who);
            }
        }
    }

    /// Watch-list answers: nodes that fill holes we advertised.
    pub(crate) fn on_candidates(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        _op: OpId,
        refs: Vec<NodeRef>,
    ) {
        for r in refs {
            self.consider_neighbor(ctx, r);
        }
    }

    /// The multicast finished: we are a core node (Theorem 6). Begin the
    /// level-by-level neighbor-table build (Fig. 4) from the multicast's
    /// `SendID` list.
    pub(crate) fn on_mcast_done(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, op: OpId) {
        let me = self.me;
        let Some(ins) = self.insert.as_mut() else { return };
        if ins.op != op {
            return;
        }
        let k = ins.k;
        let mut list = std::mem::take(&mut ins.hellos);
        if let Some(s) = ins.surrogate {
            list.push(s);
        }
        list.sort();
        list.dedup();
        list.retain(|r| r.idx != me.idx);
        // KeepClosestK over the level-|α| candidates. The list was just
        // sorted by NodeRef (ascending idx), and sort_by is stable, so
        // equal distances keep ascending-idx order: (distance, index).
        // tapestry-lint: allow(float-tiebreak)
        list.sort_by(|a, b| {
            ctx.distance(me.idx, a.idx).partial_cmp(&ctx.distance(me.idx, b.idx)).unwrap()
        });
        list.truncate(k);
        ins.list = list;
        if ins.shared_len == 0 {
            // The multicast covered the whole network: the level-0 list is
            // already in hand and the table is fully built.
            self.finish_insert(ctx);
        } else {
            let level = ins.shared_len - 1;
            ins.level = level;
            self.begin_level_fetch(ctx, level);
        }
    }

    /// Issue `GetForwardAndBackPointers` to everyone on the current list
    /// (Fig. 4, `GetNextList` line 3).
    fn begin_level_fetch(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, level: usize) {
        let me = self.me;
        let timeout = self.cfg.insert_level_timeout;
        let ins = self.insert.as_mut().expect("inserting");
        let op = ins.op;
        ins.acc.clear();
        ins.pending = ins.list.iter().map(|r| r.idx).collect();
        if ins.pending.is_empty() {
            self.finalize_level(ctx, level);
            return;
        }
        let fetches = ins.pending.len() as u64;
        metrics::INSERT_GETPTR.add(ctx, fetches);
        metrics::JOIN_MESSAGES.add(ctx, fetches);
        ctx.send_each(ins.pending.iter().copied(), Msg::GetPointers { op, level, new_node: me });
        ctx.set_timer(timeout, Timer::InsertLevelTimeout { op, level });
    }

    /// Remote side of `GetNextList`: return forward and backward pointers
    /// at `level`, and consider the new node for our own table (Fig. 4
    /// line 4, the Theorem 4 update).
    pub(crate) fn on_get_pointers(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        level: usize,
        new_node: NodeRef,
    ) {
        self.consider_neighbor(ctx, new_node);
        let mut refs = self.table.level_refs(level);
        refs.extend(self.backpointers().filter(|r| self.me.id.shared_prefix_len(&r.id) == level));
        refs.sort();
        refs.dedup();
        metrics::JOIN_MESSAGES.inc(ctx);
        ctx.send(new_node.idx, Msg::Pointers { op, level, refs });
    }

    /// A list member's pointers arrived.
    pub(crate) fn on_pointers(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        from: NodeIdx,
        op: OpId,
        level: usize,
        refs: Vec<NodeRef>,
    ) {
        let Some(ins) = self.insert.as_mut() else { return };
        if ins.op != op || ins.level != level {
            return; // stale reply from a timed-out level
        }
        ins.acc.extend(refs);
        let done = ins.pending.remove(&from) && ins.pending.is_empty();
        if done {
            self.finalize_level(ctx, level);
        }
    }

    /// Level deadline: proceed with whatever replies arrived (keeps the
    /// build live across mid-insert failures).
    pub(crate) fn on_insert_timeout(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        level: usize,
    ) {
        let Some(ins) = self.insert.as_ref() else { return };
        if ins.op != op || ins.level != level || ins.pending.is_empty() {
            return;
        }
        metrics::INSERT_LEVEL_TIMEOUT.inc(ctx);
        // Each list member that never answered is staleness evidence:
        // queue a targeted removal instead of waiting for a probe round.
        let silent: Vec<NodeIdx> = ins.pending.iter().copied().collect();
        for peer in silent {
            self.record_fact(ctx, FactKind::FailedContact, RepairTask::RemoveDead { peer });
        }
        self.finalize_level(ctx, level);
    }

    /// `KeepClosestK(temp ∪ nextList)` then `BuildTableFromList`
    /// (Fig. 4): trim the merged candidates to the closest `k`, absorb
    /// them into the table, and descend a level (or finish at level 0).
    fn finalize_level(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, level: usize) {
        let me = self.me;
        let ins = self.insert.as_mut().expect("inserting");
        let k = ins.k;
        let mut merged: Vec<NodeRef> = std::mem::take(&mut ins.acc);
        merged.extend(ins.list.iter().copied());
        merged.sort();
        merged.dedup();
        merged.retain(|r| r.idx != me.idx);
        // Stable sort over the just-sorted (ascending idx) merge: ties
        // resolve to the lowest idx — the (distance, index) contract.
        // tapestry-lint: allow(float-tiebreak)
        merged.sort_by(|a, b| {
            ctx.distance(me.idx, a.idx).partial_cmp(&ctx.distance(me.idx, b.idx)).unwrap()
        });
        merged.truncate(k);
        ins.pending.clear();
        for &r in &merged {
            self.consider_neighbor(ctx, r);
        }
        self.insert.as_mut().expect("inserting").list = merged;
        if level == 0 {
            self.finish_insert(ctx);
        } else {
            let next = level - 1;
            self.insert.as_mut().expect("inserting").level = next;
            self.begin_level_fetch(ctx, next);
        }
    }

    fn finish_insert(&mut self, ctx: &mut Ctx<'_, Msg, Timer>) {
        self.status = NodeStatus::Active;
        metrics::INSERT_COMPLETED.inc(ctx);
        // Keep the surrogate reference for late-arriving queries; the
        // insert state itself is finished.
        if let Some(ins) = self.insert.as_mut() {
            ins.pending.clear();
            ins.acc.clear();
            ins.hellos.clear();
        }
    }
}

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
            hellos: ClosestK::default(),
            level: 0,
            list: ClosestK::default(),
            pending: BTreeSet::new(),
            // Admission fixed `list_size_k` for the population this node
            // joins, so `k_for` returns it whatever `n` it is given.
            k: self.cfg.k_for(0),
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
        for r in refs {
            self.consider_neighbor(ctx, r);
        }
        let ins = self.insert.as_mut().expect("still inserting");
        ins.shared_len = shared_len;
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

    /// A multicast recipient announced itself (`SendID`): it is a
    /// candidate for the level-`|α|` list. Once the join finished it is
    /// only a neighbor offer.
    pub(crate) fn on_hello(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, op: OpId, who: NodeRef) {
        self.consider_neighbor(ctx, who);
        if self.status != NodeStatus::Inserting {
            return;
        }
        let me = self.me.idx;
        if let Some(ins) = self.insert.as_mut() {
            if ins.op == op {
                ins.hellos.offer(ins.k, me, [who], |r| ctx.distance(me, r));
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
        let me = self.me.idx;
        let Some(ins) = self.insert.as_mut() else { return };
        if ins.op != op {
            return;
        }
        ins.hellos.offer(ins.k, me, ins.surrogate, |r| ctx.distance(me, r));
        ins.list = std::mem::take(&mut ins.hellos);
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
        ins.pending = ins.list.refs().map(|r| r.idx).collect();
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

    /// A list member's pointers arrived: merge them into the list
    /// (`KeepClosestK(temp ∪ nextList)`, one reply at a time).
    pub(crate) fn on_pointers(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        from: NodeIdx,
        op: OpId,
        level: usize,
        refs: Vec<NodeRef>,
    ) {
        let me = self.me.idx;
        let Some(ins) = self.insert.as_mut() else { return };
        if ins.op != op || ins.level != level || ins.pending.is_empty() {
            return; // stale reply from a timed-out level or a finished join
        }
        ins.list.offer(ins.k, me, refs, |r| ctx.distance(me, r));
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

    /// `BuildTableFromList` (Fig. 4): absorb the level's closest `k`
    /// into the table, and descend a level (or finish at level 0).
    fn finalize_level(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, level: usize) {
        let ins = self.insert.as_mut().expect("inserting");
        debug_assert!(ins.list.len() <= ins.k, "KeepClosestK keeps k");
        ins.pending.clear();
        let list = std::mem::take(&mut ins.list);
        for r in list.refs() {
            self.consider_neighbor(ctx, r);
        }
        self.insert.as_mut().expect("inserting").list = list;
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
        // candidate lists are done with, so free them.
        if let Some(ins) = self.insert.as_mut() {
            ins.pending.clear();
            ins.list = ClosestK::default();
            ins.hellos = ClosestK::default();
        }
    }
}

/// Fig. 4's `KeepClosestK`, applied as candidates arrive: at most `k`
/// refs, ascending by `(distance from the owner, address)`, no address
/// twice and never the owner's. A candidate's distance is read once, when
/// it is offered, and kept beside it; the list never grows past `k`.
#[derive(Debug, Default)]
pub(crate) struct ClosestK(Vec<(f64, NodeRef)>);

impl ClosestK {
    /// Merge `candidates` into a list of at most `k` that belongs to
    /// `owner`; `dist` reads a candidate's distance from the owner.
    pub(crate) fn offer(
        &mut self,
        k: usize,
        owner: NodeIdx,
        candidates: impl IntoIterator<Item = NodeRef>,
        dist: impl Fn(NodeIdx) -> f64,
    ) {
        for r in candidates {
            if r.idx == owner {
                continue;
            }
            let d = dist(r.idx);
            let key = |e: &(f64, NodeRef)| {
                e.0.partial_cmp(&d).expect("distances are numbers").then(e.1.idx.cmp(&r.idx))
            };
            // `Ok`: held already. `Err(at)` past `k`: not among the closest.
            if let Err(at) = self.0.binary_search_by(key) {
                if at < k {
                    if self.0.len() == k {
                        self.0.pop();
                    }
                    self.0.reserve_exact(k - self.0.len());
                    self.0.insert(at, (d, r));
                }
            }
        }
    }

    /// The list, closest first.
    pub(crate) fn refs(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.0.iter().map(|&(_, r)| r)
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Refs of room held.
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::ClosestK;
    use crate::refs::NodeRef;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use tapestry_id::{Id, IdSpace};
    use tapestry_metric::{GridSpace, MetricSpace, TorusSpace};

    /// `KeepClosestK` as it was computed over the whole union of a
    /// level's replies: sort, dedup, drop the owner, stable sort by
    /// distance, truncate. (`total_cmp` orders distances, which are never
    /// NaN or −0, exactly as `partial_cmp` did.)
    fn keep_closest_k(
        metric: &dyn MetricSpace,
        me: NodeRef,
        k: usize,
        mut merged: Vec<NodeRef>,
    ) -> Vec<NodeRef> {
        merged.sort();
        merged.dedup();
        merged.retain(|r| r.idx != me.idx);
        #[expect(
            clippy::disallowed_methods,
            reason = "a stable sort over the index-sorted list: equal distances keep index order"
        )]
        merged.sort_by(|a, b| {
            metric.distance(me.idx, a.idx).total_cmp(&metric.distance(me.idx, b.idx))
        });
        merged.truncate(k);
        merged
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Candidates offered in any order, split across any replies,
        /// leave the bounded list equal to `KeepClosestK` of their union,
        /// order and ties included, and never with room for more than k.
        #[test]
        fn bounded_merge_equals_keep_closest_k(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            // On a lattice many candidates sit at equal distances from
            // the owner, so the address tie-break decides the order.
            let metric: Box<dyn MetricSpace> = if rng.gen_bool(0.5) {
                Box::new(GridSpace::new(9, 9, 1.0))
            } else {
                Box::new(TorusSpace::random(81, 100.0, seed))
            };
            let n = metric.len();
            let space = IdSpace::new(4, 4);
            let refs: Vec<NodeRef> =
                (0..n).map(|i| NodeRef::new(i, Id::from_u64(space, i as u64 * 37))).collect();
            let me = refs[rng.gen_range(0..n)];
            for k in [1, 3, 39] {
                // Up to 120 draws from 81 points: duplicates, often fewer
                // than k distinct candidates, sometimes the owner itself.
                let draws = rng.gen_range(0..120usize);
                let mut cands: Vec<NodeRef> = (0..draws).map(|_| refs[rng.gen_range(0..n)]).collect();
                if rng.gen_bool(0.5) {
                    cands.push(me);
                }
                let want = keep_closest_k(&*metric, me, k, cands.clone());
                cands.shuffle(&mut rng);
                let mut got = ClosestK::default();
                let mut rest = &cands[..];
                while !rest.is_empty() {
                    let (reply, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                    got.offer(k, me.idx, reply.iter().copied(), |r| metric.distance(me.idx, r));
                    proptest::prop_assert!(got.capacity() <= k);
                    rest = tail;
                }
                proptest::prop_assert_eq!(got.refs().collect::<Vec<_>>(), want);
            }
        }
    }
}

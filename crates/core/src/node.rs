use crate::config::TapestryConfig;
use crate::insert::ClosestK;
use crate::messages::{BatchInsertee, Msg, OpId, Timer};
use crate::network::LocateResult;
use crate::object_store::ObjectStore;
use crate::refs::{idx32, Backpointers, Names, NodeRef};
use crate::repair::{FactKind, RepairLedger, RepairTask};
use crate::routing_table::RoutingTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tapestry_id::Guid;
use tapestry_metric::MetricSpace;
use tapestry_sim::{Actor, Ctx, NodeIdx};
use tapestry_trace::metrics;

/// Lifecycle of a Tapestry node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Mid-insertion (Fig. 7); unknown-object queries are forwarded to the
    /// surrogate per Fig. 10.
    Inserting,
    /// Fully integrated (a *core node* in the sense of Definition 1 once
    /// its multicast completed).
    Active,
    /// Voluntary departure in progress (Fig. 12).
    Leaving,
}

/// State of an in-progress insertion on the node being inserted.
#[derive(Debug)]
pub(crate) struct InsertState {
    pub op: OpId,
    pub surrogate: Option<NodeRef>,
    pub shared_len: usize,
    /// The closest `k` of the `SendID` announcements the multicast
    /// brought: the level-`|α|` list in the making.
    pub hellos: ClosestK,
    /// Level currently being fetched by `GetNextList`.
    pub level: usize,
    /// Fig. 4's list: the closest `k` so far. A level starts from the
    /// previous level's list and merges each `Pointers` reply into it.
    pub list: ClosestK,
    /// Nodes whose `Pointers` reply is still outstanding.
    pub pending: BTreeSet<NodeIdx>,
    /// List size `k`: `list_size_k`, which admission fixes for the
    /// population the node joins when the configuration leaves it open.
    pub k: usize,
    /// Deferred mode (`StartInsert { deferred: true }`): stop after
    /// Fig. 7 step 3 and wait for the driver to launch a shared wave.
    pub deferred: bool,
    /// Set when a deferred insert has finished steps 1–3: the entry a
    /// shared wave carries for this insertee.
    pub ready: Option<BatchInsertee>,
}

/// State of one acknowledged-multicast session on a participant. A solo
/// insertion's wave carries exactly one insertee; a shared wave carries
/// the whole coalesced batch (same ack tree, same pin/unpin discipline).
#[derive(Debug)]
pub(crate) struct McastSession {
    /// Where to send our ack (None = we initiated; completion reports
    /// `MulticastDone` to every insertee instead).
    pub parent: Option<NodeIdx>,
    /// Outstanding child acknowledgments.
    pub pending: usize,
    /// The nodes this multicast introduces, as `(insertion op, node,
    /// covered)`. `covered` records whether this participant matched the
    /// insertee's coverage prefix: only covered insertees were pinned, so
    /// only they are unpinned and re-offered at session end — an
    /// uncovered insertee must leave no trace here, exactly as if a wave
    /// of its own had never arrived.
    pub insertees: Vec<(OpId, NodeRef, bool)>,
}

/// State of a voluntary departure on the departing node.
#[derive(Debug, Default)]
pub(crate) struct LeaveState {
    /// Backpointer holders that have not yet acknowledged `Leaving`.
    pub pending_acks: BTreeSet<NodeIdx>,
    /// Set once `LeaveFinal` went out; the driver may now remove us.
    pub finished: bool,
}

/// What a node has heard from one peer it probes in its current round.
/// The order matters only to `start_probe_round`, which keeps the first
/// entry per peer: a table neighbor is probed as such even when it also
/// holds a death certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Heard {
    /// A table neighbor: nothing yet, and the deadline has not passed.
    Pending,
    /// A certified peer outside the table, pinged to re-check its
    /// certificate: nothing yet, and the deadline has not passed.
    Recheck,
    /// A pong, or the peer's own ping of the same round.
    Answered,
    /// Nothing by the deadline: a table neighbor is declared dead, a
    /// re-checked peer is forgotten.
    Missed,
}

/// Failure-detection state (§5.2), and the one owner of death
/// certificates.
#[derive(Debug, Default)]
pub(crate) struct ProbeState {
    /// Network-wide number of the latest round this node started (0:
    /// none yet).
    pub round: u64,
    /// The peers probed in that round, ascending by index, each with
    /// what has been heard from it. An answer marks its entry and moves
    /// nothing, so the vector stays searchable; it outlives the deadline
    /// (a late answer finds its `Missed` entry), and the buffer is reused
    /// from round to round.
    pub awaiting: Vec<(u32, Heard)>,
    /// The round `early` belongs to.
    pub early_round: u64,
    /// Peers whose ping for `early_round` arrived before this node
    /// started that round. They were ponged then; the round counts them
    /// answered and does not ping them.
    pub early: Vec<u32>,
    /// Death certificates, ascending: peers declared dead on strong
    /// evidence (a bounced message or a missed probe ack). Stale
    /// `Candidates` / `ShareTable` gossip keeps naming dead nodes after
    /// they are excised; without a certificate each mention re-adds the
    /// corpse, the next contact bounces, and the remove/re-query cycle
    /// repeats. A certificate lasts until the next round re-checks it:
    /// that round pings every certified peer outside the table, an
    /// answer (any ping or pong from it) readmits the peer, and silence
    /// at the deadline forgets it — its entries were excised when it was
    /// certified. So the set holds at most the certificates issued since
    /// the previous round started. Node indices *are* reused (a failed
    /// insertee's point returns to the runner's free list and a later
    /// join takes it, under the same name), and a partition makes both
    /// sides certify each other; the re-check is what lets either come
    /// back.
    pub certificates: Vec<u32>,
}

impl ProbeState {
    /// Mark `peer` answered in the current round. `None` when it was not
    /// probed in this round; otherwise whether the answer is late, i.e.
    /// the deadline had already passed it.
    pub fn answer(&mut self, peer: NodeIdx) -> Option<bool> {
        let at = self.awaiting.binary_search_by_key(&peer, |&(idx, _)| idx as NodeIdx).ok()?;
        Some(std::mem::replace(&mut self.awaiting[at].1, Heard::Answered) == Heard::Missed)
    }

    /// Does `peer` hold a death certificate?
    pub fn certified(&self, peer: NodeIdx) -> bool {
        self.certificates.binary_search(&idx32(peer)).is_ok()
    }

    /// Issue `peer` a death certificate (a no-op if it holds one).
    pub fn certify(&mut self, peer: NodeIdx) {
        if let Err(at) = self.certificates.binary_search(&idx32(peer)) {
            self.certificates.insert(at, idx32(peer));
        }
    }

    /// Tear up `peer`'s certificate: it answered, so it is alive.
    pub fn tear_up(&mut self, peer: NodeIdx) {
        if let Ok(at) = self.certificates.binary_search(&idx32(peer)) {
            self.certificates.remove(at);
        }
    }

    /// The round's deadline: every entry still silent becomes `Missed`.
    /// Silent re-checks are forgotten, and silent table neighbors are
    /// certified and returned for the caller to declare dead.
    pub fn deadline(&mut self) -> Vec<NodeIdx> {
        let mut dead = Vec::new();
        let mut silent = Vec::new();
        for (idx, heard) in &mut self.awaiting {
            match *heard {
                Heard::Pending => dead.push(*idx as NodeIdx),
                Heard::Recheck => silent.push(*idx),
                Heard::Answered | Heard::Missed => continue,
            }
            *heard = Heard::Missed;
        }
        // `silent` ascends by index, as `awaiting` does.
        if !silent.is_empty() {
            self.certificates.retain(|peer| silent.binary_search(peer).is_err());
        }
        for &peer in &dead {
            self.certify(peer);
        }
        dead
    }
}

/// A Tapestry overlay node: routing mesh, object pointers and all
/// protocol state, driven as a deterministic actor.
pub struct TapestryNode {
    pub(crate) cfg: TapestryConfig,
    pub(crate) me: NodeRef,
    pub(crate) status: NodeStatus,
    pub(crate) table: RoutingTable,
    /// Nodes that keep us in their routing table (§2.1 backpointers).
    pub(crate) backptrs: Backpointers,
    pub(crate) store: ObjectStore,
    pub(crate) op_counter: u64,
    /// Boxed: only a joining node has one.
    pub(crate) insert: Option<Box<InsertState>>,
    pub(crate) mcast: BTreeMap<OpId, McastSession>,
    /// Sessions already completed (suppresses duplicate multicasts, §4.4).
    pub(crate) mcast_done: BTreeSet<OpId>,
    pub(crate) leave: Option<LeaveState>,
    /// Held watch-list entries (§4.4, Fig. 11): `(watcher, level, digit,
    /// op)` holes advertised by inserting nodes that we could not serve at
    /// multicast time. When a node filling one appears here later (e.g. a
    /// concurrent insertee), the watcher is sent a `Candidates` report.
    pub(crate) watches: Vec<(NodeRef, usize, u8, OpId)>,
    /// Probe rounds and the death certificates they re-check (§5.2).
    pub(crate) probe: ProbeState,
    /// Completed locate operations awaiting collection by the driver.
    pub(crate) locate_results: Vec<LocateResult>,
    /// Locates issued here and still in flight: `(op, guid, issue time)`,
    /// in `op` order (a node's op ids rise). Freed when the last answer
    /// arrives, so a node with nothing in flight holds no buffer.
    pub(crate) pending_locates: Vec<(OpId, Guid, tapestry_sim::SimTime)>,
    /// Staleness-fact ledger and budgeted repair scheduler.
    pub(crate) repair: RepairLedger<RepairTask>,
    pub(crate) rng: StdRng,
}

impl TapestryNode {
    /// Create the node at point `idx`, named by `names`, in `Active` state
    /// with only self entries (used for bootstrap and by the static
    /// builder, which then fills the table). Its table reads distances
    /// from `metric`, the engine's ([`Engine::shared_metric`]).
    ///
    /// [`Engine::shared_metric`]: tapestry_sim::Engine::shared_metric
    pub fn new_active(
        cfg: TapestryConfig,
        names: Names,
        metric: Arc<dyn MetricSpace>,
        idx: NodeIdx,
        seed: u64,
    ) -> Self {
        Self::with_status(cfg, names, metric, idx, seed, NodeStatus::Active)
    }

    /// Create a node that will join dynamically (`StartInsert` expected).
    /// Its join keeps `cfg.list_size_k` candidates per level; network
    /// admission sets it for the population the node joins.
    pub fn new_inserting(
        cfg: TapestryConfig,
        names: Names,
        metric: Arc<dyn MetricSpace>,
        idx: NodeIdx,
        seed: u64,
    ) -> Self {
        Self::with_status(cfg, names, metric, idx, seed, NodeStatus::Inserting)
    }

    fn with_status(
        cfg: TapestryConfig,
        names: Names,
        metric: Arc<dyn MetricSpace>,
        idx: NodeIdx,
        seed: u64,
        status: NodeStatus,
    ) -> Self {
        let me = names.nref(idx);
        TapestryNode {
            cfg,
            me,
            status,
            table: RoutingTable::new(names, metric, idx, cfg.base(), cfg.levels()),
            backptrs: Backpointers::default(),
            store: ObjectStore::new(),
            op_counter: 0,
            insert: None,
            mcast: BTreeMap::new(),
            mcast_done: BTreeSet::new(),
            leave: None,
            watches: Vec::new(),
            probe: ProbeState::default(),
            locate_results: Vec::new(),
            pending_locates: Vec::new(),
            repair: RepairLedger::new(),
            rng: StdRng::seed_from_u64(seed ^ (me.idx as u64).wrapping_mul(0x9E37_79B9)),
        }
    }

    /// This node's name and address.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// Current lifecycle status.
    pub fn status(&self) -> NodeStatus {
        self.status
    }

    /// The routing mesh (read-only; used by invariant checks and tests).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Mutable mesh access for the static builder.
    pub fn table_mut(&mut self) -> &mut RoutingTable {
        &mut self.table
    }

    /// Object pointers and local replicas.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Backpointer set (who references us).
    pub fn backpointers(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.backptrs.iter(self.table.names())
    }

    /// Bytes one backpointer occupies (its holder's address).
    pub const BACKPOINTER_BYTES: usize = Backpointers::BYTES;

    /// Bytes of heap behind the routing mesh: the table's entry and
    /// offset arrays and the backpointer vector, by capacity. Computed
    /// from the containers alone, so it repeats exactly from run to run.
    /// (The object pointers are [`ObjectStore::heap_bytes`]; the shared
    /// name directory is [`Names::heap_bytes`], once per network.)
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes() + self.backptrs.heap_bytes()
    }

    /// Room for candidate refs that the insertion state holds (the
    /// `SendID` list and Fig. 4's list, by capacity), with the join's
    /// list size `k`. `None` for a node that never joined.
    pub fn insertion_candidates(&self) -> Option<(usize, usize)> {
        let ins = self.insert.as_ref()?;
        Some((ins.hellos.capacity() + ins.list.capacity(), ins.k))
    }

    /// Voluntary departure finished — safe to remove from the engine.
    pub fn leave_finished(&self) -> bool {
        self.leave.as_ref().is_some_and(|l| l.finished)
    }

    /// If this node is a deferred insertee that finished Fig. 7 steps 1–3
    /// and is waiting for a shared multicast wave: its wave entry and its
    /// surrogate (the canonical wave initiator).
    pub fn batch_join_ready(&self) -> Option<(BatchInsertee, NodeRef)> {
        if self.status != NodeStatus::Inserting {
            return None;
        }
        let ins = self.insert.as_ref()?;
        Some((ins.ready.clone()?, ins.surrogate?))
    }

    /// Queued repair tasks awaiting budget — the sampler's per-node
    /// backlog contribution.
    pub fn repair_backlog(&self) -> usize {
        self.repair.len()
    }

    /// Drain completed locate operations.
    pub fn take_locate_results(&mut self) -> Vec<LocateResult> {
        std::mem::take(&mut self.locate_results)
    }

    /// Remove and return the most recently completed locate of `guid`,
    /// leaving every other queued result in place.
    pub(crate) fn take_locate_result_for(&mut self, guid: Guid) -> Option<LocateResult> {
        let at = self.locate_results.iter().rposition(|r| r.guid == guid)?;
        Some(self.locate_results.remove(at))
    }

    /// One step of the configured surrogate-routing scheme (§2.3):
    /// dispatches between Tapestry-native and distributed PRR-like
    /// routing, threading the PRR-like "past the first hole" state.
    pub fn route_next(
        &self,
        target: &tapestry_id::Id,
        level: usize,
        exclude: Option<NodeIdx>,
        past_hole: bool,
    ) -> (crate::routing_table::Hop, bool) {
        match self.cfg.routing {
            crate::config::RoutingScheme::TapestryNative => {
                (self.table.next_hop(target, level, exclude), past_hole)
            }
            crate::config::RoutingScheme::PrrLike => {
                self.table.next_hop_prr(target, level, exclude, past_hole)
            }
        }
    }

    /// Fresh operation id.
    pub(crate) fn next_op(&mut self) -> OpId {
        self.op_counter += 1;
        OpId::new(self.me.idx, self.op_counter)
    }

    /// Measure, insert into the routing table, and maintain backpointers
    /// (`AddToTableIfCloser` with the §2.1 backpointer discipline).
    pub(crate) fn consider_neighbor(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, r: NodeRef) {
        if r.idx == self.me.idx || self.probe.certified(r.idx) {
            return;
        }
        let outcome = self.table.add_if_closer(r, self.cfg.redundancy);
        if outcome.newly_added {
            ctx.send(r.idx, Msg::AddedYou { me: self.me });
            self.notify_watchers(ctx, r);
        }
        for e in outcome.evicted {
            if !self.table.contains(e.idx) {
                ctx.send(e.idx, Msg::RemovedYou { me: self.me });
                // The evictee is alive but no longer routes through us —
                // pointers that traveled via it deserve a re-route once
                // the budget allows.
                self.record_fact(ctx, FactKind::Eviction, RepairTask::ReRoute { peer: e.idx });
            }
        }
    }

    /// Fig. 11: a node we just learned about may fill a hole some
    /// inserting node advertised on its watch list. Report it and retire
    /// the served entries (one candidate is enough to fill a hole; closer
    /// ones keep arriving through the normal protocol).
    pub(crate) fn notify_watchers(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, r: NodeRef) {
        if self.watches.is_empty() {
            return;
        }
        let mut served: Vec<(NodeRef, OpId)> = Vec::new();
        self.watches.retain(|&(watcher, lvl, dig, op)| {
            let fills = watcher.idx != r.idx
                && watcher.id.shared_prefix_len(&r.id) == lvl
                && r.id.digit(lvl) == dig;
            if fills {
                served.push((watcher, op));
            }
            !fills
        });
        for (watcher, op) in served {
            metrics::JOIN_MESSAGES.inc(ctx);
            ctx.send(watcher.idx, Msg::Candidates { op, refs: vec![r] });
        }
    }
}

impl Actor for TapestryNode {
    type Msg = Msg;
    type Timer = Timer;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, from: NodeIdx, msg: Msg) {
        match msg {
            Msg::Routed(m) => self.handle_routed(ctx, Some(from), m),
            Msg::LocateDone { op, server, hops, dist, reached_root } => {
                self.on_locate_done(ctx, op, server, hops, dist, reached_root)
            }
            Msg::SurrogateIs { op, surrogate } => self.on_surrogate_is(ctx, op, surrogate),
            Msg::StartInsert { gateway, deferred } => self.start_insert(ctx, gateway, deferred),
            Msg::StartBatchMulticast { insertees } => self.on_start_batch_multicast(ctx, insertees),
            Msg::BatchMulticast { op, prefix, insertees } => {
                self.on_batch_multicast(ctx, from, op, prefix, insertees)
            }
            Msg::GetTableCopy { op, new_node } => self.on_get_table_copy(ctx, op, new_node),
            Msg::TableCopy { op, refs, shared_len } => {
                self.on_table_copy(ctx, op, refs, shared_len)
            }
            Msg::MulticastAck { op } => self.on_mcast_ack(ctx, op),
            Msg::MulticastDone { op } => self.on_mcast_done(ctx, op),
            Msg::Hello { op, me } => self.on_hello(ctx, op, me),
            Msg::Candidates { op, refs } => self.on_candidates(ctx, op, refs),
            Msg::GetPointers { op, level, new_node } => {
                self.on_get_pointers(ctx, op, level, new_node)
            }
            Msg::Pointers { op, level, refs } => self.on_pointers(ctx, from, op, level, refs),
            Msg::AddedYou { me } => {
                self.backptrs.insert(me, self.table.names());
                self.consider_neighbor(ctx, me);
            }
            Msg::RemovedYou { me } => {
                self.backptrs.remove(me.idx);
            }
            Msg::TransferPtrs { ptrs, from: sender } => self.on_transfer_ptrs(ctx, ptrs, sender),
            Msg::TransferAck { guids } => self.on_transfer_ack(ctx, guids),
            Msg::OptimizePtr { ptr, changed, level, sender } => {
                self.on_optimize_ptr(ctx, ptr, changed, level, sender)
            }
            Msg::DeleteBackward { ptr, changed } => self.on_delete_backward(ctx, ptr, changed),
            Msg::Leaving { me, replacements } => self.on_leaving(ctx, me, replacements),
            Msg::LeaveFinal { me } => self.on_leave_final(ctx, me),
            Msg::LeaveAck { me } => self.on_leave_ack(ctx, me),
            Msg::Ping { round, me } => self.on_ping(ctx, me, round),
            Msg::Pong { round, me } => self.on_pong(ctx, me, round),
            Msg::FindReplacement { op, prefix, digit, dead, reply_to } => {
                self.on_find_replacement(ctx, op, prefix, digit, dead, reply_to)
            }
            Msg::ReplacementCandidates { op: _, refs } => {
                for r in refs {
                    self.consider_neighbor(ctx, r);
                }
            }
            Msg::AppPublish { guid } => self.app_publish(ctx, guid),
            Msg::AppLocate { guid, trace } => self.app_locate(ctx, guid, trace),
            Msg::AppLeave => self.app_leave(ctx),
            Msg::AppProbe { round } => self.start_probe_round(ctx, round),
            Msg::AppOptimize => self.share_tables_round(ctx),
            Msg::ShareTable { level: _, refs } => {
                for r in refs {
                    self.consider_neighbor(ctx, r);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, timer: Timer) {
        match timer {
            Timer::InsertLevelTimeout { op, level } => self.on_insert_timeout(ctx, op, level),
            Timer::ProbeDeadline { round } => self.on_probe_deadline(ctx, round),
            Timer::McastDeadline { op } => self.on_mcast_deadline(ctx, op),
            Timer::RepairTick => self.on_repair_tick(ctx),
        }
    }

    /// Transport failure notice: a message we sent bounced off a dead
    /// node — the "failed Hello" staleness fact. A bounce is
    /// authoritative, so the peer earns a death certificate; once it is
    /// fully excised, further bounces carry no new evidence and are not
    /// recorded.
    fn on_contact_failed(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, peer: NodeIdx) {
        let excised = self.probe.certified(peer)
            && !self.table.contains(peer)
            && !self.backptrs.contains(peer);
        if excised {
            return;
        }
        self.probe.certify(peer);
        self.record_fact(ctx, FactKind::FailedContact, RepairTask::RemoveDead { peer });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TapestryNetwork;
    use tapestry_metric::TorusSpace;

    fn torus_mesh(seed: u64) -> TapestryNetwork {
        let space = TorusSpace::random(64, 1000.0, seed);
        TapestryNetwork::build(TapestryConfig::default(), Box::new(space), seed)
    }

    /// A forged completion for `op` at `origin`, from outside the mesh.
    fn forge_done(net: &mut TapestryNetwork, origin: NodeIdx, op: OpId) {
        let msg = Msg::LocateDone { op, server: None, hops: 1, dist: 1.0, reached_root: true };
        net.engine_mut().inject(origin, msg);
    }

    /// A locate completes once. A duplicate `LocateDone` and ones with
    /// forged op ids are ignored, also while other locates of the same
    /// origin are in flight; and a drained run leaves no node holding a
    /// pending locate or the buffer that held one.
    #[test]
    fn a_locate_completes_once_and_leaves_nothing_pending() {
        let mut net = torus_mesh(3);
        let members = net.node_ids();
        let (server, origin) = (members[1], members[40]);
        let guids: Vec<Guid> = (0..3).map(|_| net.random_guid()).collect();
        for &g in &guids {
            net.publish(server, g);
        }
        net.locate_async(origin, guids[0]);
        net.run_to_idle();
        let first = net.drain_results();
        assert_eq!(first.len(), 1);
        let op = first[0].op;
        forge_done(&mut net, origin, op);
        forge_done(&mut net, origin, OpId(op.0 + 1));
        net.run_to_idle();
        assert!(net.drain_results().is_empty(), "no result from a duplicate or forged op");

        for &g in &guids[1..] {
            net.locate_async(origin, g);
        }
        forge_done(&mut net, origin, op);
        forge_done(&mut net, origin, OpId::new(origin, 0));
        net.run_to_idle();
        let results = net.drain_results();
        assert!(results.iter().all(|r| r.op != op && r.server.map(|s| s.idx) == Some(server)));
        let mut found: Vec<Guid> = results.iter().map(|r| r.guid).collect();
        found.sort_unstable();
        let mut want = guids[1..].to_vec();
        want.sort_unstable();
        assert_eq!(found, want, "each in-flight locate completes exactly once");

        for &m in &members {
            net.locate_async(m, guids[0]);
        }
        net.run_to_idle();
        assert_eq!(net.drain_results().len(), members.len());
        for &m in &members {
            let pending = &net.node(m).unwrap().pending_locates;
            assert!(pending.is_empty() && pending.capacity() == 0, "node {m}");
        }
    }

    /// Death certificates held across the live mesh.
    fn certificates(net: &TapestryNetwork) -> usize {
        net.node_ids().iter().map(|&m| net.node(m).unwrap().probe.certificates.len()).sum()
    }

    /// A point that dies and re-joins under its name is certified by
    /// every node that held it. The next round re-checks those
    /// certificates, the new node answers, and each holder takes it
    /// back; one round later no certificate is left.
    #[test]
    fn a_rejoined_point_is_readmitted_and_certificates_drain() {
        for seed in 1..=5 {
            let mut net = torus_mesh(seed);
            let point = net.node_ids()[5];
            let holds =
                |net: &TapestryNetwork, m: NodeIdx| net.node(m).unwrap().table.contains(point);
            let holders: Vec<NodeIdx> =
                net.node_ids().into_iter().filter(|&m| m != point && holds(&net, m)).collect();
            net.kill(point);
            net.probe_all();
            assert!(net.insert_node(point), "seed {seed}: the point re-joins");
            net.probe_all();
            let back = holders.iter().filter(|&&m| holds(&net, m)).count();
            assert_eq!(back, holders.len(), "seed {seed}: holders readmit the point");
            net.probe_all();
            assert_eq!(certificates(&net), 0, "seed {seed}");
        }
    }

    /// Silence at a re-check forgets the certificate: after a mass
    /// failure, one round certifies the dead and the next forgets them.
    #[test]
    fn certificates_of_the_dead_are_forgotten_by_the_next_round() {
        for seed in 1..=5 {
            let mut net = torus_mesh(seed);
            for victim in net.node_ids().into_iter().step_by(2) {
                net.kill(victim);
            }
            net.probe_all();
            assert!(certificates(&net) > 0, "seed {seed}: the first round certifies");
            net.probe_all();
            assert_eq!(certificates(&net), 0, "seed {seed}");
        }
    }

    /// 816 bytes before the join state moved out of line and the `Id`
    /// shrank: what every node pays before its tables. Every node holds
    /// its own copy of the 10-field config. A `Msg` is paid per queued
    /// event, which is why the routed header travels boxed.
    #[test]
    fn a_node_is_at_most_600_bytes_before_its_tables() {
        let size = std::mem::size_of::<TapestryNode>();
        assert!(size <= 600, "size_of::<TapestryNode>() = {size}");
        assert_eq!(std::mem::size_of::<TapestryConfig>(), 56);
        assert!(std::mem::size_of::<Msg>() <= 72, "Msg = {}", std::mem::size_of::<Msg>());
    }
}

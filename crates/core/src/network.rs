//! The simulation driver: owns the event engine and a population of
//! Tapestry nodes, provides the application-facing API (publish / locate /
//! insert / leave / kill), the static "preprocessed" construction the PRR
//! scheme assumes, and the invariant checkers used by tests and
//! experiments (Properties 1, 2 and 4; Theorem 2 root uniqueness).

use crate::config::TapestryConfig;
use crate::messages::{BatchInsertee, Msg, OpId};
use crate::node::{NodeStatus, TapestryNode};
use crate::prefix_runs::{Level, PrefixRuns};
use crate::refs::{idx32, Backpointers, NodeRef, MAX_NODES};
use crate::routing_table::Hop;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tapestry_id::{root_id, Guid, Id};
use tapestry_metric::{MetricSpace, NearestIndex};
use tapestry_sim::{Engine, NodeIdx, SimTime};
use tapestry_trace::TraceId;

/// Outcome of one locate operation, as observed at its origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocateResult {
    /// Object sought.
    pub guid: Guid,
    /// Operation id.
    pub op: OpId,
    /// Server found (`None`: object unreachable / unpublished).
    pub server: Option<NodeRef>,
    /// Application-level hops the query traveled.
    pub hops: u32,
    /// Metric distance the query traveled (origin → pointer → server).
    pub distance: f64,
    /// Whether the query went all the way to the root.
    pub reached_root: bool,
    /// When the query was issued.
    pub issued_at: SimTime,
    /// When the result arrived back at the origin.
    pub completed_at: SimTime,
}

impl LocateResult {
    /// Stretch relative to the distance `direct` from origin to the
    /// nearest replica (the paper's definition). `None` when the query
    /// failed or originated at the replica itself.
    pub fn stretch(&self, direct: f64) -> Option<f64> {
        if self.server.is_none() || direct <= 0.0 {
            return None;
        }
        Some(self.distance / direct)
    }
}

/// Size summary of a network (space accounting for Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSnapshot {
    /// Live nodes.
    pub n: usize,
    /// Mean routing-table entries per node (excluding self entries).
    pub avg_table_entries: f64,
    /// Largest routing table.
    pub max_table_entries: usize,
    /// Mean stored object pointers per node.
    pub avg_object_ptrs: f64,
    /// Largest object-pointer store.
    pub max_object_ptrs: usize,
}

/// A Tapestry deployment over a metric space, with the driving event
/// engine and deterministic identifier assignment.
pub struct TapestryNetwork {
    engine: Engine<TapestryNode>,
    cfg: TapestryConfig,
    ids: Vec<Id>,
    /// Live members, kept sorted ascending (set semantics; a sorted `Vec`
    /// so hot paths can sample and iterate without allocating).
    members: Vec<NodeIdx>,
    rng: StdRng,
    seed: u64,
    /// Per-op completion callback, invoked once for every locate result
    /// the driver collects, whichever call collects it
    /// ([`TapestryNetwork::take_results`],
    /// [`TapestryNetwork::take_completed`] or a synchronous
    /// [`TapestryNetwork::locate`]).
    locate_hook: Option<LocateHook>,
    /// Event budget for each `run_to_idle` call.
    pub max_events_per_op: u64,
}

/// Callback observing every completed locate as the driver collects it:
/// once per result, in collection order. A result that is never
/// collected (its origin died first) is never observed.
pub type LocateHook = Box<dyn FnMut(&LocateResult) + Send>;

/// One table entry the indexed bootstrap installs: `member`, at distance
/// `dist`, into `node`'s table. The level is implicit — fills are produced
/// and applied one level at a time — and the slot's digit is `member`'s
/// digit at that level, so a fill is 16 bytes.
struct Fill {
    dist: f64,
    node: u32,
    member: u32,
}

/// A stage of the static bootstrap, reported to the observer of
/// [`TapestryNetwork::bootstrap_observed`] when the stage ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapStage {
    /// Every bootstrap node exists, with only its self entries.
    NodesAdded,
    /// The slot queries of this level have been answered.
    LevelQueried(usize),
    /// Their answers are in the routing tables.
    LevelApplied(usize),
    /// Every forward pointer has its backpointer.
    Backpointers,
}

/// One coordinate index per group of `level`, in group order.
fn group_indexes<'m>(
    metric: &'m dyn MetricSpace,
    runs: &PrefixRuns<'_>,
    level: &Level,
) -> Vec<Box<dyn NearestIndex + 'm>> {
    level.groups.iter().map(|g| metric.build_index(runs.members(g).to_vec())).collect()
}

impl TapestryNetwork {
    /// Statically build a fully populated network: every point of the
    /// metric space becomes a node and all routing tables are constructed
    /// from global knowledge (the PRR preprocessing step the paper's
    /// dynamic algorithms replace).
    pub fn build(cfg: TapestryConfig, space: Box<dyn MetricSpace>, seed: u64) -> Self {
        let n = space.len();
        let mut net = Self::empty(cfg, space, seed);
        let all: Vec<NodeIdx> = (0..n).collect();
        net.static_populate(&all, &mut |_| {});
        net
    }

    /// Statically build the first `n0` points; the remaining points can
    /// join later through the dynamic insertion protocol.
    pub fn bootstrap(
        cfg: TapestryConfig,
        space: Box<dyn MetricSpace>,
        seed: u64,
        n0: usize,
    ) -> Self {
        Self::bootstrap_observed(cfg, space, seed, n0, &mut |_| {})
    }

    /// [`TapestryNetwork::bootstrap`]; `_threads` is unread, as a run
    /// has one worker. It stays only because the standalone `benchmark/`
    /// package names it (`benchmark/src/api.rs`,
    /// `benchmark/src/traced.rs`); nothing in the workspace calls it, and
    /// the benchmark-only PR that re-points `benchmark/` deletes it, as it
    /// does `MaintenanceMode`.
    pub fn bootstrap_threaded(
        cfg: TapestryConfig,
        space: Box<dyn MetricSpace>,
        seed: u64,
        n0: usize,
        _threads: usize,
    ) -> Self {
        Self::bootstrap(cfg, space, seed, n0)
    }

    /// [`TapestryNetwork::bootstrap`], calling `stage` as each stage of
    /// the construction ends. The library reads no clock; this is the
    /// hook the `bootstrap_stages` bench binary times the stages of
    /// README's table through.
    pub fn bootstrap_observed(
        cfg: TapestryConfig,
        space: Box<dyn MetricSpace>,
        seed: u64,
        n0: usize,
        stage: &mut dyn FnMut(BootstrapStage),
    ) -> Self {
        assert!(n0 >= 1, "need at least one bootstrap node");
        let mut net = Self::empty(cfg, space, seed);
        let initial: Vec<NodeIdx> = (0..n0.min(net.ids.len())).collect();
        net.static_populate(&initial, stage);
        net
    }

    fn empty(cfg: TapestryConfig, space: Box<dyn MetricSpace>, seed: u64) -> Self {
        let n = space.len();
        // Tables and backpointer sets store node indices in 32 bits; the
        // space is never resized, so this is the one place to refuse.
        assert!(n <= MAX_NODES, "a network is limited to MAX_NODES = {MAX_NODES} nodes, got {n}");
        let mut rng = StdRng::seed_from_u64(seed);
        // Unique uniformly random node IDs (the paper assumes uniform,
        // collision-free names).
        let mut seen = BTreeSet::new();
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = Id::random(cfg.space, &mut rng);
            if seen.insert(id) {
                ids.push(id);
            }
        }
        TapestryNetwork {
            engine: Engine::new(space, SimTime(1)),
            cfg,
            ids,
            members: Vec::new(),
            rng,
            seed,
            locate_hook: None,
            max_events_per_op: 20_000_000,
        }
    }

    /// Add `idx` to the sorted member list (no-op when present).
    fn insert_member(&mut self, idx: NodeIdx) {
        if let Err(at) = self.members.binary_search(&idx) {
            self.members.insert(at, idx);
        }
    }

    /// Drop `idx` from the sorted member list (no-op when absent).
    fn remove_member(&mut self, idx: NodeIdx) {
        if let Ok(at) = self.members.binary_search(&idx) {
            self.members.remove(at);
        }
    }

    /// Global-knowledge table construction for `members` (Properties 1
    /// and 2 by construction), including backpointers.
    ///
    /// Tables are filled through per-`(prefix, digit)` coordinate indexes
    /// instead of the all-pairs `AddToTableIfCloser` sweep — the change
    /// that takes a 10k-node bootstrap from minutes to sub-second. The
    /// result is bit-identical to the pairwise sweep (debug builds verify
    /// it on networks small enough to afford the O(n²) cross-check).
    fn static_populate(&mut self, members: &[NodeIdx], stage: &mut dyn FnMut(BootstrapStage)) {
        for &idx in members {
            let node = TapestryNode::new_active(self.cfg, self.ref_of(idx), self.seed);
            self.engine.add_node(idx, node);
            self.insert_member(idx);
        }
        stage(BootstrapStage::NodesAdded);
        self.populate_tables(members, stage);
        self.rebuild_backpointers();
        stage(BootstrapStage::Backpointers);
        #[cfg(debug_assertions)]
        self.verify_static_tables(members);
    }

    /// Indexed slot construction: slot `(l, j)` of node `a` holds the
    /// `redundancy` closest members whose IDs extend `a`'s `l`-digit
    /// prefix with digit `j` (one fewer for `a`'s own digit, whose slot
    /// the owner occupies at distance 0). Divergence entries and the
    /// nested own-digit memberships of §2.1 both reduce to exactly this
    /// prefix-group query, so walking the members' [`PrefixRuns`] and
    /// querying one coordinate index per group reproduces the incremental
    /// sweep's tables — including its `(distance, index)` tie-breaks.
    /// The work per level is proportional to the members whose prefix is
    /// still shared at that level, times the groups of their family (at
    /// most `base`); past the first `log_b n` levels that is a handful
    /// of members, and the loop ends at the first level nobody shares.
    fn populate_tables(&mut self, members: &[NodeIdx], stage: &mut dyn FnMut(BootstrapStage)) {
        let cap = self.cfg.redundancy;
        let runs = PrefixRuns::new(&self.ids, members);
        let levels: Vec<Level> =
            (0..self.cfg.levels()).map(|l| runs.level(l)).take_while(|lv| !lv.is_empty()).collect();
        // How many entries each slot query below will return is known from
        // the group sizes alone, so every table is sized once, to exactly
        // what it will hold, instead of growing level by level.
        let mut room = vec![0usize; self.ids.len()];
        for (l, level) in levels.iter().enumerate() {
            for visit in &level.visits {
                let own = self.ids[visit.node].digit(l);
                room[visit.node] += level
                    .family(visit)
                    .map(|(g, digit)| {
                        let own = usize::from(digit == own);
                        (cap - own).min(level.groups[g].len() - own)
                    })
                    .sum::<usize>();
            }
        }
        for &m in members {
            self.engine.node_mut(m).expect("just added").table_mut().make_room(room[m]);
        }
        drop(room);
        for (l, level) in levels.iter().enumerate() {
            let indexes = group_indexes(self.engine.metric(), &runs, level);
            let ids = &self.ids;
            let mut fills: Vec<Fill> = Vec::new();
            let mut closest = Vec::new();
            for visit in &level.visits {
                let (node, own) = (idx32(visit.node), ids[visit.node].digit(l));
                for (g, digit) in level.family(visit) {
                    let want = cap - usize::from(digit == own);
                    indexes[g].closest_k_into(visit.node, want, &mut closest);
                    fills.extend(closest.iter().map(|&(member, dist)| Fill {
                        dist,
                        node,
                        member: idx32(member),
                    }));
                }
            }
            drop(indexes);
            stage(BootstrapStage::LevelQueried(l));
            // A node's fills arrive slot by slot, digits ascending, so each
            // slot is an append: behind it lie only the owner's deeper
            // self entries.
            let slot_of = |f: &Fill| (f.node, ids[f.member as NodeIdx].digit(l));
            for of_slot in fills.chunk_by(|x, y| slot_of(x) == slot_of(y)) {
                let (node, digit) = slot_of(&of_slot[0]);
                let table = self.engine.node_mut(node as NodeIdx).expect("just added").table_mut();
                let refs = of_slot
                    .iter()
                    .map(|f| (NodeRef::new(f.member as NodeIdx, ids[f.member as NodeIdx]), f.dist));
                table.extend_unbounded(l, digit, refs);
            }
            stage(BootstrapStage::LevelApplied(l));
        }
    }

    /// Make every node's backpointer set the exact inverse of the
    /// members' forward pointers (§2.1 pairs each forward pointer with a
    /// backpointer): node `b` ends up with `{a : a ≠ b ∧ a's table
    /// references b}`. The tables are walked twice, owners ascending: the
    /// first walk counts each peer's owners, so every vector is allocated
    /// once, at its final size; the second pushes them, and they arrive
    /// sorted.
    /// The static builder's last stage; on a quiescent network, where the
    /// protocol has kept the same relation by message, it changes nothing.
    pub fn rebuild_backpointers(&mut self) {
        let mut owners = vec![0usize; self.ids.len()];
        self.each_forward_pointer(|peer, _| owners[peer] += 1);
        let mut inverse: Vec<Vec<(u32, Id)>> = owners.into_iter().map(Vec::with_capacity).collect();
        self.each_forward_pointer(|peer, owner| inverse[peer].push(owner));
        for &m in &self.members {
            if let Some(node) = self.engine.node_mut(m) {
                node.backptrs = Backpointers::default();
            }
        }
        for (peer, owners) in inverse.into_iter().enumerate().filter(|(_, v)| !v.is_empty()) {
            if let Some(peer) = self.engine.node_mut(peer) {
                peer.backptrs = Backpointers::from_sorted(owners);
            }
        }
    }

    /// Call `f(peer, owner)` once for every pair where member `owner`'s
    /// table references `peer`, owners ascending. A table names a peer in
    /// several slots; `last[peer]` is the owner that named it last, and an
    /// owner's entries are one uninterrupted stretch of the walk.
    fn each_forward_pointer(&self, mut f: impl FnMut(NodeIdx, (u32, Id))) {
        let mut last = vec![u32::MAX; self.ids.len()]; // no owner: indices end below MAX_NODES
        for &owner in &self.members {
            let Some(node) = self.engine.node(owner) else { continue };
            let owner = (idx32(owner), self.ids[owner]);
            for peer in node.table().refs() {
                if std::mem::replace(&mut last[peer.idx], owner.0) != owner.0 {
                    f(peer.idx, owner);
                }
            }
        }
    }

    /// Debug-build cross-check: rebuild each table with the original
    /// all-pairs sweep and demand bit-identical slots. Skipped above 600
    /// members, where the O(n²) reference itself is the bottleneck.
    #[cfg(debug_assertions)]
    fn verify_static_tables(&self, members: &[NodeIdx]) {
        use crate::routing_table::RoutingTable;
        if members.len() > 600 {
            return;
        }
        let refs: Vec<NodeRef> = members.iter().map(|&i| self.ref_of(i)).collect();
        for &a in members {
            let mut want = RoutingTable::new(self.ref_of(a), self.cfg.base(), self.cfg.levels());
            for &b_ref in &refs {
                if b_ref.idx == a {
                    continue;
                }
                let d = self.engine.metric().distance(a, b_ref.idx);
                want.add_if_closer(b_ref, d, self.cfg.redundancy);
            }
            let got = self.engine.node(a).expect("added").table();
            for l in 0..self.cfg.levels() {
                for j in 0..self.cfg.base() as u8 {
                    let gs: Vec<(NodeIdx, u64)> = got
                        .slot(l, j)
                        .iter_with_dist()
                        .map(|(r, d)| (r.idx, d.to_bits()))
                        .collect();
                    let ws: Vec<(NodeIdx, u64)> = want
                        .slot(l, j)
                        .iter_with_dist()
                        .map(|(r, d)| (r.idx, d.to_bits()))
                        .collect();
                    assert_eq!(gs, ws, "static table mismatch at node {a} slot ({l},{j})");
                }
            }
        }
        // §2.1 by the definition the bulk pass replaces: one insert per
        // forward pointer into the referenced node's set.
        let mut inverse: std::collections::BTreeMap<NodeIdx, BTreeSet<NodeIdx>> =
            members.iter().map(|&b| (b, BTreeSet::new())).collect();
        for &a in members {
            for r in self.engine.node(a).expect("added").table().all_refs() {
                inverse.entry(r.idx).or_default().insert(a);
            }
        }
        for (b, want) in inverse {
            let got: BTreeSet<NodeIdx> =
                self.engine.node(b).expect("added").backpointers().map(|r| r.idx).collect();
            assert_eq!(got, want, "backpointers of node {b} are not the inverse of the tables");
        }
    }

    // ------------------------------ accessors ------------------------------

    /// The configuration in force.
    pub fn config(&self) -> &TapestryConfig {
        &self.cfg
    }

    /// Indices of live member nodes (an owned copy; hot paths should
    /// prefer the allocation-free [`TapestryNetwork::members`]).
    pub fn node_ids(&self) -> Vec<NodeIdx> {
        self.members.clone()
    }

    /// Live members, sorted ascending, as a borrow — the per-operation
    /// sampling path of workload runners (no per-call allocation).
    pub fn members(&self) -> &[NodeIdx] {
        &self.members
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no node is alive.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The overlay identifier assigned to point `idx`.
    pub fn id_of(&self, idx: NodeIdx) -> Id {
        self.ids[idx]
    }

    /// Name + address pair for point `idx`.
    pub fn ref_of(&self, idx: NodeIdx) -> NodeRef {
        NodeRef::new(idx, self.ids[idx])
    }

    /// Read a node's state.
    pub fn node(&self, idx: NodeIdx) -> Option<&TapestryNode> {
        self.engine.node(idx)
    }

    /// Mutate a node's state (test setup).
    pub fn node_mut(&mut self, idx: NodeIdx) -> Option<&mut TapestryNode> {
        self.engine.node_mut(idx)
    }

    /// The underlying engine (stats, clock).
    pub fn engine(&self) -> &Engine<TapestryNode> {
        &self.engine
    }

    /// Mutable engine access (custom drivers).
    pub fn engine_mut(&mut self) -> &mut Engine<TapestryNode> {
        &mut self.engine
    }

    /// Draw a uniformly random GUID.
    pub fn random_guid(&mut self) -> Guid {
        Guid::random(self.cfg.space, &mut self.rng)
    }

    /// Draw a random live member.
    pub fn random_member(&mut self) -> NodeIdx {
        self.members[self.rng.gen_range(0..self.members.len())]
    }

    /// Drain all scheduled events, one at a time in `(time, sequence)`
    /// order (bounded by `max_events_per_op`).
    pub fn run_to_idle(&mut self) -> u64 {
        self.engine.run_until_idle(self.max_events_per_op)
    }

    /// Advance simulated time to `deadline`, processing due events.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.engine.run_until(deadline)
    }

    // --------------------------- application API ---------------------------

    /// Publish `guid` from storage server `server` and drain the network.
    pub fn publish(&mut self, server: NodeIdx, guid: Guid) {
        self.publish_async(server, guid);
        self.run_to_idle();
    }

    /// Publish without draining (concurrent-operation experiments).
    pub fn publish_async(&mut self, server: NodeIdx, guid: Guid) {
        assert!(self.engine.alive(server), "publish from dead node");
        self.engine.inject(server, Msg::AppPublish { guid });
    }

    /// Locate `guid` from `origin`, drain, and return the result. Only
    /// that result is collected: anything else queued at `origin` (earlier
    /// async locates) stays there, and stays on the completion feed.
    pub fn locate(&mut self, origin: NodeIdx, guid: Guid) -> Option<LocateResult> {
        self.locate_async(origin, guid);
        self.run_to_idle();
        let result = self.engine.node_mut(origin)?.take_locate_result_for(guid)?;
        self.fire_locate_hook(std::slice::from_ref(&result));
        Some(result)
    }

    /// Issue a locate without draining.
    pub fn locate_async(&mut self, origin: NodeIdx, guid: Guid) {
        assert!(self.engine.alive(origin), "locate from dead node");
        self.engine.inject(origin, Msg::AppLocate { guid, trace: None });
    }

    /// Issue a locate carrying a hop-trace identity: every routing hop the
    /// query takes is recorded into the engine's trace collector (when
    /// tracing is enabled — see [`TapestryNetwork::enable_trace`]).
    pub fn locate_async_traced(&mut self, origin: NodeIdx, guid: Guid, trace: TraceId) {
        assert!(self.engine.alive(origin), "locate from dead node");
        self.engine.inject(origin, Msg::AppLocate { guid, trace: Some(trace) });
    }

    /// Turn on hop tracing with a bounded collector of `cap` records
    /// (overflow is counted, not stored). Deterministic: records land in
    /// event pop order.
    pub fn enable_trace(&mut self, cap: usize) {
        self.engine.stats_mut().enable_trace(cap);
    }

    /// Repair-ledger facts pending across all live members — the backlog
    /// level the time-series sampler reports.
    pub fn repair_backlog_total(&self) -> u64 {
        self.members
            .iter()
            .filter_map(|&m| self.engine.node(m))
            .map(|n| n.repair_backlog() as u64)
            .sum()
    }

    /// Collect finished locate results queued at `origin` (nothing if it
    /// is dead — its results died with it). Each result passes through
    /// the completion hook (if set) exactly once. This is the collection
    /// call for a driver that knows its one origin; a driver with locates
    /// in flight from many origins uses
    /// [`TapestryNetwork::take_completed`] instead of polling each.
    pub fn take_results(&mut self, origin: NodeIdx) -> Vec<LocateResult> {
        let results =
            self.engine.node_mut(origin).map(|n| n.take_locate_results()).unwrap_or_default();
        self.fire_locate_hook(&results);
        results
    }

    /// Collect every finished locate result in the network, from exactly
    /// the origins the engine's completion feed lists — O(results), and
    /// O(1) without allocating or touching any node when nothing finished
    /// since the last call. Origins are visited in node order, each
    /// origin's results in completion order; an origin that died since
    /// completing yields nothing. Funnels through
    /// [`TapestryNetwork::take_results`], so the hook fires once per
    /// result.
    pub fn take_completed(&mut self) -> Vec<LocateResult> {
        let mut ready = self.engine.take_notified();
        ready.sort_unstable();
        let mut all = Vec::new();
        for origin in ready {
            all.extend(self.take_results(origin));
        }
        all
    }

    /// Collect every finished locate result in the network: the name
    /// existing drivers call [`TapestryNetwork::take_completed`] by.
    pub fn drain_results(&mut self) -> Vec<LocateResult> {
        self.take_completed()
    }

    /// Show `results` to the completion hook, as they leave the network.
    fn fire_locate_hook(&mut self, results: &[LocateResult]) {
        if let Some(hook) = self.locate_hook.as_mut() {
            results.iter().for_each(hook);
        }
    }

    /// Install a per-op completion callback observing every collected
    /// locate result (replaces any previous hook).
    pub fn set_locate_hook(&mut self, hook: LocateHook) {
        self.locate_hook = Some(hook);
    }

    /// Remove the completion callback.
    pub fn clear_locate_hook(&mut self) {
        self.locate_hook = None;
    }

    // ------------------------------ partitions -----------------------------

    /// Impose a network partition: point `i` joins group `groups[i]` and
    /// messages crossing group boundaries are dropped at delivery
    /// (counted in `SimStats::partition_dropped`). Timers and externally
    /// injected application requests still fire.
    pub fn set_partition(&mut self, groups: Vec<u32>) {
        self.engine.set_partition(groups);
    }

    /// Sort point indices by metric distance to `pivot`, ties broken by
    /// index (used for partition cuts and correlated-failure selection).
    pub fn rank_by_distance(&self, pivot: NodeIdx, mut points: Vec<NodeIdx>) -> Vec<NodeIdx> {
        points.sort_by(|&a, &b| {
            self.engine
                .metric()
                .distance(pivot, a)
                .partial_cmp(&self.engine.metric().distance(pivot, b))
                .unwrap()
                .then(a.cmp(&b))
        });
        points
    }

    /// Split the network in two along the metric: the half of all points
    /// nearest to `pivot` (by metric distance, ties by index) form group
    /// 1, the rest group 0. Returns the group assignment applied.
    pub fn partition_around(&mut self, pivot: NodeIdx) -> Vec<u32> {
        let n = self.ids.len();
        let order = self.rank_by_distance(pivot, (0..n).collect());
        let mut groups = vec![0u32; n];
        for &idx in order.iter().take(n / 2) {
            groups[idx] = 1;
        }
        self.engine.set_partition(groups.clone());
        groups
    }

    /// Heal any active partition.
    pub fn heal_partition(&mut self) {
        self.engine.clear_partition();
    }

    /// Is a partition currently in force?
    pub fn partition_active(&self) -> bool {
        self.engine.partition_active()
    }

    /// Dynamically insert the node at point `idx` (Fig. 7) through a
    /// random gateway, drain the network, and report success.
    pub fn insert_node(&mut self, idx: NodeIdx) -> bool {
        let gw = self.random_member();
        self.insert_node_via(idx, gw);
        self.run_to_idle();
        self.finish_insert_bookkeeping(idx)
    }

    /// Start a dynamic insertion without draining (simultaneous-insertion
    /// experiments drive several of these at once).
    pub fn insert_node_via(&mut self, idx: NodeIdx, gateway: NodeIdx) {
        self.admit_inserting(idx, gateway, false);
    }

    /// Admission step of solo and deferred joins: place the inserting
    /// actor (with `k` frozen for the current population) and kick off
    /// Fig. 7 via `gateway`.
    fn admit_inserting(&mut self, idx: NodeIdx, gateway: NodeIdx, deferred: bool) {
        assert!(!self.engine.alive(idx), "point already occupied");
        assert!(self.engine.alive(gateway), "gateway not alive");
        let mut cfg = self.cfg;
        if cfg.list_size_k.is_none() {
            cfg.list_size_k = Some(self.cfg.k_for(self.members.len() + 1));
        }
        let node = TapestryNode::new_inserting(cfg, self.ref_of(idx), self.seed);
        self.engine.add_node(idx, node);
        self.engine.inject(idx, Msg::StartInsert { gateway: self.ref_of(gateway), deferred });
    }

    /// Start a *deferred* dynamic insertion: Fig. 7 steps 1–3 run (the
    /// node finds its surrogate and absorbs the preliminary table), then
    /// the protocol pauses until a shared multicast wave is launched with
    /// [`TapestryNetwork::launch_batch_multicast`] — the batched-join
    /// entry point used by `tapestry-membership`.
    pub fn insert_node_deferred(&mut self, idx: NodeIdx, gateway: NodeIdx) {
        self.admit_inserting(idx, gateway, true);
    }

    /// If the deferred insertee at `idx` has finished Fig. 7 steps 1–3,
    /// its wave entry (op, coverage prefix and Fig. 11 watch list) and its
    /// surrogate.
    pub fn batch_join_ready(&self, idx: NodeIdx) -> Option<(BatchInsertee, NodeRef)> {
        self.engine.node(idx).and_then(|n| n.batch_join_ready())
    }

    /// Launch one shared acknowledged-multicast wave carrying a coalesced
    /// join batch, initiated at `initiator` (canonically the first
    /// insertee's surrogate). Each insertee's `MulticastDone` arrives
    /// exactly as in a solo insertion's wave of one; completion is then
    /// observed via [`TapestryNetwork::finish_insert_bookkeeping`].
    pub fn launch_batch_multicast(&mut self, initiator: NodeIdx, insertees: Vec<BatchInsertee>) {
        assert!(self.engine.alive(initiator), "wave initiator not alive");
        assert!(!insertees.is_empty(), "empty wave");
        self.engine.inject(initiator, Msg::StartBatchMulticast { insertees });
    }

    /// After draining, account a dynamically inserted node as a member if
    /// its insertion completed.
    pub fn finish_insert_bookkeeping(&mut self, idx: NodeIdx) -> bool {
        let ok = self.engine.node(idx).is_some_and(|n| n.status() == NodeStatus::Active);
        if ok {
            self.insert_member(idx);
        }
        ok
    }

    /// Voluntary departure (Fig. 12): run the two-phase protocol, then
    /// remove the node from the engine.
    pub fn leave(&mut self, idx: NodeIdx) -> bool {
        assert!(self.engine.alive(idx));
        self.engine.inject(idx, Msg::AppLeave);
        self.run_to_idle();
        let done = self.engine.node(idx).is_some_and(|n| n.leave_finished());
        self.engine.remove_node(idx);
        self.remove_member(idx);
        done
    }

    /// Start a voluntary departure without draining (workload runners
    /// interleave departures with live traffic). Poll with
    /// [`TapestryNetwork::finish_leave_bookkeeping`] once the protocol has
    /// had time to run.
    pub fn leave_async(&mut self, idx: NodeIdx) {
        assert!(self.engine.alive(idx), "leave from dead node");
        self.engine.inject(idx, Msg::AppLeave);
    }

    /// If the Fig. 12 protocol started by [`TapestryNetwork::leave_async`]
    /// has finished, remove the node and report `true`; otherwise leave it
    /// in place (it keeps serving until the final round completes).
    pub fn finish_leave_bookkeeping(&mut self, idx: NodeIdx) -> bool {
        if self.engine.node(idx).is_some_and(|n| n.leave_finished()) {
            self.engine.remove_node(idx);
            self.remove_member(idx);
            true
        } else {
            false
        }
    }

    /// Involuntary failure: the node vanishes without warning (§5.2).
    pub fn kill(&mut self, idx: NodeIdx) {
        self.engine.remove_node(idx);
        self.remove_member(idx);
    }

    /// Trigger one failure-detection probe round on every live node and
    /// drain (the experiments' stand-in for periodic heartbeats).
    pub fn probe_all(&mut self) {
        self.probe_all_async();
        self.run_to_idle();
    }

    /// Start a probe round on every live node without draining (workload
    /// runners let detection deadlines fire amid ongoing traffic).
    pub fn probe_all_async(&mut self) {
        for &idx in &self.members {
            self.engine.inject(idx, Msg::AppProbe);
        }
    }

    /// Run one §6.4 continual-optimization round on every live node:
    /// each node shares its per-level neighbor rows with the neighbors at
    /// that level, restoring Property 2 quality degraded by churn.
    pub fn optimize_all(&mut self) {
        self.optimize_all_async();
        self.run_to_idle();
    }

    /// Start a §6.4 optimization round without draining.
    pub fn optimize_all_async(&mut self) {
        for &idx in &self.members {
            self.engine.inject(idx, Msg::AppOptimize);
        }
    }

    /// Locate with retries (Observation 1): with `roots_per_object > 1`
    /// each attempt picks a random root, so queries tolerate faults on
    /// individual root paths. Returns the first successful result.
    pub fn locate_retry(
        &mut self,
        origin: NodeIdx,
        guid: Guid,
        attempts: usize,
    ) -> Option<LocateResult> {
        for _ in 0..attempts.max(1) {
            match self.locate(origin, guid) {
                Some(r) if r.server.is_some() => return Some(r),
                other => {
                    let _ = other; // lost or not-found: retry on a fresh root
                }
            }
        }
        None
    }

    // ---------------------------- ground truth -----------------------------

    /// Walk surrogate routing locally (no messages) from `from` toward
    /// `target`, returning the path including both endpoints.
    pub fn surrogate_path(&self, from: NodeIdx, target: &Id) -> Vec<NodeIdx> {
        let mut path = vec![from];
        let mut cur = from;
        let mut level = 0;
        let mut past_hole = false;
        for _ in 0..(self.cfg.levels() * self.members.len().max(2)) {
            let Some(node) = self.engine.node(cur) else { break };
            match node.route_next(target, level, None, past_hole) {
                (Hop::Forward(p, lvl), ph) => {
                    cur = p.idx;
                    level = lvl;
                    past_hole = ph;
                    path.push(cur);
                }
                (Hop::Root, _) => break,
            }
        }
        path
    }

    /// The root (surrogate) of `target` as seen from `from`.
    pub fn root_from(&self, from: NodeIdx, target: &Id) -> NodeIdx {
        *self.surrogate_path(from, target).last().expect("path has origin")
    }

    /// The unique root of `guid`'s `i`-th root identifier, computed from
    /// the lowest-indexed member (Theorem 2 makes the choice irrelevant).
    pub fn root_of(&self, guid: Guid, root_index: usize) -> NodeIdx {
        let start = *self.members.first().expect("non-empty network");
        self.root_from(start, &root_id(self.cfg.space, guid, root_index))
    }

    /// Distance from `from` to the nearest live replica of `guid`
    /// (denominator of the stretch metric).
    pub fn nearest_replica_distance(&self, from: NodeIdx, guid: Guid) -> Option<f64> {
        let mut best: Option<f64> = None;
        for &m in &self.members {
            if self.engine.node(m).is_some_and(|n| n.store().has_local(guid)) {
                let d = self.engine.metric().distance(from, m);
                best = Some(best.map_or(d, |b: f64| b.min(d)));
            }
        }
        best
    }

    // ----------------------------- invariants ------------------------------

    /// Property 1 violations: `(node, level, digit)` slots that are empty
    /// even though a matching member exists.
    ///
    /// Computed from the members' [`PrefixRuns`] instead of the pairwise
    /// O(n²) scan, with identical output: slot `(l, j)` of node `a` has a
    /// matching member iff `a`'s family at level `l` has a group for
    /// digit `j`, and own-digit slots are never violations (the owner
    /// occupies them at every level). One slot probe per visited member
    /// and group of its family, at the levels where prefixes are shared.
    pub fn check_property1(&self) -> Vec<(NodeIdx, usize, u8)> {
        let runs = PrefixRuns::new(&self.ids, &self.members);
        let mut bad = Vec::new();
        for l in 0..self.cfg.levels() {
            let level = runs.level(l);
            if level.is_empty() {
                break;
            }
            for visit in &level.visits {
                let a = visit.node;
                let Some(node) = self.engine.node(a) else { continue };
                let own = self.ids[a].digit(l);
                for (_, j) in level.family(visit) {
                    if j != own && node.table().slot(l, j).is_empty() {
                        bad.push((a, l, j));
                    }
                }
            }
        }
        bad.sort_unstable();
        bad.dedup();
        #[cfg(debug_assertions)]
        if self.members.len() <= 600 {
            assert_eq!(bad, self.check_property1_brute(), "indexed Property 1 check diverged");
        }
        bad
    }

    /// Property 2 report: over all filled slots, how many primaries are
    /// the true closest matching member. Dynamic insertion is randomized,
    /// so tests assert a high fraction rather than perfection.
    ///
    /// The "true closest matching member" is a nearest-in-prefix-group
    /// query, answered through per-group coordinate indexes over the
    /// members' [`PrefixRuns`] — the same machinery as the fast
    /// bootstrap, in place of O(n² · slots): one query per visited member
    /// and group of its family, at the levels where prefixes are shared.
    pub fn check_property2(&self) -> (usize, usize) {
        let metric = self.engine.metric();
        let runs = PrefixRuns::new(&self.ids, &self.members);
        let mut optimal = 0;
        let mut total = 0;
        for l in 0..self.cfg.levels() {
            let level = runs.level(l);
            if level.is_empty() {
                break;
            }
            let indexes = group_indexes(metric, &runs, &level);
            for visit in &level.visits {
                let a = visit.node;
                let Some(node) = self.engine.node(a) else { continue };
                let own = self.ids[a].digit(l);
                for (g, j) in level.family(visit) {
                    if j == own {
                        continue; // the owner's slot; never counted
                    }
                    let Some(primary) = node.table().slot(l, j).primary(None) else { continue };
                    if primary.idx == a {
                        continue; // self entry
                    }
                    let Some((_, db)) = indexes[g].nearest(a) else { continue };
                    total += 1;
                    let dp = metric.distance(a, primary.idx);
                    if dp <= db + 1e-9 {
                        optimal += 1;
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        if self.members.len() <= 600 {
            assert_eq!(
                (optimal, total),
                self.check_property2_brute(),
                "indexed Property 2 check diverged"
            );
        }
        (optimal, total)
    }

    /// The original pairwise Property 1 scan, kept as the debug-build
    /// reference for the indexed check.
    #[cfg(debug_assertions)]
    fn check_property1_brute(&self) -> Vec<(NodeIdx, usize, u8)> {
        let mut bad = Vec::new();
        for &a in &self.members {
            let Some(node) = self.engine.node(a) else { continue };
            let aid = self.ids[a];
            for &b in &self.members {
                if a == b {
                    continue;
                }
                let bid = self.ids[b];
                let p = aid.shared_prefix_len(&bid);
                if p >= self.cfg.levels() {
                    continue;
                }
                let j = bid.digit(p);
                if node.table().slot(p, j).is_empty() {
                    bad.push((a, p, j));
                }
            }
        }
        bad.sort_unstable();
        bad.dedup();
        bad
    }

    /// The original O(n² · slots) Property 2 scan, kept as the
    /// debug-build reference for the indexed check.
    #[cfg(debug_assertions)]
    fn check_property2_brute(&self) -> (usize, usize) {
        let mut optimal = 0;
        let mut total = 0;
        for &a in &self.members {
            let Some(node) = self.engine.node(a) else { continue };
            let aid = self.ids[a];
            for l in 0..self.cfg.levels() {
                for j in 0..self.cfg.base() as u8 {
                    let slot = node.table().slot(l, j);
                    let Some(primary) = slot.primary(None) else { continue };
                    if primary.idx == a {
                        continue; // self entry
                    }
                    // True closest member with prefix aid[0..l]·j.
                    let best = self
                        .members
                        .iter()
                        .filter(|&&b| b != a)
                        .filter(|&&b| {
                            let bid = self.ids[b];
                            bid.shared_prefix_len(&aid) == l && bid.digit(l) == j
                        })
                        // self.members is kept ascending (sorted insert)
                        // and min_by returns the first of equal elements,
                        // so ties already resolve to the lowest idx — the
                        // (distance, index) contract without a .then.
                        // tapestry-lint: allow(float-tiebreak)
                        .min_by(|&&x, &&y| {
                            self.engine
                                .metric()
                                .distance(a, x)
                                .partial_cmp(&self.engine.metric().distance(a, y))
                                .unwrap()
                        });
                    if let Some(&best) = best {
                        total += 1;
                        let dp = self.engine.metric().distance(a, primary.idx);
                        let db = self.engine.metric().distance(a, best);
                        if dp <= db + 1e-9 {
                            optimal += 1;
                        }
                    }
                }
            }
        }
        (optimal, total)
    }

    /// Property 4 violations: `(server, guid, node-on-path-without-ptr)`.
    /// Every node on the path from a publisher to the object's root must
    /// hold a pointer.
    pub fn check_property4(&self) -> Vec<(NodeIdx, Guid, NodeIdx)> {
        let now = self.engine.now();
        let mut bad = Vec::new();
        for &s in &self.members {
            let Some(server) = self.engine.node(s) else { continue };
            let locals: Vec<Guid> = server.store().local_objects().collect();
            for guid in locals {
                for i in 0..self.cfg.roots_per_object {
                    let target = root_id(self.cfg.space, guid, i);
                    for &hop in &self.surrogate_path(s, &target) {
                        let has = self.engine.node(hop).is_some_and(|n| {
                            n.store().lookup(guid, now).any(|e| e.server.idx == s)
                        });
                        if !has {
                            bad.push((s, guid, hop));
                        }
                    }
                }
            }
        }
        bad
    }

    /// Theorem 2 check: every member reaches the same root for `target`.
    /// Returns the set of distinct roots observed (singleton = pass).
    pub fn distinct_roots(&self, target: &Id) -> BTreeSet<NodeIdx> {
        self.members.iter().map(|&m| self.root_from(m, target)).collect()
    }

    /// [`TapestryNetwork::distinct_roots`] over a deterministic sample of
    /// at most `max_members` members (an even stride over the sorted
    /// member list, always including the first member). Each walk is
    /// O(hops), so the exhaustive check is O(n · hops) per target and
    /// dominates checked phases past ~50k nodes; sampling keeps the
    /// Theorem 2 spot-check affordable while still mixing starting points
    /// across the whole index range. `max_members >= len` degenerates to
    /// the exhaustive check.
    pub fn distinct_roots_sampled(&self, target: &Id, max_members: usize) -> BTreeSet<NodeIdx> {
        if self.members.len() <= max_members {
            return self.distinct_roots(target);
        }
        let step = self.members.len().div_ceil(max_members.max(1));
        self.members.iter().step_by(step).map(|&m| self.root_from(m, target)).collect()
    }

    /// Space accounting for Table 1.
    pub fn snapshot(&self) -> NetworkSnapshot {
        let mut tot_t = 0usize;
        let mut max_t = 0usize;
        let mut tot_p = 0usize;
        let mut max_p = 0usize;
        for &m in &self.members {
            if let Some(n) = self.engine.node(m) {
                let t = n.table().entry_count();
                let p = n.store().ptr_count();
                tot_t += t;
                max_t = max_t.max(t);
                tot_p += p;
                max_p = max_p.max(p);
            }
        }
        let n = self.members.len().max(1);
        NetworkSnapshot {
            n: self.members.len(),
            avg_table_entries: tot_t as f64 / n as f64,
            max_table_entries: max_t,
            avg_object_ptrs: tot_p as f64 / n as f64,
            max_object_ptrs: max_p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_metric::TorusSpace;

    /// A space that only claims a size — it is refused before any point
    /// is looked at.
    struct Claimed(usize);

    impl MetricSpace for Claimed {
        fn len(&self) -> usize {
            self.0
        }
        fn distance(&self, _: usize, _: usize) -> f64 {
            unreachable!("refused by size")
        }
        fn name(&self) -> &'static str {
            "claimed"
        }
    }

    #[test]
    #[should_panic(expected = "limited to MAX_NODES = 4294967295")]
    fn a_space_past_the_index_width_is_refused() {
        TapestryNetwork::bootstrap(
            TapestryConfig::default(),
            Box::new(Claimed(MAX_NODES + 1)),
            1,
            2,
        );
    }

    /// The static builder sizes every table and backpointer vector once,
    /// to what it ends up holding: no growth slack survives the bootstrap.
    #[test]
    fn static_tables_hold_exactly_their_length() {
        let cfg = TapestryConfig::default();
        let net = TapestryNetwork::build(cfg, Box::new(TorusSpace::random(300, 1000.0, 7)), 7);
        for &m in net.members() {
            let node = net.node(m).unwrap();
            let entries = node.table().entry_count() + cfg.levels();
            let want =
                24 * entries + 2 * cfg.base() * cfg.levels() + 16 * node.backpointers().count();
            assert_eq!(node.heap_bytes(), want, "node {m}");
        }
    }
}

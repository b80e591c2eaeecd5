//! Every message and timer a Tapestry node handles. Insertion has one
//! multicast: the wave (`StartBatchMulticast` / `BatchMulticast`).

use crate::refs::{idx32, NodeRef};
use std::fmt;
use tapestry_id::{Guid, Id, Prefix};
use tapestry_sim::NodeIdx;
use tapestry_trace::TraceId;

/// Identifier of a multi-message operation (an insertion, a locate, a
/// multicast session). Unique network-wide: high bits are the initiating
/// node's index, low bits a node-local counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

impl OpId {
    /// Compose an operation id from the initiating node and a local counter.
    pub fn new(node: NodeIdx, counter: u64) -> Self {
        OpId(((node as u64) << 40) | (counter & 0xFF_FFFF_FFFF))
    }
}

/// Entries the loop-prevention header keeps (§4.3 notes the hop count is
/// small, so carrying the path is cheap; the cap bounds pathological
/// churn).
pub const VISITED_CAP: usize = 64;

/// The nodes a routed message has visited, inline in its header: the
/// first [`VISITED_CAP`] pushes are kept and later ones are dropped, so
/// the header is one fixed-size block whatever the path, and its box is
/// the operation's only allocation.
#[derive(Clone)]
pub struct Visited {
    len: u32,
    nodes: [u32; VISITED_CAP],
}

impl Visited {
    /// The kept entries, in push order.
    fn as_slice(&self) -> &[u32] {
        &self.nodes[..self.len as usize]
    }

    /// Has `idx` been kept?
    pub fn contains(&self, idx: NodeIdx) -> bool {
        u32::try_from(idx).is_ok_and(|idx| self.as_slice().contains(&idx))
    }

    /// Record `idx` unless the list is full.
    pub fn push(&mut self, idx: NodeIdx) {
        if (self.len as usize) < VISITED_CAP {
            self.nodes[self.len as usize] = idx32(idx);
            self.len += 1;
        }
    }
}

/// No node visited yet.
impl Default for Visited {
    fn default() -> Self {
        Visited { len: 0, nodes: [0; VISITED_CAP] }
    }
}

impl fmt::Debug for Visited {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Payload of a message routed hop-by-hop toward an identifier via
/// surrogate routing (§2.3). `level` counts the digits resolved so far;
/// the invariant is that the carrying node's ID matches the target in its
/// first `level` digits *or* the message has taken surrogate steps whose
/// digits then define the resolved prefix.
///
/// It travels boxed (`Msg::Routed(Box<RoutedMsg>)`): one allocation when
/// the operation starts, handed on from hop to hop, so a queued `Msg` is
/// the size of its small variants rather than of this header.
#[derive(Debug, Clone)]
pub struct RoutedMsg {
    /// What to do when the message terminates (and at intermediate hops).
    pub kind: RoutedKind,
    /// The identifier being routed toward (a GUID root or a node ID).
    pub target: Id,
    /// Digits resolved so far.
    pub level: usize,
    /// Has the route crossed a routing-table hole yet? (State for the
    /// distributed PRR-like scheme of §2.3, which changes behaviour after
    /// the first hole; ignored by Tapestry-native routing.)
    pub past_hole: bool,
    /// A node to route around, as if absent (voluntary deletion, §5.1
    /// routes "as if A did not exist").
    pub exclude: Option<NodeIdx>,
    /// Application-level hops taken.
    pub hops: u32,
    /// Metric distance accumulated along the path.
    pub dist: f64,
    /// Nodes visited, for loop prevention during churn (§4.3: "including
    /// information in the message header about where the request has
    /// been").
    pub visited: Visited,
    /// §6.3 local-branch flag: when set, the message must never leave the
    /// originating stub (hops longer than the stub threshold are refused
    /// and the branch terminates at the local root).
    pub local_branch: bool,
    /// Causal-trace identity for sampled operations: every forward of a
    /// carrying message emits one hop record into the engine's bounded
    /// collector. Sim-side instrumentation only: no handler reads it to
    /// decide anything, so a traced run sends what an untraced one does.
    pub trace: Option<TraceId>,
}

/// The purposes a routed message can serve.
#[derive(Debug, Clone)]
pub enum RoutedKind {
    /// Publish: deposit an object pointer for `guid` → `server` at every
    /// hop (Fig. 2). Terminates at the object's root.
    Publish {
        /// Object being published.
        guid: Guid,
        /// Storage server holding the replica.
        server: NodeRef,
    },
    /// Locate: look for a pointer to `guid` at each hop; on a hit, route
    /// to the replica's server and report back to `origin` (Fig. 3).
    Locate {
        /// Object sought.
        guid: Guid,
        /// Query source awaiting a `LocateDone`.
        origin: NodeRef,
        /// Operation id at the origin.
        op: OpId,
        /// Root index chosen for this query (Observation 2).
        root_index: usize,
    },
    /// Find the surrogate (root node) for `target` and reply to
    /// `reply_to` with `SurrogateIs` (step 1 of insertion, Fig. 7).
    FindSurrogate {
        /// Who asked.
        reply_to: NodeRef,
        /// Operation id at the asker.
        op: OpId,
    },
}

/// One insertee as carried by an acknowledged-multicast wave (§4.4
/// generalized: the wave's FUNCTION is applied once per insertee at every
/// recipient the insertee's coverage prefix matches). A solo join is a
/// wave of one; a coalesced batch shares one wave.
#[derive(Debug, Clone)]
pub struct BatchInsertee {
    /// The insertee's insertion op (Hellos, Candidates and the final
    /// `MulticastDone` are tagged with it).
    pub op: OpId,
    /// The node being inserted.
    pub new_node: NodeRef,
    /// Coverage this insertee requires: the GCP of insertee and surrogate
    /// (its wave reaches all of `G(prefix)`; within a shared wave
    /// recipients outside `prefix` skip this insertee's FUNCTION).
    pub prefix: Prefix,
    /// Remaining watched holes (Fig. 11), per insertee.
    pub watch: Vec<(usize, u8)>,
}

/// A published object pointer in flight (used by transfer/optimize flows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePtr {
    /// Object the pointer names.
    pub guid: Guid,
    /// Server storing the replica.
    pub server: NodeRef,
}

/// Every message exchanged between Tapestry nodes.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Hop-by-hop surrogate-routed message.
    Routed(Box<RoutedMsg>),
    /// Reply to `FindSurrogate`.
    SurrogateIs {
        /// The asker's operation id.
        op: OpId,
        /// The surrogate found.
        surrogate: NodeRef,
    },
    /// Reply to a `Locate` (success or failure), sent directly to origin.
    LocateDone {
        /// The origin's operation id.
        op: OpId,
        /// Server found, if any.
        server: Option<NodeRef>,
        /// Hops the query traveled.
        hops: u32,
        /// Metric distance the query traveled (origin → pointer → server).
        dist: f64,
        /// Did the query have to go all the way to the root?
        reached_root: bool,
    },

    // ------------------------------ insertion ------------------------------
    /// Driver → new node: begin inserting via `gateway` (Fig. 7, step 1).
    StartInsert {
        /// Any existing member of the network.
        gateway: NodeRef,
        /// Stop after Fig. 7 step 3 (surrogate found, preliminary table
        /// absorbed) and wait for the driver to launch a wave carrying
        /// several insertees — the batched-join entry point of
        /// `tapestry-membership`. Otherwise the new node asks its
        /// surrogate for a wave of one itself.
        deferred: bool,
    },
    /// New node or driver → wave initiator: run one acknowledged
    /// multicast (Fig. 7 step 4, Fig. 8) carrying one insertee (a solo
    /// join) or a whole coalesced batch (§4.4's simultaneous-insertion
    /// machinery, amortized: one spanning tree serves every insertee).
    StartBatchMulticast {
        /// The insertees, in coalescer admission order.
        insertees: Vec<BatchInsertee>,
    },
    /// The wave proper (Fig. 8 / Fig. 11): one branch of the multicast
    /// tree.
    BatchMulticast {
        /// Wave session op (allocated by the initiator; distinct from the
        /// per-insertee insertion ops).
        op: OpId,
        /// Prefix this branch covers (the common prefix of the batch's
        /// coverage prefixes at the root, extended per branch).
        prefix: Prefix,
        /// The batch, with per-insertee watch lists stripped of entries
        /// already served upstream.
        insertees: Vec<BatchInsertee>,
    },
    /// New node → surrogate: request a copy of the routing table
    /// (`GetPrelimNeighborTable`).
    GetTableCopy {
        /// Insertion op id.
        op: OpId,
        /// The new node (so the surrogate can also add it).
        new_node: NodeRef,
    },
    /// Surrogate → new node: flattened routing-table contents.
    TableCopy {
        /// Insertion op id.
        op: OpId,
        /// Every distinct node the surrogate knows, with the level-0 list
        /// implicitly included.
        refs: Vec<NodeRef>,
        /// Length of the greatest common prefix between surrogate and new
        /// node — the starting level for the neighbor-table build.
        shared_len: usize,
    },
    /// Child → parent acknowledgment (Theorem 5's completion signal).
    MulticastAck {
        /// Session op.
        op: OpId,
    },
    /// Surrogate → new node: the multicast finished; the node is a core
    /// node from this instant (Theorem 6).
    MulticastDone {
        /// Insertion op id.
        op: OpId,
    },
    /// Multicast recipient → new node: `SendID` (the recipient announces
    /// itself so the new node can build its level-`|α|` list).
    Hello {
        /// Insertion op id.
        op: OpId,
        /// The announcing node.
        me: NodeRef,
    },
    /// Multicast recipient → new node: nodes filling watched holes.
    Candidates {
        /// Insertion op id.
        op: OpId,
        /// Matching nodes from the sender's table.
        refs: Vec<NodeRef>,
    },
    /// New node → list member: `GetForwardAndBackPointers` at `level`
    /// (Fig. 4, `GetNextList` line 3). The recipient also runs
    /// `AddToTableIfCloser(new_node)` (line 4).
    GetPointers {
        /// Insertion op id.
        op: OpId,
        /// Level whose forward and backward pointers are wanted.
        level: usize,
        /// The inserting node.
        new_node: NodeRef,
    },
    /// List member → new node: the requested pointers.
    Pointers {
        /// Insertion op id.
        op: OpId,
        /// Echoed level.
        level: usize,
        /// Forward + backward pointers at that level.
        refs: Vec<NodeRef>,
    },

    // ------------------------- mesh maintenance ---------------------------
    /// "You are now in my routing table at `level`" — creates the
    /// backpointer the paper pairs with every forward pointer (§2.1).
    AddedYou {
        /// The node whose table changed.
        me: NodeRef,
        /// The latest probe round it had started when it did (0: none).
        round: u64,
    },
    /// "You were evicted from my routing table" — removes the backpointer.
    RemovedYou {
        /// The node whose table changed.
        me: NodeRef,
    },

    // ----------------------- object pointer motion ------------------------
    /// Old root → new root: object pointers that should now be rooted at
    /// the receiver (`LinkAndXferRoot`, Fig. 7). Sender keeps serving until
    /// `TransferAck` arrives (§4.3).
    TransferPtrs {
        /// Pointers changing root.
        ptrs: Vec<WirePtr>,
        /// The old root.
        from: NodeRef,
    },
    /// New root → old root: pointers received; the old root may demote its
    /// copies (they stay as ordinary path pointers).
    TransferAck {
        /// GUIDs acknowledged.
        guids: Vec<Guid>,
    },
    /// Re-route a pointer up a *new* path after a routing change
    /// (`OptimizeObjectPtrs`, Fig. 9).
    OptimizePtr {
        /// The pointer being re-routed.
        ptr: WirePtr,
        /// The node whose arrival/departure changed the route.
        changed: NodeIdx,
        /// Routing level of this hop.
        level: usize,
        /// Previous hop on the new path (`sender` in Fig. 9).
        sender: NodeIdx,
    },
    /// Walk the *old* path backwards deleting stale pointers
    /// (`DeletePointersBackward`, Fig. 9).
    DeleteBackward {
        /// The pointer being cleaned up.
        ptr: WirePtr,
        /// The changed node that triggered the cleanup.
        changed: NodeIdx,
    },

    // ------------------------------ deletion ------------------------------
    /// Voluntary departure, phase 1 (Fig. 12): "I am leaving; here are
    /// replacement candidates for the slot I occupy in your table."
    Leaving {
        /// The departing node.
        me: NodeRef,
        /// Possible substitutes (same required prefix).
        replacements: Vec<NodeRef>,
    },
    /// Voluntary departure, phase 2: remove every link to me now.
    LeaveFinal {
        /// The departing node.
        me: NodeRef,
    },
    /// Backpointer holder → departing node: acknowledged `Leaving`.
    LeaveAck {
        /// The acknowledging node.
        me: NodeRef,
    },

    // ------------------------------- repair -------------------------------
    /// Liveness beacon (§5.2). Each round a node pings every backpointer
    /// holder, i.e. every node that keeps it in a table, so each table
    /// edge costs one message: the holder awaits exactly this ping. A
    /// re-check of a death certificate is a ping with `reply` set.
    Ping {
        /// The network-wide probe round.
        round: u64,
        /// The probing node (a ping from a peer we declared dead is late
        /// evidence that it lives, and re-admission needs its name).
        me: NodeRef,
        /// The sender re-checks a certificate it holds for us and awaits
        /// a `Pong`; a beacon sets no flag and gets no answer.
        reply: bool,
    },
    /// Answer to a re-check ping, the only ping that demands one.
    Pong {
        /// Echoed round.
        round: u64,
        /// The responding node (a stale-round response still identifies a
        /// *live* neighbor — incremental repair re-admits it instead of
        /// re-declaring it dead every round).
        me: NodeRef,
    },
    /// "Do you know live `(prefix·digit)` nodes other than `dead`?" — the
    /// local replacement search of §5.2.
    FindReplacement {
        /// Repair op id.
        op: OpId,
        /// Prefix of the hole.
        prefix: Prefix,
        /// Digit of the hole.
        digit: u8,
        /// The failed node (excluded from answers).
        dead: NodeIdx,
        /// Who asked.
        reply_to: NodeRef,
    },
    /// Replacement candidates for a repair query.
    ReplacementCandidates {
        /// Repair op id.
        op: OpId,
        /// Candidate substitutes.
        refs: Vec<NodeRef>,
    },

    // -------------------- application / driver requests -------------------
    /// Application request: publish `guid` from this storage server
    /// (injected by the driver; §2.2 publication).
    AppPublish {
        /// Object to publish.
        guid: Guid,
    },
    /// Application request: locate `guid` from this node. The result
    /// arrives back here as a `LocateDone` and is queued for the driver.
    AppLocate {
        /// Object to find.
        guid: Guid,
        /// Hop-trace identity when this locate was sampled by the driver.
        trace: Option<TraceId>,
    },
    /// Application request: leave the network voluntarily (Fig. 12).
    AppLeave,
    /// Driver request: run one probe round now (§5.2).
    AppProbe {
        /// The round's network-wide number, the same on every node.
        round: u64,
    },
    /// Driver request: run one §6.4 continual-optimization round — share
    /// each routing-table level with the neighbors at that level.
    AppOptimize,
    /// §6.4 "local sharing of information": a copy of the sender's
    /// level-`level` neighbor row. The receiver measures distances and
    /// adopts any closer nodes.
    ShareTable {
        /// Level being shared.
        level: usize,
        /// The sender's neighbors at that level.
        refs: Vec<NodeRef>,
    },
}

/// Timer payloads used by Tapestry nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// Deadline for one level of the neighbor-table build; on firing, the
    /// build proceeds with whatever `Pointers` replies have arrived.
    InsertLevelTimeout {
        /// Insertion op id.
        op: OpId,
        /// Level the deadline applies to.
        level: usize,
    },
    /// Deadline for ping responses from the most recent probe round.
    ProbeDeadline {
        /// The probe round.
        round: u64,
    },
    /// Incremental maintenance: release one budget's worth of queued
    /// repair tasks. Armed only while the node's staleness ledger is
    /// non-empty (reactive — an idle mesh schedules nothing).
    RepairTick,
    /// Deadline for a wave's child acknowledgments: a child killed
    /// mid-wave would otherwise strand every join the wave carries, so
    /// the session force-completes and the unreached subtree is left to
    /// the repair scheduler.
    McastDeadline {
        /// Wave session op.
        op: OpId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_distinct_across_nodes_and_counters() {
        assert_ne!(OpId::new(1, 0), OpId::new(2, 0));
        assert_ne!(OpId::new(1, 0), OpId::new(1, 1));
        assert_eq!(OpId::new(3, 9), OpId::new(3, 9));
    }

    #[test]
    fn routed_msg_is_cloneable_for_forwarding() {
        use tapestry_id::{Id, IdSpace};
        let m = RoutedMsg {
            kind: RoutedKind::FindSurrogate {
                reply_to: NodeRef::new(0, Id::from_u64(IdSpace::base16(), 0)),
                op: OpId::new(0, 1),
            },
            target: Id::from_u64(IdSpace::base16(), 42),
            level: 0,
            past_hole: false,
            exclude: None,
            hops: 0,
            dist: 0.0,
            visited: Visited::default(),
            local_branch: false,
            trace: None,
        };
        let m2 = m.clone();
        assert_eq!(m2.level, 0);
        assert_eq!(m2.target, m.target);
    }

    /// The bound holds at every push site: pushes past the cap keep the
    /// first `VISITED_CAP`, and `contains` agrees with a `Vec` model of
    /// that rule after every step.
    #[test]
    fn visited_keeps_the_first_64_and_matches_a_vec_model() {
        let mut got = Visited::default();
        let mut model: Vec<NodeIdx> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (x >> 33) as usize % 300;
            got.push(idx);
            if model.len() < VISITED_CAP {
                model.push(idx);
            }
            let kept: Vec<NodeIdx> = got.as_slice().iter().map(|&i| i as NodeIdx).collect();
            assert_eq!(kept, model, "step {step}");
            for probe in 0..300 {
                assert_eq!(got.contains(probe), model.contains(&probe), "step {step}, {probe}");
            }
        }
        assert_eq!(got.as_slice().len(), VISITED_CAP);
        assert!(!got.contains(usize::MAX), "a lookup never narrows");
    }
}

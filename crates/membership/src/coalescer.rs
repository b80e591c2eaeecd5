//! The join coalescer: batches dynamic insertions that arrive within a
//! window into shared acknowledged-multicast waves.
//!
//! Life of a batched join:
//!
//! 1. [`JoinCoalescer::request`] starts the insertee on the *deferred*
//!    protocol immediately (surrogate discovery and the preliminary table
//!    copy overlap the coalescing window) and queues it. The first queued
//!    join opens the window.
//! 2. When the window closes — or the batch-size cap fills — the queue
//!    becomes a pending **wave**.
//! 3. [`JoinCoalescer::pump`] launches the wave once every member has
//!    finished Fig. 7 steps 1–3 (or the readiness deadline passes, in
//!    which case the ready subset flies and stragglers are abandoned to
//!    the driver's usual stuck-join cleanup). The initiator is the first
//!    ready insertee's surrogate — exactly the node a solo join asks for
//!    its own wave of one — so a batch of size 1 is byte-identical to a
//!    solo join.
//!
//! The coalescer is the only batching policy; the wave is the only wave.
//! Under [`BatchPolicy::disabled`] a request is a solo join, which runs
//! its own wave of one without the coalescer's help.
//!
//! Everything is driven off the simulated clock through explicit `pump`
//! calls, so runs are deterministic for a given event schedule.

use tapestry_core::{BatchInsertee, NodeRef, TapestryNetwork};
use tapestry_sim::{NodeIdx, SimTime};

/// When and how joins coalesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Coalescing window: the first queued join waits at most this long
    /// for company before its batch flushes. `ZERO` disables batching.
    pub window: SimTime,
    /// Flush early once this many joins are queued (≥ 1).
    pub max_batch: usize,
    /// How long a flushed batch may wait for stragglers to finish
    /// surrogate discovery before the ready subset flies without them.
    pub ready_timeout: SimTime,
}

impl BatchPolicy {
    /// No coalescing: every join is a solo join (a wave of one).
    pub fn disabled() -> Self {
        BatchPolicy { window: SimTime::ZERO, max_batch: 1, ready_timeout: SimTime::ZERO }
    }

    /// Is coalescing in force?
    pub fn is_batching(&self) -> bool {
        self.window > SimTime::ZERO && self.max_batch > 1
    }
}

/// Counts of what the coalescer did (driver-side bookkeeping; the
/// protocol-level counters live in `SimStats` under `membership.multicast.batch_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescerOutcome {
    /// Joins admitted solo (each runs its own wave of one).
    pub solo_joins: u64,
    /// Joins carried by shared waves.
    pub batched_joins: u64,
    /// Shared waves launched.
    pub waves: u64,
    /// Joins abandoned because they never reported readiness (their
    /// half-built nodes are reaped by the driver's stuck-join cleanup).
    pub abandoned: u64,
}

/// One join waiting for its window to close (discovery already running).
#[derive(Debug, Clone, Copy)]
struct Queued {
    idx: NodeIdx,
}

/// One flushed batch waiting for its members to finish discovery.
#[derive(Debug, Clone)]
struct PendingWave {
    members: Vec<NodeIdx>,
    /// Launch with whoever is ready once this passes.
    deadline: SimTime,
}

/// Batches joins into shared multicast waves (see the module docs).
#[derive(Debug)]
pub struct JoinCoalescer {
    policy: BatchPolicy,
    queued: Vec<Queued>,
    /// Close time of the open window (`None`: no joins queued).
    window_close: Option<SimTime>,
    waves: Vec<PendingWave>,
    outcome: CoalescerOutcome,
}

impl JoinCoalescer {
    /// A coalescer under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        JoinCoalescer {
            policy,
            queued: Vec::new(),
            window_close: None,
            waves: Vec::new(),
            outcome: CoalescerOutcome::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// What happened so far.
    pub fn outcome(&self) -> CoalescerOutcome {
        self.outcome
    }

    /// Nothing queued and no wave pending?
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && self.waves.is_empty()
    }

    /// Admit one join via `gateway`. Without batching this is exactly
    /// `TapestryNetwork::insert_node_via`; with batching the insertee
    /// starts deferred discovery now and joins the open window (opening
    /// one if none is). Completion is observed by the caller through
    /// `finish_insert_bookkeeping`, batched or not.
    pub fn request(&mut self, net: &mut TapestryNetwork, idx: NodeIdx, gateway: NodeIdx) {
        if !self.policy.is_batching() {
            self.outcome.solo_joins += 1;
            net.insert_node_via(idx, gateway);
            return;
        }
        let now = net.engine().now();
        net.insert_node_deferred(idx, gateway);
        self.queued.push(Queued { idx });
        if self.window_close.is_none() {
            self.window_close = Some(now + self.policy.window);
        }
        if self.queued.len() >= self.policy.max_batch {
            self.flush(now);
        }
    }

    /// Advance the coalescer to the network's current simulated time:
    /// close an expired window and launch every pending wave whose
    /// members are all ready (or whose readiness deadline passed).
    pub fn pump(&mut self, net: &mut TapestryNetwork) {
        let now = net.engine().now();
        if self.window_close.is_some_and(|t| now >= t) {
            self.flush(now);
        }
        self.launch_ready(net, false);
    }

    /// Phase-end drain: flush the open window and launch every pending
    /// wave with whoever is ready *now* (the caller has already drained
    /// the engine, so discovery is as done as it will ever get).
    pub fn force(&mut self, net: &mut TapestryNetwork) {
        let now = net.engine().now();
        self.flush(now);
        self.launch_ready(net, true);
    }

    /// Move the queued joins into a pending wave.
    fn flush(&mut self, now: SimTime) {
        self.window_close = None;
        if self.queued.is_empty() {
            return;
        }
        let members = self.queued.drain(..).map(|q| q.idx).collect();
        self.waves.push(PendingWave { members, deadline: now + self.policy.ready_timeout });
    }

    /// Launch every pending wave that is ready (all members reported) or
    /// overdue (`force` treats every wave as overdue).
    fn launch_ready(&mut self, net: &mut TapestryNetwork, force: bool) {
        let now = net.engine().now();
        let mut i = 0;
        while i < self.waves.len() {
            let overdue = force || now >= self.waves[i].deadline;
            let ready: Vec<(BatchInsertee, NodeRef)> =
                self.waves[i].members.iter().filter_map(|&idx| net.batch_join_ready(idx)).collect();
            if ready.len() < self.waves[i].members.len() && !overdue {
                i += 1;
                continue;
            }
            let wave = self.waves.remove(i);
            let stragglers = (wave.members.len() - ready.len()) as u64;
            self.outcome.abandoned += stragglers;
            if ready.is_empty() {
                continue;
            }
            // The canonical initiator: the first ready insertee's
            // surrogate — the node a solo join asks. The initiator must
            // match the wave's common prefix (the branch walk reads *its*
            // routing-table levels), and every ready insertee's surrogate
            // does by GCP construction — so if churn killed the first one
            // while the batch was forming, any other live surrogate of the
            // batch is a valid stand-in. If none survives, the batch is
            // abandoned to the driver's stuck-join cleanup (a solo join
            // would equally have stalled).
            let Some(initiator) = ready.iter().map(|(_, s)| s.idx).find(|&s| net.engine().alive(s))
            else {
                self.outcome.abandoned += ready.len() as u64;
                continue;
            };
            self.outcome.batched_joins += ready.len() as u64;
            self.outcome.waves += 1;
            net.launch_batch_multicast(initiator, ready.into_iter().map(|(i, _)| i).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_batches() {
        let p = BatchPolicy::disabled();
        assert!(!p.is_batching());
        let p2 = BatchPolicy { window: SimTime(100), max_batch: 1, ready_timeout: SimTime(100) };
        assert!(!p2.is_batching(), "max_batch 1 is the solo path");
        let p3 = BatchPolicy { max_batch: 8, ..p2 };
        assert!(p3.is_batching());
    }
}

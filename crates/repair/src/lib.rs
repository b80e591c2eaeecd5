//! Incremental, fact-driven maintenance (ROADMAP "100k+ unlock").
//!
//! The global probe/optimize rounds of §5.2/§6.4 sweep every node's full
//! table each round — Θ(n · table) per round — which PR 5 measured as the
//! dominant churn cost. This crate replaces the *response* side of that
//! sweep with localized repair: nodes accumulate monotonic staleness
//! **facts** (a message bounced off a dead neighbor, a probe ack missed
//! its deadline, an eviction, a multicast branch deferred past the
//! fan-out bound, a soft-state pointer expired) and a deterministic
//! per-node scheduler turns those facts into targeted repair **events**
//! — backup-pointer promotion, a single-slot nearest-neighbor re-query,
//! a pointer republish — under a `repairs_per_sec_per_node` budget, so
//! maintenance cost is O(churn rate) rather than O(n).
//!
//! The ledger is deliberately generic over the task type: `tapestry-core`
//! instantiates it with its own `RepairTask` enum, and the unit tests
//! here exercise the scheduling contract (dedup, FIFO order, budget
//! slicing, backlog cap) with plain integers. Everything is `BTreeSet`/
//! `VecDeque`-based and insertion-ordered, so draining is byte-identical
//! from run to run.

use std::collections::{BTreeSet, VecDeque};
use tapestry_sim::SimTime;

/// How a deployment keeps its mesh healthy under churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// PR 5's synchronized global rounds: every probe/optimize sweep
    /// walks every node's full table (Θ(n · table) per round). The
    /// committed-report baseline; byte-identical to the pre-repair tree.
    #[default]
    GlobalRounds,
    /// Fact-driven localized repair: staleness facts accumulate in a
    /// per-node ledger and a budgeted scheduler issues targeted
    /// `(level, digit)` repair events, so maintenance cost follows the
    /// churn rate instead of the population size.
    Incremental,
}

impl MaintenanceMode {
    /// Parse the CLI / spec spelling (`global` | `incremental`).
    pub fn parse(s: &str) -> Option<MaintenanceMode> {
        match s {
            "global" | "global-rounds" | "rounds" => Some(MaintenanceMode::GlobalRounds),
            "incremental" | "incr" => Some(MaintenanceMode::Incremental),
            _ => None,
        }
    }

    /// The CLI spelling (inverse of [`MaintenanceMode::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            MaintenanceMode::GlobalRounds => "global",
            MaintenanceMode::Incremental => "incremental",
        }
    }
}

/// The staleness-fact taxonomy. Facts are *evidence*, not commands: each
/// kind maps to the targeted repair the scheduler will eventually run,
/// and to the `repair.fact.*` counter that makes the evidence auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FactKind {
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
    /// `multicast_fanout` bound (PR 5's `fanout_deferred`). Repairs by
    /// re-introducing the insertee to the deferred subtree's
    /// representative directly.
    DeferredBranch,
    /// A soft-state object pointer lapsed (§2.2). Repairs by
    /// republishing the local replica along the current mesh.
    ExpiredPointer,
}

/// One "maintenance second" of simulated time: 1000 distance units at
/// the engine's `UNITS_PER_DISTANCE = 1024` granularity. The budget knob
/// is expressed per maintenance second, and the scheduler fires one tick
/// per second while a backlog exists.
pub const REPAIR_TICK: SimTime = SimTime(1_024_000);

/// Backlog cap: a ledger never holds more than this many queued tasks.
/// Overflow drops the *oldest* entries — under sustained churn the newest
/// evidence supersedes repairs for state that has likely churned again.
pub const MAX_BACKLOG: usize = 4096;

/// Per-node staleness ledger and budgeted repair scheduler.
///
/// A deduplicating FIFO: pushing a task already queued is a no-op (facts
/// are monotonic — repeated evidence for the same repair coalesces), and
/// `drain(budget)` releases at most `budget` tasks in arrival order.
/// The `armed` flag carries the "is a RepairTick timer outstanding"
/// state so the owner arms exactly one timer per busy period.
#[derive(Debug, Clone, Default)]
pub struct RepairLedger<T: Ord + Clone> {
    queue: VecDeque<T>,
    queued: BTreeSet<T>,
    armed: bool,
    /// Tasks dropped to the backlog cap (observability; surfaces as the
    /// `repair.overflow` counter when the owner records it).
    pub overflowed: u64,
}

impl<T: Ord + Clone> RepairLedger<T> {
    pub fn new() -> Self {
        RepairLedger {
            queue: VecDeque::new(),
            queued: BTreeSet::new(),
            armed: false,
            overflowed: 0,
        }
    }

    /// Queue a repair task unless an identical one is already pending.
    /// Returns `true` if the task was newly queued.
    pub fn push(&mut self, task: T) -> bool {
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
    pub fn drain(&mut self, budget: usize) -> Vec<T> {
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
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Try to claim the single outstanding repair-tick timer slot.
    /// Returns `true` exactly when no timer is currently armed (the
    /// caller should then set one); subsequent calls return `false`
    /// until [`RepairLedger::disarm`].
    pub fn arm(&mut self) -> bool {
        !std::mem::replace(&mut self.armed, true)
    }

    /// Release the timer slot (called when the tick fires).
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Whether a repair tick is currently outstanding.
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_dedups_and_preserves_fifo_order() {
        let mut l: RepairLedger<u32> = RepairLedger::new();
        assert!(l.push(3));
        assert!(l.push(1));
        assert!(!l.push(3), "duplicate coalesces");
        assert!(l.push(2));
        assert_eq!(l.len(), 3);
        assert_eq!(l.drain(10), vec![3, 1, 2], "arrival order, not sorted");
        assert!(l.is_empty());
    }

    #[test]
    fn drain_respects_budget() {
        let mut l: RepairLedger<u32> = RepairLedger::new();
        for i in 0..10 {
            l.push(i);
        }
        assert_eq!(l.drain(3), vec![0, 1, 2]);
        assert_eq!(l.len(), 7);
        assert_eq!(l.drain(3), vec![3, 4, 5]);
        // A task drained earlier may be re-queued later (new evidence).
        assert!(l.push(0));
        assert_eq!(l.drain(100), vec![6, 7, 8, 9, 0]);
    }

    #[test]
    fn zero_budget_drains_nothing() {
        let mut l: RepairLedger<u32> = RepairLedger::new();
        l.push(1);
        assert!(l.drain(0).is_empty());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn backlog_cap_drops_oldest() {
        let mut l: RepairLedger<u32> = RepairLedger::new();
        for i in 0..(MAX_BACKLOG as u32 + 5) {
            l.push(i);
        }
        assert_eq!(l.len(), MAX_BACKLOG);
        assert_eq!(l.overflowed, 5);
        // The oldest five were dropped; the head is now task 5 — and the
        // dropped ones can be re-queued (dedup set was cleaned up).
        assert_eq!(l.drain(1), vec![5]);
        assert!(l.push(0), "dropped task no longer counts as queued");
    }

    #[test]
    fn arm_claims_once_until_disarmed() {
        let mut l: RepairLedger<u32> = RepairLedger::new();
        assert!(l.arm(), "first claim wins");
        assert!(!l.arm(), "second claim refused while outstanding");
        assert!(l.is_armed());
        l.disarm();
        assert!(!l.is_armed());
        assert!(l.arm(), "re-armable after the tick fires");
    }

    #[test]
    fn mode_parse_round_trips() {
        for m in [MaintenanceMode::GlobalRounds, MaintenanceMode::Incremental] {
            assert_eq!(MaintenanceMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(MaintenanceMode::parse("incr"), Some(MaintenanceMode::Incremental));
        assert_eq!(MaintenanceMode::parse("nope"), None);
        assert_eq!(MaintenanceMode::default(), MaintenanceMode::GlobalRounds);
    }

    #[test]
    fn repair_tick_is_one_maintenance_second() {
        // 1000 distance units at 1024 units/distance.
        assert_eq!(REPAIR_TICK, SimTime::from_distance(1000.0));
    }
}

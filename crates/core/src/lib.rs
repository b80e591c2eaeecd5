//! The Tapestry overlay of Hildrum, Kubiatowicz, Rao & Zhao —
//! *Distributed Object Location in a Dynamic Network* (SPAA 2002).
//!
//! This crate implements the paper's full protocol suite as deterministic
//! actors on the [`tapestry_sim`] discrete-event engine:
//!
//! * the **prefix routing mesh** (§2.1): per-level neighbor sets
//!   `N_{α,j}` with primary/secondary neighbors, backpointers, Property 1
//!   (consistency) and Property 2 (locality);
//! * **surrogate routing** (§2.3, Theorem 2): Tapestry-native localized
//!   routing with deterministic unique roots;
//! * **object publication and location** (§2.2): object pointers deposited
//!   along publish paths, queries that divert at the first pointer,
//!   multi-root support (Observation 2), explicit republish;
//! * **acknowledged multicast** (§4.1, Fig. 8; watch lists and pinned
//!   pointers from §4.4, Fig. 11);
//! * **dynamic node insertion** (§3–4, Figs. 4 & 7): surrogate discovery,
//!   preliminary table copy, `LinkAndXferRoot`, and the distributed
//!   nearest-neighbor table construction (`AcquireNeighborTable` /
//!   `GetNextList`);
//! * **object-pointer redistribution** (§4.2, Fig. 9) and availability
//!   during insertion (§4.3, Fig. 10);
//! * **voluntary and involuntary deletion** (§5, Fig. 12) with lazy
//!   repair and probe-round failure detection;
//! * the **§6.3 locality enhancement** for transit-stub networks.
//!
//! The driver type is [`TapestryNetwork`]; see `examples/quickstart.rs` in
//! the workspace root.

#![forbid(unsafe_code)]

mod availability;
mod config;
mod insert;
mod locality;
mod maintain;
mod messages;
mod multicast;
mod neighbor_set;
mod network;
mod node;
mod object_store;
mod prefix_runs;
mod refs;
mod repair;
mod route;
mod routing_table;

pub use config::{RoutingScheme, TapestryConfig};
pub use messages::{
    BatchInsertee, Msg, OpId, RoutedKind, RoutedMsg, Timer, Visited, WirePtr, VISITED_CAP,
};
pub use neighbor_set::{AddOutcome, Slot};
pub use network::{BootstrapStage, LocateResult, NetworkSnapshot, TapestryNetwork};
pub use node::{NodeStatus, TapestryNode};
pub use object_store::{ObjectStore, PtrEntry};
pub use refs::{Names, NodeRef, MAX_NODES};
pub use repair::MaintenanceMode;
pub use routing_table::{Hop, RoutingTable, TableAddOutcome};

/// The repair ledger's scheduling contract (dedup, FIFO order, budget
/// slicing, backlog cap, one armed tick), with plain integers as tasks.
#[cfg(test)]
mod tests {
    use crate::repair::{RepairLedger, MAX_BACKLOG, REPAIR_TICK};
    use tapestry_sim::SimTime;

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
        l.disarm();
        assert!(l.arm(), "re-armable after the tick fires");
    }

    #[test]
    fn repair_tick_is_one_maintenance_second() {
        // 1000 distance units at 1024 units/distance.
        assert_eq!(REPAIR_TICK, SimTime::from_distance(1000.0));
    }
}

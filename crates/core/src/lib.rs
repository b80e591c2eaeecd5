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
//!   multi-root support (Observation 2), soft-state republish;
//! * **acknowledged multicast** (§4.1, Fig. 8; watch lists and pinned
//!   pointers from §4.4, Fig. 11);
//! * **dynamic node insertion** (§3–4, Figs. 4 & 7): surrogate discovery,
//!   preliminary table copy, `LinkAndXferRoot`, and the distributed
//!   nearest-neighbor table construction (`AcquireNeighborTable` /
//!   `GetNextList`);
//! * **object-pointer redistribution** (§4.2, Fig. 9) and availability
//!   during insertion (§4.3, Fig. 10);
//! * **voluntary and involuntary deletion** (§5, Fig. 12) with lazy
//!   repair and heartbeat failure detection;
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
pub use messages::{BatchInsertee, Msg, OpId, RoutedKind, RoutedMsg, Timer, WirePtr};
pub use neighbor_set::{AddOutcome, Slot};
pub use network::{BootstrapStage, LocateHook, LocateResult, NetworkSnapshot, TapestryNetwork};
pub use node::{NodeStatus, TapestryNode};
pub use object_store::{ObjectStore, PtrEntry};
pub use refs::{NodeRef, MAX_NODES};
pub use routing_table::{Hop, RoutingTable, TableAddOutcome};
pub use tapestry_repair::MaintenanceMode;

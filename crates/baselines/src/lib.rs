//! The comparison schemes of the paper's Table 1.
//!
//! The paper compares Tapestry against Chord, CAN, Pastry, Viceroy and the
//! PRR family on four axes: insertion cost, per-node space, query hops and
//! stretch. This crate implements the systems the comparison needs as
//! *structural models*: the real routing data structures (finger tables,
//! CAN zones, Pastry rows, a central directory, full broadcast) over the
//! same metric spaces as the Tapestry simulation, with joins performed
//! through the overlay (so join message counts are honest) and lookups
//! returning explicit node paths whose metric length gives latency and
//! stretch. [`PrrV0`] is the "PRR v.0 + this paper" row: §7's static
//! random-sampling scheme for general metric spaces (Theorem 7), built
//! once over a fixed member set, with no join protocol.
//!
//! Unlike `tapestry-core`, these models are not event-driven: Table 1's
//! quantities (hops, messages, entries) are path/structure properties and
//! need no clock. Viceroy, Awerbuch–Peleg and RRVV appear in the paper
//! only as asymptotic citations with no evaluated system, so the harness
//! reports their cited bounds rather than measurements (see `table1` in
//! the README's *Reproducing the paper's figures and tables*).

#![forbid(unsafe_code)]

mod broadcast;
mod can;
mod centralized;
mod chord;
mod common;
mod pastry;
mod prrv0;

pub use broadcast::Broadcast;
pub use can::Can;
pub use centralized::CentralizedDirectory;
pub use chord::Chord;
pub use common::{path_distance, LocatorSystem, LookupPath, SpaceStats};
pub use pastry::Pastry;
pub use prrv0::{sample_sets, PrrV0, PrrV0Lookup, SamplingParams};

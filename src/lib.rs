//! # Tapestry — distributed object location in a dynamic network
//!
//! A full Rust reproduction of Hildrum, Kubiatowicz, Rao & Zhao,
//! *Distributed Object Location in a Dynamic Network* (SPAA 2002 / ToCS
//! 2003): the Tapestry prefix-routing mesh, surrogate routing, low-stretch
//! object publication and location, dynamic node insertion (acknowledged
//! multicast + the distributed nearest-neighbor algorithm), voluntary and
//! involuntary deletion, the §6.3 transit-stub locality optimization, the
//! §7 PRR v.0 general-metric scheme, and the baseline systems of Table 1
//! (Chord, CAN, Pastry, a centralized directory and full broadcast).
//!
//! This facade re-exports the workspace crates; see the README for a tour
//! and `examples/quickstart.rs` for a five-minute introduction.
//!
//! ```
//! use tapestry::prelude::*;
//!
//! let config = TapestryConfig::default();
//! let space = TorusSpace::random(64, 1_000.0, 42);
//! let mut net = TapestryNetwork::build(config, Box::new(space), 42);
//! let server = net.node_ids()[0];
//! let guid = net.random_guid();
//! net.publish(server, guid);
//! let hit = net.locate(net.node_ids()[13], guid).expect("deterministic location");
//! assert_eq!(hit.server.expect("found").idx, server);
//! ```

#![forbid(unsafe_code)]

pub use tapestry_baselines as baselines;
pub use tapestry_core as core;
pub use tapestry_id as id;
pub use tapestry_membership as membership;
pub use tapestry_metric as metric;
pub use tapestry_sim as sim;
pub use tapestry_workload as workload;
pub use tapestry_workload::sweep;

/// Everything most applications need, in one import.
pub mod prelude {
    pub use tapestry_core::{
        LocateResult, NetworkSnapshot, RoutingScheme, TapestryConfig, TapestryNetwork,
    };
    pub use tapestry_id::{Guid, Id, IdSpace, Prefix};
    pub use tapestry_membership::{BatchPolicy, JoinCoalescer};
    pub use tapestry_metric::{GridSpace, MetricSpace, RingSpace, TorusSpace, TransitStubSpace};
    pub use tapestry_sim::{Histogram, SimTime};
    pub use tapestry_workload::{
        Arrival, ChurnSpec, PhaseSpec, Popularity, ScenarioReport, ScenarioSpec,
    };
}

//! Observability for the Tapestry reproduction, in three pillars:
//!
//! 1. **Causal hop tracing** — a [`TraceId`] threaded through the routed
//!    message path so sampled locate and join operations emit one
//!    [`tapestry_sim::TraceRecord`] per forward into the engine's bounded
//!    collector. Everything is keyed by **sim time**, so traces are
//!    byte-identical across runs of the same spec.
//! 2. **Typed metrics registry** — every counter and histogram the system
//!    emits is declared once in [`metrics`], with its one namespaced
//!    name, its kind and a help string. Handlers bump through the typed
//!    handles ([`Counter`], [`Hist`]), which index a dense slot in
//!    `SimStats`; a name is looked at only where a report is written.
//! 3. **Time-series telemetry** — a per-sim-window [`SeriesSampler`]
//!    (events by kind, queue depth, repair backlog, live nodes) plus
//!    deterministic JSON emitters in [`json`]. Wall-clock observations
//!    never enter these files.
//!
//! [`json`] is also the workspace's one JSON module: `JsonWriter` (and
//! its three-decimal `f3`), through which every committed artifact is
//! written, and the `Json` reader that loads one back.
//!
//! The dependency direction is deliberate: this crate sits on
//! `tapestry-sim` only, and `tapestry-core`/`tapestry-workload`/bench
//! bins sit on it — the registry is below the protocol, not beside it.

#![forbid(unsafe_code)]

pub mod json;
mod registry;
mod sampler;

pub use registry::{metrics, Counter, Gauge, Hist, MetricDef, MetricKind};
pub use sampler::{EngineObservation, SeriesSample, SeriesSampler};

/// Identity of one traced operation, carried in the routed-message header
/// (sim-side instrumentation only).
///
/// The id spaces are disjoint by construction:
/// * sampled **locates** use [`TraceId::locate`] — bit 63 set over the
///   runner's issue sequence number;
/// * **joins** use [`TraceId::join`] — the raw `OpId` value, which packs
///   `(node << 40) | counter` and stays below bit 63 for any plausible
///   population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Id for the `seq`-th sampled locate issued by a run driver.
    pub fn locate(seq: u64) -> TraceId {
        TraceId((1 << 63) | seq)
    }

    /// Id for a traced join, from the insertion's operation id.
    pub fn join(op: u64) -> TraceId {
        TraceId(op)
    }

    /// The raw value stored into [`tapestry_sim::TraceRecord::trace`].
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_spaces_are_disjoint() {
        let locate = TraceId::locate(7);
        let join = TraceId::join((12u64 << 40) | 99);
        assert_ne!(locate, join);
        assert!(locate.raw() & (1 << 63) != 0);
        assert!(join.raw() & (1 << 63) == 0, "op ids never reach bit 63");
    }
}

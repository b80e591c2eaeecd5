//! The one adapter between the benchmark and the workspace crates.
//!
//! Every other file of this package names workspace items through
//! `crate::api`, so the ROADMAP's API-collapse items (one `run`, one
//! drain, canonical metric keys) have exactly one file to re-point.
//!
//! # Pinned public API
//!
//! * `tapestry_workload::runner::run_instrumented` with its
//!   `ScenarioReport` / `RunTotals` / `RunTiming` results — the entry
//!   point the `scenarios` and `scale` bins use, wrapped here as
//!   [`run_untraced`];
//! * the `ScenarioSpec` / `PhaseSpec` builders (`new`, `seed`, `config`,
//!   `torus`, `capacity`, `initial_nodes`, `objects`, `join_batch`,
//!   `phase`, `build_space`, `validate`; `arrival`, `popularity`,
//!   `writes`, `churn`, `checked`), `Arrival::times`,
//!   `ChurnSpec::events`, `PopularitySampler::{new, sample}`;
//! * `TapestryNetwork::{bootstrap_threaded, publish, publish_async,
//!   locate_async, take_results, drain_results, run_until, run_to_idle,
//!   finish_insert_bookkeeping, kill, probe_all_async, check_property1,
//!   check_property2, distinct_roots_sampled, snapshot,
//!   nearest_replica_distance (debug cross-check only), engine,
//!   engine_mut, node, members, len, config, random_guid,
//!   partition_active}` and `LocateResult::stretch`; joins reach
//!   `insert_node_deferred` / `launch_batch_multicast` through the
//!   coalescer only;
//! * `JoinCoalescer::{new, request, pump, force, outcome}` with
//!   `BatchPolicy`;
//! * `Engine::{set_profile, handler_ns, events_processed, events_by_kind,
//!   now, alive, stats, stats_mut, metric}`, `SimStats::{messages,
//!   timers, dropped}`, `Histogram`, `SimTime`, `ShardedQueue::{new,
//!   push, pop}`;
//! * `TapestryNode::{table, store}`, `RoutingTable::next_hop`,
//!   `ObjectStore::ptr_count`, `MetricSpace::{build_index, distance}`,
//!   `NearestIndex::closest_k`, `root_id`, `Id::random`;
//! * the typed counter handles of `tapestry_trace::metrics::*`, always
//!   read with `.read(&stats)` and never by string key.

pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};
pub use tapestry_core::{LocateResult, MaintenanceMode, TapestryConfig, TapestryNetwork};
pub use tapestry_id::{root_id, Guid, Id};
pub use tapestry_membership::{BatchPolicy, JoinCoalescer};
pub use tapestry_sim::{Histogram, NodeIdx, ShardedQueue, SimStats, SimTime};
pub use tapestry_trace::{metrics, Counter};
pub use tapestry_workload::{
    Arrival, ChurnEvent, ChurnSpec, PhaseSpec, Popularity, PopularitySampler, RunTotals,
    ScenarioReport, ScenarioSpec,
};

/// What one untraced run hands back: the deterministic report and engine
/// totals, plus the host-clock split the end-to-end metrics are built on.
pub struct UntracedRun {
    /// The byte-stable scenario report.
    pub report: ScenarioReport,
    /// Deterministic engine totals.
    pub totals: RunTotals,
    /// Host seconds of the whole `run_instrumented` call.
    pub wall_secs: f64,
    /// Host seconds of the drive (catalog publish, phases, drains, checks).
    pub drive_secs: f64,
    /// The run's final engine counters.
    pub stats: SimStats,
}

/// Run `spec` through the runner entry point the `scenarios` / `scale`
/// bins use, timing the whole call from outside.
pub fn run_untraced(spec: &ScenarioSpec) -> Result<UntracedRun, String> {
    let t0 = std::time::Instant::now();
    let (report, totals, timing, telemetry) = tapestry_workload::runner::run_instrumented(spec)?;
    let wall_secs = t0.elapsed().as_secs_f64();
    Ok(UntracedRun {
        report,
        totals,
        wall_secs,
        drive_secs: timing.drive_secs,
        stats: telemetry.stats,
    })
}

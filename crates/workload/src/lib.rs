//! # tapestry-workload — scenarios, traffic generation, percentile reports
//!
//! The paper's claims (Theorems 2–3, Figs. 2–4, the §4 dynamic
//! algorithms) are about behavior *under load and churn*. This crate
//! turns "under load and churn" into a first-class, declarative object:
//!
//! * [`traffic`] — deterministic, seedable traffic sources: even, Poisson
//!   and flash-crowd arrival processes; uniform, Zipf and hotspot object
//!   popularity; a read/write mix;
//! * [`churn`] — scripted membership dynamics: Poisson join/leave,
//!   correlated mass failures, partition/heal cuts, and explicit
//!   probe/optimize repair rounds;
//! * [`spec`] — the [`ScenarioSpec`] builder composing those generators
//!   over simulated-time phases with a node-count schedule (plain Rust,
//!   std-only);
//! * [`runner`] — drives a `tapestry_core::TapestryNetwork` through a
//!   spec, harvesting per-op latency/hops/distance into log-bucketed
//!   [`tapestry_sim::Histogram`]s (p50/p90/p99/p999) and running the
//!   invariant spot-checks (Properties 1/2, Theorem 2) between phases;
//! * [`report`] — a deterministic JSON emitter (written through
//!   `tapestry_trace::json::JsonWriter`), so
//!   `BENCH_scenarios.json` can be committed and diffed across PRs;
//! * [`presets`] — the named workloads (`steady-zipf`, `flash-crowd`,
//!   `churn-storm`, `partition-heal`, `mass-failure`);
//! * [`sweep`] — the run-level experiment harness: seed × config grids
//!   of these presets, run in parallel, aggregated and gated against a
//!   committed baseline.
//!
//! ```
//! use tapestry_workload::{presets, runner};
//!
//! let spec = presets::preset("steady-zipf", 16, 60, 7).expect("known preset");
//! let report = runner::run(&spec).expect("valid spec");
//! assert_eq!(report.phases.len(), 2);
//! assert!(report.total_ops.completed > 0);
//! ```

#![forbid(unsafe_code)]

pub mod churn;
pub mod presets;
pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;
pub mod traffic;

pub use churn::{ChurnEvent, ChurnSpec};
pub use presets::sweep_preset;
pub use report::{HistSummary, InvariantReport, OpStats, PhaseReport, ScenarioReport};
pub use runner::{run, run_instrumented, RunTiming, RunTotals, Telemetry};
pub use spec::{PhaseSpec, ScenarioSpec, SpaceKind, TrafficSpec};
pub use traffic::{Arrival, Popularity, PopularitySampler};

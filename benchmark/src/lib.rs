//! # tapestry-benchmark — the layered performance ledger
//!
//! One benchmark that reports host-time metrics and simulated metrics
//! side by side, names the layer behind each, and is the only yardstick
//! later changes may claim against. See `README.md` for the workloads,
//! the metric → layer → workload table and the recorded baseline.
//!
//! * [`workloads`] — the four fixed workloads;
//! * [`metrics`] — every metric by name and unit (`BENCHMARK.json` is
//!   generated from it);
//! * [`child`] — one repetition in one fresh process;
//! * [`traced`], [`spans`], [`layers`], [`probes`] — the traced pass;
//! * [`ledger`] — sets, medians, output checks, `--check`, printing;
//! * [`api`] — the only file that names workspace crates.

#![forbid(unsafe_code)]

pub mod api;
pub mod child;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;

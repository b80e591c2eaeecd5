//! Run-level parallel experiment harness: seed × config grids, CI-grade
//! aggregate statistics, A/B baseline compare.
//!
//! The paper's curves (Figs. 2–4, the §4.5 join-cost bound, the §5
//! repair behaviour) are statements about *distributions over runs*, not
//! single trajectories. This module turns "run the grid" into one
//! declarative object:
//!
//! * [`grid`] — a plain-text sweep spec: seed set × node counts ×
//!   substrates × join batching, expanded into independent cells, plus
//!   the regression gates `--compare` enforces;
//! * [`pool`] — scoped-thread fan-out of whole runs across cores. Each
//!   run is the existing deterministic single-run path
//!   ([`crate::runner`]), so per-run results are byte-identical
//!   regardless of scheduling — parallelism lives *between* runs;
//! * [`run`] — sweep execution and metric extraction, split into
//!   deterministic metrics (committed) and wall-clock metrics
//!   (artifact-only);
//! * [`stats`] / [`agg`] — mean / stddev / 95% CI (Student-t) per cell
//!   over seeds, with deterministic JSON/CSV/markdown emitters written
//!   through `tapestry_trace::json` (the workspace's one JSON writer);
//! * [`compare`] — the gate engine that reads a committed baseline back
//!   with `tapestry_trace::json::Json` and folds every check into one CI
//!   exit status (0 pass, 1 regression, 3 missing cell).
//!
//! The driver binary lives in `tapestry-bench` (`tapestry-sweep`); this
//! module is engine-only and never reads the wall clock outside the
//! runner's own timing observations.
//!
//! ```
//! use tapestry_trace::json::Json;
//! use tapestry_workload::sweep::{agg, compare, grid::SweepSpec, run};
//!
//! let spec = SweepSpec::parse(
//!     "name demo\nseeds 1 2\n\ngrid g\npreset steady-zipf\nnodes 16\nops 30\n\
//!      gate events max_ratio 1.1\n",
//! )
//! .unwrap();
//! let result = run::run_sweep(&spec, 2).unwrap();
//! let fresh = agg::aggregate(&result);
//! // Self-compare: a sweep always passes ratio gates against itself.
//! let baseline = Json::parse(&fresh.to_json(false)).unwrap();
//! let verdict = compare::compare(&fresh, &baseline, &spec.gates).unwrap();
//! assert_eq!(verdict.exit_code(), 0);
//! ```

pub mod agg;
pub mod compare;
pub mod grid;
pub mod pool;
pub mod run;
pub mod stats;

pub use agg::{aggregate, CellAgg, SweepAgg};
pub use compare::{compare, CompareReport, CompareStatus};
pub use grid::{CellSpec, Gate, GateKind, GridSpec, SweepSpec};
pub use pool::run_parallel;
pub use run::{run_one, run_sweep, CellResult, RunMetrics, SweepResult};
pub use stats::Agg;

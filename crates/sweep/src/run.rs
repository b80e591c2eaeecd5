//! Sweep execution: expand the spec's grids into (cell × seed) runs, fan
//! them across the worker pool, and extract per-run metrics — split into
//! the deterministic set (identical bytes every run of the same seed,
//! committed in `BENCH_sweep.json`) and the wall-clock set (machine
//! observations, emitted separately and never committed).

use crate::grid::{CellSpec, SweepSpec};
use crate::pool::run_parallel;
use std::collections::BTreeMap;
use tapestry_membership::mean_messages_per_join;
use tapestry_trace::metrics;
use tapestry_workload::{runner, ChurnSpec, ScenarioReport, ScenarioSpec};

/// Metrics of one (cell, seed) run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The run's seed.
    pub seed: u64,
    /// Deterministic metrics: a function of the spec alone, byte-stable
    /// across reruns and worker counts.
    pub det: BTreeMap<String, f64>,
    /// Machine-dependent wall-clock metrics.
    pub wall: BTreeMap<String, f64>,
}

/// Every seed's metrics for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell configuration.
    pub cell: CellSpec,
    /// Per-seed metrics, ascending by seed.
    pub runs: Vec<RunMetrics>,
}

/// A completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Sweep name from the spec.
    pub name: String,
    /// The seed set, ascending.
    pub seeds: Vec<u64>,
    /// Per-cell results, in spec declaration order.
    pub cells: Vec<CellResult>,
}

/// Run every (cell × seed) combination across `workers` pool threads.
///
/// Scheduling never leaks into the result: jobs are collected by input
/// position and re-grouped into declaration order, so the returned
/// structure — and everything aggregated from it — is identical at every
/// worker count.
pub fn run_sweep(spec: &SweepSpec, workers: usize) -> Result<SweepResult, String> {
    let cells = spec.cells();
    let jobs: Vec<(usize, u64)> = cells
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| spec.seeds.iter().map(move |&s| (ci, s)))
        .collect();
    let outcomes = run_parallel(jobs.len(), workers, |j| {
        let (ci, seed) = jobs[j];
        run_one(&cells[ci], seed)
    });
    let mut runs_per_cell: Vec<Vec<RunMetrics>> = (0..cells.len()).map(|_| Vec::new()).collect();
    for (j, outcome) in outcomes.into_iter().enumerate() {
        runs_per_cell[jobs[j].0].push(outcome?);
    }
    let cells = cells
        .into_iter()
        .zip(runs_per_cell)
        .map(|(cell, mut runs)| {
            // Seeds are dispatched ascending already; re-sort anyway so the
            // aggregate never depends on dispatch order.
            runs.sort_by_key(|r| r.seed);
            CellResult { cell, runs }
        })
        .collect();
    Ok(SweepResult { name: spec.name.clone(), seeds: spec.seeds.clone(), cells })
}

/// Run one cell at one seed and extract its metrics.
pub fn run_one(cell: &CellSpec, seed: u64) -> Result<RunMetrics, String> {
    let spec = cell.build(seed)?;
    let (report, totals, timing, _) = runner::run_instrumented(&spec)
        .map_err(|e| format!("cell {} seed {seed}: {e}", cell.key()))?;

    let mut det = BTreeMap::new();
    det.insert("events".into(), totals.events as f64);
    det.insert("messages".into(), totals.messages as f64);
    det.insert("timers".into(), totals.timers as f64);
    det.insert("ops_issued".into(), report.total_ops.issued as f64);
    det.insert("ops_completed".into(), report.total_ops.completed as f64);
    det.insert("ops_found_live".into(), report.total_ops.found_live as f64);
    det.insert("ops_lost".into(), report.total_ops.lost as f64);
    det.insert("hops_p50".into(), report.total_hops.p50);
    det.insert("hops_p99".into(), report.total_hops.p99);
    det.insert("latency_p50".into(), report.total_latency.p50);
    det.insert("latency_p99".into(), report.total_latency.p99);
    det.insert("peak_table_entries".into(), totals.peak_table_entries as f64);
    det.insert("final_nodes".into(), totals.final_nodes as f64);

    // Join metrics exist exactly when the spec can complete joins (any
    // churn/ramp phase), so presence is a function of the cell, not the
    // seed — every seed of a cell reports the same metric set.
    if spec_has_joins(&spec) {
        let joins = report.joins_ok_total();
        det.insert("joins_ok".into(), joins as f64);
        det.insert(
            "join_msgs_mean".into(),
            mean_messages_per_join(report.counter_total(metrics::JOIN_MESSAGES), joins),
        );
        let waves = report.counter_total(metrics::MULTICAST_BATCH_WAVES);
        let batched = report.counter_total(metrics::MULTICAST_BATCH_JOINS);
        det.insert("waves".into(), waves as f64);
        det.insert(
            "mean_batch".into(),
            if waves == 0 { 0.0 } else { batched as f64 / waves as f64 },
        );
    }
    // Repair metrics exist exactly when the spec scripts a probe round,
    // the per-round divisor.
    let rounds = spec.probe_rounds();
    if rounds > 0 {
        det.insert("repair_events".into(), report.counter_total(metrics::REPAIR_EVENTS) as f64);
        det.insert("repair_facts".into(), report.counter_total(metrics::REPAIR_FACTS) as f64);
        det.insert(
            "repair_promotions".into(),
            report.counter_total(metrics::REPAIR_PROMOTIONS) as f64,
        );
        det.insert("repairs_per_node_round".into(), report.repairs_per_node_round(rounds));
    }
    verify_det_metrics(cell, seed, &report, &det)?;

    let mut wall = BTreeMap::new();
    wall.insert("bootstrap_secs".into(), timing.bootstrap_secs);
    wall.insert("wall_secs".into(), timing.bootstrap_secs + timing.drive_secs);
    wall.insert("events_per_sec".into(), timing.events_per_sec(totals.events));
    Ok(RunMetrics { seed, det, wall })
}

/// Does any phase script joins (explicit churn or an upward node ramp)?
fn spec_has_joins(spec: &ScenarioSpec) -> bool {
    let mut nodes = spec.initial_nodes;
    for p in &spec.phases {
        if p.churn.iter().any(|c| matches!(c, ChurnSpec::Churn { .. } | ChurnSpec::Diurnal { .. }))
        {
            return true;
        }
        if let Some(t) = p.target_nodes {
            if t > nodes {
                return true;
            }
            nodes = t;
        }
    }
    false
}

/// Cross-check that no deterministic metric was contaminated by a
/// non-finite value (a NaN would still *print* deterministically, but
/// would poison every ratio gate downstream).
fn verify_det_metrics(
    cell: &CellSpec,
    seed: u64,
    report: &ScenarioReport,
    det: &BTreeMap<String, f64>,
) -> Result<(), String> {
    for (k, v) in det {
        if !v.is_finite() {
            return Err(format!(
                "cell {} seed {seed}: metric '{k}' is non-finite ({v}) — report scenario '{}'",
                cell.key(),
                report.scenario
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepSpec;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse(
            "name tiny\nseeds 7 11\n\ngrid t\npreset steady-zipf\nnodes 16\nops 40\nfanout default 2\n",
        )
        .unwrap()
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let spec = tiny_spec();
        let one = run_sweep(&spec, 1).unwrap();
        let two = run_sweep(&spec, 2).unwrap();
        // Wall metrics are machine observations and legitimately vary;
        // everything deterministic must be bit-identical.
        let det = |r: &SweepResult| {
            r.cells
                .iter()
                .map(|c| (c.cell.clone(), c.runs.iter().map(|m| (m.seed, m.det.clone())).collect()))
                .collect::<Vec<(_, Vec<_>)>>()
        };
        assert_eq!(det(&one), det(&two), "scheduling must not leak into results");
        assert_eq!(one.cells.len(), 2);
        assert_eq!(one.cells[0].runs.len(), 2);
        assert_eq!(one.cells[0].runs[0].seed, 7);
        assert_eq!(one.cells[0].runs[1].seed, 11);
    }

    #[test]
    fn steady_cells_omit_join_and_repair_metrics() {
        let spec = tiny_spec();
        let r = run_sweep(&spec, 2).unwrap();
        let det = &r.cells[0].runs[0].det;
        for key in ["events", "timers", "hops_p50", "ops_issued", "ops_lost"] {
            assert!(det.contains_key(key), "every cell reports {key}");
        }
        assert_eq!(det["ops_lost"], 0.0, "a static mesh loses nothing");
        for key in ["joins_ok", "join_msgs_mean", "waves", "mean_batch"] {
            assert!(!det.contains_key(key), "no joins scripted, yet {key} present");
        }
        for key in ["repair_events", "repair_promotions", "repairs_per_node_round"] {
            assert!(!det.contains_key(key), "no probe round scripted, yet {key} present");
        }
        let wall = &r.cells[0].runs[0].wall;
        assert!(wall.contains_key("events_per_sec"));
    }

    #[test]
    fn churn_cells_carry_join_and_repair_metrics() {
        let spec = SweepSpec::parse(
            "name c\nseeds 5\n\ngrid c\npreset churn-scale\nnodes 64\nops 100\nbatched on off\n",
        )
        .unwrap();
        let r = run_sweep(&spec, 1).unwrap();
        for cell in &r.cells {
            let det = &cell.runs[0].det;
            for key in [
                "join_msgs_mean",
                "repair_events",
                "repair_facts",
                "repair_promotions",
                "repairs_per_node_round",
                "timers",
                "ops_issued",
                "ops_lost",
            ] {
                assert!(det.contains_key(key), "{}: {key}", cell.cell.key());
            }
            assert!(det["joins_ok"] > 0.0);
            assert!(det["waves"] > 0.0);
            assert!(det["timers"] > 0.0, "probe rounds arm deadline timers");
        }
        let (on, off) = (&r.cells[0].runs[0].det, &r.cells[1].runs[0].det);
        assert!(on["mean_batch"] >= 1.0, "a wave carries at least one join");
        assert_eq!(off["mean_batch"], 1.0, "a solo join is a wave of one");
    }
}

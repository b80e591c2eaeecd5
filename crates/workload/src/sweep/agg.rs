//! Per-cell aggregation over seeds and the deterministic emitters:
//! committed JSON (`BENCH_sweep.json`, deterministic metrics only), CSV,
//! the timing JSON CI uploads as an artifact, and a markdown table for
//! job summaries. All follow `tapestry_trace::json`'s conventions (fixed
//! key order, three-decimal floats) so a regenerated artifact is
//! byte-identical to the committed one.

use crate::sweep::run::SweepResult;
use crate::sweep::stats::Agg;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tapestry_trace::json::{f3, JsonWriter};

/// One cell's aggregate: every metric summarized over the seed set.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAgg {
    /// Canonical cell key.
    pub key: String,
    /// Owning grid.
    pub grid: String,
    /// Deterministic metrics (committed).
    pub det: BTreeMap<String, Agg>,
    /// Wall-clock metrics (artifact-only).
    pub wall: BTreeMap<String, Agg>,
}

/// The whole sweep, aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAgg {
    /// Sweep name.
    pub name: String,
    /// Seed set, ascending.
    pub seeds: Vec<u64>,
    /// Cells in spec declaration order.
    pub cells: Vec<CellAgg>,
}

/// Aggregate a sweep's runs into per-cell statistics. Order-independent
/// by construction: samples are taken ascending by seed (the runner
/// already sorts each cell's runs), so a shuffled completion order
/// produces byte-identical output.
pub fn aggregate(result: &SweepResult) -> SweepAgg {
    let cells = result
        .cells
        .iter()
        .map(|c| {
            let mut runs = c.runs.clone();
            runs.sort_by_key(|r| r.seed);
            let mut det: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            let mut wall: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for r in &runs {
                for (k, &v) in &r.det {
                    det.entry(k.clone()).or_default().push(v);
                }
                for (k, &v) in &r.wall {
                    wall.entry(k.clone()).or_default().push(v);
                }
            }
            let summarize = |m: BTreeMap<String, Vec<f64>>| {
                m.into_iter().map(|(k, xs)| (k, Agg::of(&xs))).collect::<BTreeMap<_, _>>()
            };
            CellAgg {
                key: c.cell.key(),
                grid: c.cell.grid.clone(),
                det: summarize(det),
                wall: summarize(wall),
            }
        })
        .collect();
    SweepAgg { name: result.name.clone(), seeds: result.seeds.clone(), cells }
}

impl SweepAgg {
    /// Emit the aggregate as deterministic JSON. `include_wall` selects
    /// between the committed artifact (deterministic metrics only —
    /// byte-identical on every machine) and the CI timing artifact
    /// (wall metrics only, alongside the same cell keys).
    pub fn to_json(&self, include_wall: bool) -> String {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.str_field("sweep", &self.name);
        w.key("seeds");
        w.open_arr();
        for &s in &self.seeds {
            w.raw(&s.to_string());
        }
        w.close_arr();
        w.key("cells");
        w.open_arr();
        for c in &self.cells {
            w.open_obj();
            w.str_field("cell", &c.key);
            w.key("metrics");
            w.open_obj();
            let metrics = if include_wall { &c.wall } else { &c.det };
            for (name, agg) in metrics {
                w.key(name);
                write_agg(&mut w, agg);
            }
            w.close_obj();
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
        let mut out = w.out;
        out.push('\n');
        out
    }

    /// Emit the deterministic metrics as CSV, one row per (cell, metric):
    /// the table `tapestry-sweep` prints.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("cell,metric,n,mean,sd,ci95,min,max\n");
        for c in &self.cells {
            for (name, a) in &c.det {
                let _ = writeln!(
                    s,
                    "{},{},{},{},{},{},{},{}",
                    c.key,
                    name,
                    a.n,
                    f3(a.mean),
                    f3(a.sd),
                    f3(a.ci95),
                    f3(a.min),
                    f3(a.max),
                );
            }
        }
        s
    }

    /// Render a GitHub job-summary table: one row per cell, the headline
    /// metrics as `mean ± ci95`.
    pub fn to_markdown(&self) -> String {
        const COLS: &[(&str, &str, bool)] = &[
            ("events", "events", false),
            ("hops_p50", "hops p50", false),
            ("latency_p99", "latency p99", false),
            ("join_msgs_mean", "msgs/join", false),
            ("repairs_per_node_round", "repairs/node/round", false),
            ("events_per_sec", "events/sec", true),
            ("wall_secs", "wall (s)", true),
        ];
        let mut s = String::from("### sweep `");
        s.push_str(&self.name);
        let _ = writeln!(s, "` — {} seeds\n", self.seeds.len());
        s.push_str("| cell |");
        for (_, label, _) in COLS {
            let _ = write!(s, " {label} |");
        }
        s.push('\n');
        s.push_str("|---|");
        s.push_str(&"---:|".repeat(COLS.len()));
        s.push('\n');
        for c in &self.cells {
            let _ = write!(s, "| `{}` |", c.key);
            for (metric, _, is_wall) in COLS {
                let map = if *is_wall { &c.wall } else { &c.det };
                match map.get(*metric) {
                    Some(a) => {
                        let _ = write!(s, " {} ± {} |", f3(a.mean), f3(a.ci95));
                    }
                    None => s.push_str(" — |"),
                }
            }
            s.push('\n');
        }
        s
    }
}

fn write_agg(w: &mut JsonWriter, a: &Agg) {
    w.open_obj();
    w.u64_field("n", a.n);
    w.f64_field("mean", a.mean);
    w.f64_field("sd", a.sd);
    w.f64_field("ci95", a.ci95);
    w.f64_field("min", a.min);
    w.f64_field("max", a.max);
    w.close_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::{CellSpec, SweepSpec};
    use crate::sweep::run::{CellResult, RunMetrics, SweepResult};

    fn cell() -> CellSpec {
        CellSpec {
            grid: "g".into(),
            preset: "steady-zipf".into(),
            nodes: 16,
            ops: 40,
            space: None,
            batched: None,
        }
    }

    fn metrics(seed: u64, v: f64) -> RunMetrics {
        RunMetrics {
            seed,
            det: BTreeMap::from([("events".to_string(), v)]),
            wall: BTreeMap::from([("wall_secs".to_string(), 0.5)]),
        }
    }

    fn fixture(run_order: &[(u64, f64)]) -> SweepResult {
        SweepResult {
            name: "fx".into(),
            seeds: {
                let mut s: Vec<u64> = run_order.iter().map(|&(s, _)| s).collect();
                s.sort_unstable();
                s
            },
            cells: vec![CellResult {
                cell: cell(),
                runs: run_order.iter().map(|&(s, v)| metrics(s, v)).collect(),
            }],
        }
    }

    #[test]
    fn aggregate_matches_hand_computed_stats() {
        let agg = aggregate(&fixture(&[(1, 2.0), (2, 4.0), (3, 6.0)]));
        let a = agg.cells[0].det["events"];
        assert_eq!(a.n, 3);
        assert_eq!(a.mean, 4.0);
        assert_eq!(a.sd, 2.0);
        assert!((a.ci95 - 4.303 * 2.0 / 3.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!((a.min, a.max), (2.0, 6.0));
    }

    #[test]
    fn aggregate_is_run_order_independent() {
        let forward = aggregate(&fixture(&[(1, 2.0), (2, 4.0), (3, 6.0)]));
        let shuffled = aggregate(&fixture(&[(3, 6.0), (1, 2.0), (2, 4.0)]));
        assert_eq!(forward.to_json(false), shuffled.to_json(false));
        assert_eq!(forward.to_json(true), shuffled.to_json(true));
        assert_eq!(forward.to_csv(), shuffled.to_csv());
    }

    #[test]
    fn json_splits_deterministic_from_wall_metrics() {
        let agg = aggregate(&fixture(&[(1, 2.0), (2, 4.0)]));
        let committed = agg.to_json(false);
        let timing = agg.to_json(true);
        assert!(committed.contains("\"events\""));
        assert!(!committed.contains("wall_secs"), "committed artifact has no wall metrics");
        assert!(timing.contains("\"wall_secs\""));
        assert!(!timing.contains("\"events\":{"), "timing artifact has no deterministic metrics");
        assert!(committed.ends_with('\n'));
        assert_eq!(committed.matches('{').count(), committed.matches('}').count());
        assert!(tapestry_trace::json::Json::parse(&committed).is_ok());
    }

    #[test]
    fn csv_lists_every_metric_per_cell() {
        let agg = aggregate(&fixture(&[(1, 2.0), (2, 4.0)]));
        let csv = agg.to_csv();
        assert!(csv.starts_with("cell,metric,n,mean,sd,ci95,min,max\n"));
        assert!(csv.contains("g/n16,events,2,3.000,"));
    }

    #[test]
    fn markdown_renders_mean_plus_minus_ci() {
        let agg = aggregate(&fixture(&[(1, 2.0), (2, 4.0)]));
        let md = agg.to_markdown();
        assert!(md.contains("| `g/n16` |"));
        assert!(md.contains("3.000 ± "), "events column renders mean ± ci95: {md}");
        assert!(md.contains(" — |"), "absent metrics render as a dash");
    }

    #[test]
    fn end_to_end_aggregate_is_worker_invariant_and_seed_sorted() {
        let spec = SweepSpec::parse(
            "name e2e\nseeds 3 1 2\n\ngrid g\npreset steady-zipf\nnodes 16\nops 30\n",
        )
        .unwrap();
        assert_eq!(spec.seeds, vec![1, 2, 3]);
        let a = aggregate(&crate::sweep::run::run_sweep(&spec, 1).unwrap());
        let b = aggregate(&crate::sweep::run::run_sweep(&spec, 3).unwrap());
        assert_eq!(a.to_json(false), b.to_json(false), "worker count never reaches the bytes");
    }
}

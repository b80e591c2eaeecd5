//! The A/B gate engine behind `tapestry-sweep --compare`: evaluate the
//! spec's gates over a fresh aggregate against a committed baseline
//! (`BENCH_sweep.json`), and fold the outcomes into one exit status —
//! the single CI verdict that replaced the per-metric python3 gate
//! steps.

use crate::sweep::agg::SweepAgg;
use crate::sweep::grid::{Gate, GateKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tapestry_trace::json::{f3, Json};

/// Overall verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompareStatus {
    /// Every gate held.
    Pass,
    /// At least one gate failed.
    Regression,
    /// The baseline (or the gate set) references cells/metrics that do
    /// not line up with the fresh sweep — the comparison itself is
    /// unsound, which dominates any individual gate outcome.
    MissingCell,
}

/// One evaluated (gate, cell) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Cell key.
    pub cell: String,
    /// Metric name as written in the gate.
    pub metric: String,
    /// The gate keyword (`max_ratio`, …).
    pub kind: &'static str,
    /// Fresh mean.
    pub current: f64,
    /// Baseline mean (`None` for absolute gates).
    pub baseline: Option<f64>,
    /// The evaluated bound the current mean was held against.
    pub limit: f64,
    /// Did the gate hold?
    pub ok: bool,
}

/// The full comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Every evaluated check, in gate-then-cell order.
    pub checks: Vec<CheckResult>,
    /// Human-readable descriptions of structural mismatches.
    pub missing: Vec<String>,
    /// The folded verdict.
    pub status: CompareStatus,
}

impl CompareReport {
    /// The process exit code contract: 0 pass, 1 regression, 3 missing
    /// cell/metric (2 is reserved for usage/IO errors, decided by the
    /// driver).
    pub fn exit_code(&self) -> i32 {
        match self.status {
            CompareStatus::Pass => 0,
            CompareStatus::Regression => 1,
            CompareStatus::MissingCell => 3,
        }
    }

    /// One line per check plus the verdict, for terminal output.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for c in &self.checks {
            let _ = writeln!(
                s,
                "{} {} {} {}: current {}{} limit {}",
                if c.ok { "PASS" } else { "FAIL" },
                c.cell,
                c.metric,
                c.kind,
                f3(c.current),
                match c.baseline {
                    Some(b) => format!(" (baseline {})", f3(b)),
                    None => String::new(),
                },
                f3(c.limit),
            );
        }
        for m in &self.missing {
            let _ = writeln!(s, "MISSING {m}");
        }
        let _ = writeln!(
            s,
            "compare: {} ({} checks, {} failed, {} missing)",
            match self.status {
                CompareStatus::Pass => "PASS",
                CompareStatus::Regression => "REGRESSION",
                CompareStatus::MissingCell => "MISSING-CELL",
            },
            self.checks.len(),
            self.checks.iter().filter(|c| !c.ok).count(),
            self.missing.len(),
        );
        s
    }

    /// A markdown table of the checks, for the CI job summary.
    pub fn render_markdown(&self) -> String {
        let mut s = String::from(
            "#### gates\n\n| status | cell | metric | current | limit |\n|---|---|---|---:|---:|\n",
        );
        for c in &self.checks {
            let _ = writeln!(
                s,
                "| {} | `{}` | {} ({}) | {} | {} |",
                if c.ok { "✅" } else { "❌" },
                c.cell,
                c.metric,
                c.kind,
                f3(c.current),
                f3(c.limit),
            );
        }
        for m in &self.missing {
            let _ = writeln!(s, "| ⚠️ | — | {m} | — | — |");
        }
        s
    }
}

/// Mean values of a parsed baseline aggregate, keyed by (cell, metric).
fn baseline_means(baseline: &Json) -> Result<BTreeMap<(String, String), f64>, String> {
    let cells = baseline
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "baseline JSON has no `cells` array".to_string())?;
    let mut means = BTreeMap::new();
    for c in cells {
        let key = c
            .get("cell")
            .and_then(Json::as_str)
            .ok_or_else(|| "baseline cell entry has no `cell` key".to_string())?;
        let metrics =
            c.get("metrics").ok_or_else(|| format!("baseline cell '{key}' has no `metrics`"))?;
        if let Json::Obj(members) = metrics {
            for (name, agg) in members {
                let mean = agg
                    .get("mean")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("baseline {key}/{name} has no numeric `mean`"))?;
                means.insert((key.to_string(), name.clone()), mean);
            }
        }
    }
    Ok(means)
}

/// Evaluate `gates` over `current` against `baseline` (a parsed
/// committed aggregate). Errors are reserved for a structurally unusable
/// baseline document; lookups that merely fail to line up are reported
/// through [`CompareStatus::MissingCell`] so CI can distinguish "the
/// code regressed" from "the baseline needs regenerating".
pub fn compare(
    current: &SweepAgg,
    baseline: &Json,
    gates: &[Gate],
) -> Result<CompareReport, String> {
    let base = baseline_means(baseline)?;
    let mut checks = Vec::new();
    let mut missing = Vec::new();
    for gate in gates {
        let is_wall = gate.metric.strip_prefix("wall.");
        let metric = is_wall.unwrap_or(&gate.metric);
        let mut applied = 0usize;
        for cell in &current.cells {
            if let Some(f) = &gate.cell_filter {
                if !cell.key.contains(f.as_str()) {
                    continue;
                }
            }
            let map = if is_wall.is_some() { &cell.wall } else { &cell.det };
            // Gates apply only where the metric exists: join gates skip
            // cells without joins, repair gates cells without a probe round.
            let Some(agg) = map.get(metric) else { continue };
            applied += 1;
            let (ok, baseline_mean, limit) = match gate.kind {
                GateKind::MaxRatio(r) | GateKind::MinRatio(r) => {
                    let Some(&b) = base.get(&(cell.key.clone(), metric.to_string())) else {
                        missing.push(format!(
                            "baseline lacks cell '{}' metric '{metric}' (gate {})",
                            cell.key,
                            gate.kind.keyword(),
                        ));
                        continue;
                    };
                    if matches!(gate.kind, GateKind::MaxRatio(_)) {
                        let limit = b * r + gate.abs_slack;
                        (agg.mean <= limit, Some(b), limit)
                    } else {
                        let limit = b * r - gate.abs_slack;
                        (agg.mean >= limit, Some(b), limit)
                    }
                }
                GateKind::MinAbs(v) => (agg.mean + gate.abs_slack >= v, None, v),
                GateKind::MaxAbs(v) => (agg.mean <= v + gate.abs_slack, None, v),
            };
            checks.push(CheckResult {
                cell: cell.key.clone(),
                metric: gate.metric.clone(),
                kind: gate.kind.keyword(),
                current: agg.mean,
                baseline: baseline_mean,
                limit,
                ok,
            });
        }
        if applied == 0 {
            // A gate that touches nothing is a spec/baseline drift signal
            // (typo'd metric, filter matching no cell) — CI must not
            // silently "pass" it.
            missing.push(format!(
                "gate '{}' ({}) matched no cell",
                gate.metric,
                gate.kind.keyword(),
            ));
        }
    }
    let status = if !missing.is_empty() {
        CompareStatus::MissingCell
    } else if checks.iter().any(|c| !c.ok) {
        CompareStatus::Regression
    } else {
        CompareStatus::Pass
    };
    Ok(CompareReport { checks, missing, status })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::agg::{CellAgg, SweepAgg};
    use crate::sweep::grid::{Gate, GateKind};
    use crate::sweep::stats::Agg;
    use std::collections::BTreeMap;

    fn agg_with(key: &str, det: &[(&str, f64)], wall: &[(&str, f64)]) -> CellAgg {
        let mk = |pairs: &[(&str, f64)]| {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), Agg { n: 3, mean: v, ..Default::default() }))
                .collect::<BTreeMap<_, _>>()
        };
        CellAgg { key: key.to_string(), grid: "g".into(), det: mk(det), wall: mk(wall) }
    }

    fn current() -> SweepAgg {
        SweepAgg {
            name: "t".into(),
            seeds: vec![1, 2, 3],
            cells: vec![
                agg_with("g/n16/t1", &[("events", 100.0)], &[("events_per_sec", 5000.0)]),
                agg_with("g/n16/t2", &[("events", 100.0)], &[("events_per_sec", 9000.0)]),
            ],
        }
    }

    fn baseline_json(events_mean: f64) -> Json {
        let mut a = current();
        for c in &mut a.cells {
            c.det.get_mut("events").unwrap().mean = events_mean;
        }
        Json::parse(&a.to_json(false)).unwrap()
    }

    fn gate(metric: &str, kind: GateKind) -> Gate {
        Gate { metric: metric.into(), kind, abs_slack: 0.0, cell_filter: None }
    }

    #[test]
    fn pass_when_within_ratio() {
        let r =
            compare(&current(), &baseline_json(90.0), &[gate("events", GateKind::MaxRatio(1.5))])
                .unwrap();
        assert_eq!(r.status, CompareStatus::Pass);
        assert_eq!(r.exit_code(), 0);
        assert_eq!(r.checks.len(), 2, "one check per matching cell");
        assert!(r.checks.iter().all(|c| c.ok));
        assert_eq!(r.checks[0].baseline, Some(90.0));
    }

    #[test]
    fn regression_when_ratio_exceeded() {
        let r =
            compare(&current(), &baseline_json(50.0), &[gate("events", GateKind::MaxRatio(1.5))])
                .unwrap();
        assert_eq!(r.status, CompareStatus::Regression);
        assert_eq!(r.exit_code(), 1);
        assert!(r.render_text().contains("FAIL"));
    }

    #[test]
    fn abs_slack_loosens_the_bound() {
        let mut g = gate("events", GateKind::MaxRatio(1.5));
        g.abs_slack = 30.0;
        let r = compare(&current(), &baseline_json(50.0), &[g]).unwrap();
        assert_eq!(r.status, CompareStatus::Pass, "50·1.5 + 30 = 105 ≥ 100");
    }

    #[test]
    fn wall_gates_are_absolute_and_skip_the_baseline() {
        let gates = [
            gate("wall.events_per_sec", GateKind::MinAbs(4000.0)),
            gate("wall.events_per_sec", GateKind::MaxAbs(10000.0)),
        ];
        let r = compare(&current(), &baseline_json(100.0), &gates).unwrap();
        assert_eq!(r.status, CompareStatus::Pass);
        assert!(r.checks.iter().all(|c| c.baseline.is_none()));
        let fail = compare(
            &current(),
            &baseline_json(100.0),
            &[gate("wall.events_per_sec", GateKind::MinAbs(6000.0))],
        )
        .unwrap();
        assert_eq!(fail.status, CompareStatus::Regression, "the t1 cell sits below the floor");
    }

    #[test]
    fn min_ratio_guards_floors() {
        let r =
            compare(&current(), &baseline_json(150.0), &[gate("events", GateKind::MinRatio(0.5))])
                .unwrap();
        assert_eq!(r.status, CompareStatus::Pass, "100 ≥ 150·0.5");
        let r =
            compare(&current(), &baseline_json(300.0), &[gate("events", GateKind::MinRatio(0.5))])
                .unwrap();
        assert_eq!(r.status, CompareStatus::Regression, "100 < 300·0.5");
    }

    #[test]
    fn missing_baseline_cell_dominates() {
        // Baseline with one cell renamed: the other current cell has no
        // baseline row → MissingCell even though nothing regressed.
        let mut a = current();
        a.cells[1].key = "renamed".into();
        let baseline = Json::parse(&a.to_json(false)).unwrap();
        let r =
            compare(&current(), &baseline, &[gate("events", GateKind::MaxRatio(10.0))]).unwrap();
        assert_eq!(r.status, CompareStatus::MissingCell);
        assert_eq!(r.exit_code(), 3);
        assert!(r.missing[0].contains("g/n16/t2"), "{:?}", r.missing);
    }

    #[test]
    fn gate_matching_no_cell_is_flagged_not_silently_passed() {
        let r = compare(
            &current(),
            &baseline_json(100.0),
            &[gate("join_msgs_mean", GateKind::MaxRatio(1.5))],
        )
        .unwrap();
        assert_eq!(r.status, CompareStatus::MissingCell);
        assert!(r.missing[0].contains("matched no cell"));
    }

    #[test]
    fn cell_filter_restricts_checks() {
        let mut g = gate("events", GateKind::MaxRatio(1.5));
        g.cell_filter = Some("/t1".into());
        let r = compare(&current(), &baseline_json(90.0), &[g]).unwrap();
        assert_eq!(r.checks.len(), 1);
        assert_eq!(r.checks[0].cell, "g/n16/t1");
    }

    #[test]
    fn unusable_baseline_document_is_an_error() {
        assert!(compare(&current(), &Json::parse("{}").unwrap(), &[]).is_err());
        let no_mean =
            Json::parse("{\"cells\":[{\"cell\":\"x\",\"metrics\":{\"events\":{}}}]}").unwrap();
        assert!(compare(&current(), &no_mean, &[]).is_err());
    }

    #[test]
    fn markdown_lists_every_check() {
        let r =
            compare(&current(), &baseline_json(50.0), &[gate("events", GateKind::MaxRatio(1.5))])
                .unwrap();
        let md = r.render_markdown();
        assert!(md.contains("❌"));
        assert!(md.contains("`g/n16/t1`"));
    }
}

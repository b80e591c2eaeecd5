//! Experiment harness shared by the per-figure binaries in `src/bin/`.
//!
//! Each binary regenerates one table or figure of the paper (see
//! DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
//! results). This library provides the common machinery: summary
//! statistics, tab-separated row printing, and a thread-pool sweep runner
//! that fans independent simulation instances out across cores
//! (simulations themselves stay single-threaded — event order is the
//! semantics — so parallelism lives at the sweep level).

#![forbid(unsafe_code)]

use tapestry_workload::ScenarioSpec;

/// Default `--metrics-window` when `--metrics-json` is given without one:
/// 1024 distance units of simulated time per sample.
pub const DEFAULT_METRICS_WINDOW: u64 = 1 << 20;

/// The telemetry flags of the `scenarios` driver:
/// `--trace-json PATH`, `--trace-sample N`, `--trace-cap N`,
/// `--metrics-json PATH` and `--metrics-window UNITS`. Asking for a file
/// implies collecting it: `--trace-json` alone traces every locate, and
/// `--metrics-json` alone samples every [`DEFAULT_METRICS_WINDOW`] units.
#[derive(Debug, Clone)]
pub struct TelemetryFlags {
    /// Where to write the hop-trace artifact.
    pub trace_json: Option<String>,
    /// Where to write the time-series artifact.
    pub metrics_json: Option<String>,
    trace_sample: u64,
    trace_cap: usize,
    metrics_window: u64,
}

impl Default for TelemetryFlags {
    fn default() -> Self {
        TelemetryFlags {
            trace_json: None,
            metrics_json: None,
            trace_sample: 0,
            trace_cap: 4096,
            metrics_window: 0,
        }
    }
}

impl TelemetryFlags {
    /// Take `flag` if it is one of the five, reading its value through
    /// `val`; `Err` names an unknown flag or a malformed or zero count.
    pub fn parse(&mut self, flag: &str, val: impl FnOnce(&str) -> String) -> Result<(), String> {
        match flag {
            "--trace-json" => self.trace_json = Some(val(flag)),
            "--trace-sample" => self.trace_sample = count(flag, val(flag))?,
            "--trace-cap" => self.trace_cap = count(flag, val(flag))?,
            "--metrics-json" => self.metrics_json = Some(val(flag)),
            "--metrics-window" => self.metrics_window = count(flag, val(flag))?,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
        Ok(())
    }

    /// Turn on the collection the flags ask for in `spec`.
    pub fn apply(&self, spec: ScenarioSpec) -> ScenarioSpec {
        let mut spec = spec;
        let sample = match self.trace_sample {
            0 if self.trace_json.is_some() => 1,
            n => n,
        };
        if sample > 0 {
            spec = spec.trace_sample(sample).trace_cap(self.trace_cap);
        }
        let window = match self.metrics_window {
            0 if self.metrics_json.is_some() => DEFAULT_METRICS_WINDOW,
            n => n,
        };
        if window > 0 {
            spec = spec.metrics_window(window);
        }
        spec
    }
}

/// A flag value that must be a count ≥ 1.
fn count<T: std::str::FromStr + Default + PartialEq>(flag: &str, v: String) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(format!("{flag}: '{v}' is not a count ≥ 1")),
    }
}

/// Mean of a sample (0 for empty input).
pub use tapestry_sweep::stats::mean;

/// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank on a sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    // Plain f64 values: equal elements are interchangeable, so tie order
    // cannot change the nearest-rank read below.
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // tapestry-lint: allow(float-tiebreak)
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Run `jobs(i)` for `i ∈ 0..n` across one worker per available core,
/// collecting results in input order. The closure receives the job index;
/// each job should build its own simulation (deterministic from its
/// index/seed).
pub fn parallel_sweep<T, F>(n: usize, jobs: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    tapestry_sweep::run_parallel(n, workers, jobs)
}

/// Print a tab-separated header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Print a tab-separated data row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Format a float with 2 decimals (experiment output convention).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn telemetry_flags_parse_and_a_file_implies_collecting_it() {
        let mut tel = TelemetryFlags::default();
        assert!(tel.parse("--nodes", |_| unreachable!("not a telemetry flag")).is_err());
        assert!(tel.parse("--trace-sample", |_| "0".into()).is_err());
        assert!(tel.parse("--trace-cap", |_| "many".into()).is_err());
        let off = tel.apply(ScenarioSpec::new("x"));
        assert_eq!((off.trace_sample, off.metrics_window), (0, 0));
        assert_eq!(tel.parse("--trace-json", |_| "t.json".into()), Ok(()));
        assert_eq!(tel.parse("--metrics-json", |_| "m.json".into()), Ok(()));
        let on = tel.apply(ScenarioSpec::new("x"));
        assert_eq!((on.trace_sample, on.metrics_window), (1, DEFAULT_METRICS_WINDOW));
        assert_eq!(tel.parse("--trace-sample", |_| "8".into()), Ok(()));
        assert_eq!(tel.parse("--trace-cap", |_| "16".into()), Ok(()));
        let set = tel.apply(ScenarioSpec::new("x"));
        assert_eq!((set.trace_sample, set.trace_cap), (8, 16));
    }

    #[test]
    fn sweep_preserves_order_and_runs_all() {
        let out = parallel_sweep(32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }
}

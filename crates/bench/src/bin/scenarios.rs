//! **Scenario driver** — runs one named `tapestry-workload` preset (any
//! name `sweep_preset` knows, with its default axes) or the whole
//! `PRESET_NAMES` series, and emits deterministic JSON reports with
//! p50/p90/p99/p999 locate latency, hop counts, drop rates and invariant
//! spot-checks, plus the hop-trace and metrics artifacts on request.
//!
//! ```sh
//! scenarios --list
//! scenarios --preset steady-zipf --nodes 64 --ops 500
//! scenarios --preset churn-storm --nodes 64 --ops 500 --json churn.json
//! scenarios --nodes 10000 --preset scale --ops 2000        # one torus scale point
//! scenarios --nodes 1000 --preset churn-scale --ops 1000   # one batched churn point
//! scenarios --preset all --json BENCH_scenarios.json   # the committed series
//! ```
//!
//! Identical arguments (including `--seed`) produce bit-identical
//! reports — `BENCH_scenarios.json` is regenerated with `--preset all`
//! and diffed across PRs. The scale trajectory over many sizes is a
//! sweep: `tapestry-sweep --spec sweeps/scale.spec`.

use tapestry_bench::{f2, header, row};
use tapestry_trace::json::JsonWriter;
use tapestry_workload::{presets, runner, sweep_preset, ScenarioReport, ScenarioSpec};

/// Simulated time units per sample of `--metrics-json`: 1024 distance
/// units.
const DEFAULT_METRICS_WINDOW: u64 = 1 << 20;

/// The telemetry flags: `--trace-json PATH`, `--trace-sample N` and
/// `--metrics-json PATH`. Asking for a file implies collecting it:
/// `--trace-json` alone traces every locate, and `--metrics-json` samples
/// every [`DEFAULT_METRICS_WINDOW`] units. A trace sampled with no file
/// to write it to is refused.
#[derive(Debug, Clone, Default)]
struct TelemetryFlags {
    trace_json: Option<String>,
    metrics_json: Option<String>,
    trace_sample: u64,
}

impl TelemetryFlags {
    /// Take `flag` if it is one of the three, reading its value through
    /// `val`; `Err` names an unknown flag or a malformed or zero count.
    fn parse(&mut self, flag: &str, val: impl FnOnce(&str) -> String) -> Result<(), String> {
        match flag {
            "--trace-json" => self.trace_json = Some(val(flag)),
            "--trace-sample" => {
                let v = val(flag);
                self.trace_sample = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("{flag}: '{v}' is not a count ≥ 1")),
                };
            }
            "--metrics-json" => self.metrics_json = Some(val(flag)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
        Ok(())
    }

    /// `Err` when the flags collect something no file receives.
    fn check(&self) -> Result<(), String> {
        if self.trace_sample > 0 && self.trace_json.is_none() {
            return Err("--trace-sample needs --trace-json".into());
        }
        Ok(())
    }

    /// Turn on the collection the flags ask for in `spec`.
    fn apply(&self, spec: ScenarioSpec) -> ScenarioSpec {
        let mut spec = spec;
        if self.trace_json.is_some() {
            spec = spec.trace_sample(self.trace_sample.max(1));
        }
        if self.metrics_json.is_some() {
            spec = spec.metrics_window(DEFAULT_METRICS_WINDOW);
        }
        spec
    }
}

struct Args {
    preset: String,
    nodes: usize,
    ops: u64,
    seed: u64,
    json: Option<String>,
    tel: TelemetryFlags,
    quiet: bool,
}

/// Every name `--preset` takes besides `all`: the series, then the
/// size-parameterised families.
fn preset_names() -> impl Iterator<Item = &'static str> {
    presets::PRESET_NAMES.iter().chain(presets::FAMILY_NAMES).copied()
}

fn usage() -> ! {
    eprintln!(
        "usage: scenarios --preset <name|all> [--nodes N] [--ops N] [--seed S]\n\
         \x20                [--json PATH] [--trace-json PATH] [--trace-sample N]\n\
         \x20                [--metrics-json PATH] [--quiet]\n\
         \x20      scenarios --list\n\
         presets: {}\n\
         --trace-sample N traces every Nth locate into --trace-json (default 1);\n\
         --metrics-json samples every {DEFAULT_METRICS_WINDOW} simulated time units",
        preset_names().collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2)
}

/// One JSON artifact per run: the single document, or an array of them
/// for `--preset all`. The array ends in a newline when its documents
/// do (the telemetry files; reports have none).
fn join_artifacts(parts: &[String]) -> String {
    if let [one] = parts {
        return one.clone();
    }
    let mut w = JsonWriter::new();
    w.open_arr();
    for p in parts {
        w.raw(p.trim_end());
    }
    w.close_arr();
    if parts.iter().any(|p| p.ends_with('\n')) {
        w.out.push('\n');
    }
    w.out
}

fn parse_args() -> Args {
    let mut args = Args {
        preset: String::new(),
        nodes: 64,
        ops: 500,
        seed: 42,
        json: None,
        tel: TelemetryFlags::default(),
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--preset" => args.preset = val("--preset"),
            "--nodes" => args.nodes = val("--nodes").parse().unwrap_or_else(|_| usage()),
            "--ops" => args.ops = val("--ops").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--json" => args.json = Some(val("--json")),
            "--quiet" => args.quiet = true,
            "--list" => {
                for name in preset_names() {
                    println!("{name}");
                }
                std::process::exit(0)
            }
            flag => {
                if let Err(e) = args.tel.parse(flag, val) {
                    eprintln!("{e}");
                    usage()
                }
            }
        }
    }
    if let Err(e) = args.tel.check() {
        eprintln!("{e}");
        usage()
    }
    if args.preset.is_empty() {
        usage()
    }
    args
}

fn summarize(report: &ScenarioReport) {
    header(&[
        "scenario", "phase", "nodes", "issued", "ok", "lost", "lat_p50", "lat_p99", "hops_p50",
        "hops_p99", "dropped", "cut_drop",
    ]);
    for p in &report.phases {
        row(&[
            report.scenario.clone(),
            p.name.clone(),
            format!("{}→{}", p.nodes_start, p.nodes_end),
            p.ops.issued.to_string(),
            p.ops.found_live.to_string(),
            p.ops.lost.to_string(),
            f2(p.latency.p50),
            f2(p.latency.p99),
            f2(p.hops.p50),
            f2(p.hops.p99),
            p.dropped.to_string(),
            p.partition_dropped.to_string(),
        ]);
    }
}

fn main() {
    let args = parse_args();
    let names: Vec<&str> =
        if args.preset == "all" { presets::PRESET_NAMES.to_vec() } else { vec![&args.preset] };

    let mut reports = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    for name in names {
        let spec =
            sweep_preset(name, args.nodes, args.ops, args.seed, None, None).unwrap_or_else(|e| {
                eprintln!("{e}");
                usage()
            });
        match runner::run_instrumented(&args.tel.apply(spec)) {
            Ok((r, _, _, tel)) => {
                if !args.quiet {
                    summarize(&r);
                    println!();
                }
                reports.push(r);
                traces.extend(tel.trace_json());
                metrics.extend(tel.metrics_json());
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(1)
            }
        }
    }

    let json = join_artifacts(&reports.iter().map(ScenarioReport::to_json).collect::<Vec<_>>());
    match &args.json {
        Some(path) => std::fs::write(path, &json).expect("write json report"),
        None if args.quiet => println!("{json}"),
        None => {}
    }
    if let Some(path) = &args.tel.trace_json {
        std::fs::write(path, join_artifacts(&traces)).expect("write trace json");
    }
    if let Some(path) = &args.tel.metrics_json {
        std::fs::write(path, join_artifacts(&metrics)).expect("write metrics json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_flags_parse_and_a_file_implies_collecting_it() {
        let mut tel = TelemetryFlags::default();
        for flag in ["--nodes", "--trace-cap", "--metrics-window", "--csv"] {
            let err = tel.parse(flag, |_| unreachable!("not a telemetry flag")).unwrap_err();
            assert_eq!(err, format!("unknown flag '{flag}'"));
        }
        assert!(tel.parse("--trace-sample", |_| "0".into()).is_err());
        assert!(tel.parse("--trace-sample", |_| "many".into()).is_err());
        let off = tel.apply(ScenarioSpec::new("x"));
        assert_eq!((off.trace_sample, off.metrics_window), (0, 0));

        // A sampled trace that no file receives is refused.
        assert_eq!(tel.parse("--trace-sample", |_| "8".into()), Ok(()));
        assert!(tel.check().is_err(), "--trace-sample without --trace-json");
        assert_eq!(tel.parse("--trace-json", |_| "t.json".into()), Ok(()));
        assert_eq!(tel.check(), Ok(()));
        assert_eq!(tel.apply(ScenarioSpec::new("x")).trace_sample, 8);

        // Each file alone turns on its own collection.
        let mut trace = TelemetryFlags::default();
        assert_eq!(trace.parse("--trace-json", |_| "t.json".into()), Ok(()));
        let on = trace.apply(ScenarioSpec::new("x"));
        assert_eq!((on.trace_sample, on.metrics_window), (1, 0));
        let mut metrics = TelemetryFlags::default();
        assert_eq!(metrics.parse("--metrics-json", |_| "m.json".into()), Ok(()));
        assert_eq!(metrics.check(), Ok(()));
        let on = metrics.apply(ScenarioSpec::new("x"));
        assert_eq!((on.trace_sample, on.metrics_window), (0, DEFAULT_METRICS_WINDOW));
    }
}

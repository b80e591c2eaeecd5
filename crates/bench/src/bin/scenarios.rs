//! **Scenario driver** — runs the named `tapestry-workload` presets and
//! emits deterministic JSON/CSV reports with p50/p90/p99/p999 locate
//! latency, hop counts, drop rates and invariant spot-checks.
//!
//! ```sh
//! scenarios --list
//! scenarios --preset steady-zipf --nodes 64 --ops 500
//! scenarios --preset churn-storm --nodes 64 --ops 500 --json churn.json --csv churn.csv
//! scenarios --preset all --json BENCH_scenarios.json   # the committed series
//! ```
//!
//! Identical arguments (including `--seed`) produce bit-identical
//! reports — `BENCH_scenarios.json` is regenerated with `--preset all`
//! and diffed across PRs.

use tapestry_bench::{f2, header, row};
use tapestry_trace::json::JsonWriter;
use tapestry_workload::{presets, runner, ScenarioReport, ScenarioSpec};

/// Default `--metrics-window` when `--metrics-json` is given without one:
/// 1024 distance units of simulated time per sample.
const DEFAULT_METRICS_WINDOW: u64 = 1 << 20;

struct Args {
    preset: String,
    nodes: usize,
    ops: u64,
    seed: u64,
    threads: usize,
    json: Option<String>,
    csv: Option<String>,
    trace_json: Option<String>,
    trace_sample: u64,
    trace_cap: usize,
    metrics_json: Option<String>,
    metrics_window: u64,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenarios --preset <name|all> [--nodes N] [--ops N] [--seed S] [--threads T]\n\
         \x20                [--json PATH] [--csv PATH]\n\
         \x20                [--trace-json PATH] [--trace-sample N] [--trace-cap N]\n\
         \x20                [--metrics-json PATH] [--metrics-window UNITS] [--quiet]\n\
         \x20      scenarios --list\n\
         presets: {}\n\
         --threads sets bootstrap and invariant-sweep workers; it only changes wall-clock time:\n\
         \x20  reports are byte-identical at every value\n\
         --trace-sample N traces every Nth locate (default 1 when --trace-json is given);\n\
         --metrics-window is simulated time units per sample (default {DEFAULT_METRICS_WINDOW})",
        presets::PRESET_NAMES.join(", ")
    );
    std::process::exit(2)
}

/// Apply the telemetry flags to a preset spec.
fn instrument(spec: ScenarioSpec, args: &Args) -> ScenarioSpec {
    let mut spec = spec;
    if args.trace_sample > 0 {
        spec = spec.trace_sample(args.trace_sample).trace_cap(args.trace_cap);
    }
    if args.metrics_window > 0 {
        spec = spec.metrics_window(args.metrics_window);
    }
    spec
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
        threads: 1,
        json: None,
        csv: None,
        trace_json: None,
        trace_sample: 0,
        trace_cap: 4096,
        metrics_json: None,
        metrics_window: 0,
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
            "--threads" => {
                args.threads = val("--threads").parse().unwrap_or_else(|_| usage());
                if args.threads == 0 {
                    usage()
                }
            }
            "--json" => args.json = Some(val("--json")),
            "--csv" => args.csv = Some(val("--csv")),
            "--trace-json" => args.trace_json = Some(val("--trace-json")),
            "--trace-sample" => {
                args.trace_sample = val("--trace-sample").parse().unwrap_or_else(|_| usage());
                if args.trace_sample == 0 {
                    usage()
                }
            }
            "--trace-cap" => {
                args.trace_cap = val("--trace-cap").parse().unwrap_or_else(|_| usage());
                if args.trace_cap == 0 {
                    usage()
                }
            }
            "--metrics-json" => args.metrics_json = Some(val("--metrics-json")),
            "--metrics-window" => {
                args.metrics_window = val("--metrics-window").parse().unwrap_or_else(|_| usage());
                if args.metrics_window == 0 {
                    usage()
                }
            }
            "--quiet" => args.quiet = true,
            "--list" => {
                for name in presets::PRESET_NAMES {
                    println!("{name}");
                }
                std::process::exit(0)
            }
            _ => usage(),
        }
    }
    if args.preset.is_empty() {
        usage()
    }
    // Asking for a telemetry file implies collecting it.
    if args.trace_json.is_some() && args.trace_sample == 0 {
        args.trace_sample = 1;
    }
    if args.metrics_json.is_some() && args.metrics_window == 0 {
        args.metrics_window = DEFAULT_METRICS_WINDOW;
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
    let names: Vec<&str> = if args.preset == "all" {
        presets::PRESET_NAMES.to_vec()
    } else {
        match presets::PRESET_NAMES.iter().find(|&&n| n == args.preset) {
            Some(&n) => vec![n],
            None => {
                eprintln!("unknown preset '{}'", args.preset);
                usage()
            }
        }
    };

    let mut reports = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    for name in names {
        let spec = instrument(
            presets::preset(name, args.nodes, args.ops, args.seed).expect("known preset"),
            &args,
        )
        .threads(args.threads);
        match runner::run_instrumented(&spec) {
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
    if let Some(path) = &args.csv {
        let mut csv = String::new();
        for (i, r) in reports.iter().enumerate() {
            let full = r.to_csv();
            // One shared header row for the whole file.
            csv.push_str(if i == 0 { &full } else { full.split_once('\n').unwrap().1 });
        }
        std::fs::write(path, csv).expect("write csv report");
    }
    if let Some(path) = &args.trace_json {
        std::fs::write(path, join_artifacts(&traces)).expect("write trace json");
    }
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, join_artifacts(&metrics)).expect("write metrics json");
    }
}

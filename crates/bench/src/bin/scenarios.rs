//! **Scenario driver** — runs one named `tapestry-workload` preset (any
//! name `sweep_preset` knows, with its default knobs) or the whole
//! `PRESET_NAMES` series, and emits deterministic JSON/CSV reports with
//! p50/p90/p99/p999 locate latency, hop counts, drop rates and invariant
//! spot-checks.
//!
//! ```sh
//! scenarios --list
//! scenarios --preset steady-zipf --nodes 64 --ops 500
//! scenarios --preset churn-storm --nodes 64 --ops 500 --json churn.json --csv churn.csv
//! scenarios --nodes 10000 --preset scale --ops 2000        # one torus scale point
//! scenarios --nodes 1000 --preset churn-scale --ops 1000   # one batched churn point
//! scenarios --preset all --json BENCH_scenarios.json   # the committed series
//! ```
//!
//! Identical arguments (including `--seed`) produce bit-identical
//! reports — `BENCH_scenarios.json` is regenerated with `--preset all`
//! and diffed across PRs. The scale trajectory over many sizes is a
//! sweep: `tapestry-sweep --spec sweeps/scale.spec`.

use tapestry_bench::{f2, header, row, TelemetryFlags, DEFAULT_METRICS_WINDOW};
use tapestry_trace::json::JsonWriter;
use tapestry_workload::{presets, runner, sweep_preset, ScenarioReport, SweepKnobs};

struct Args {
    preset: String,
    nodes: usize,
    ops: u64,
    seed: u64,
    json: Option<String>,
    csv: Option<String>,
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
         \x20                [--json PATH] [--csv PATH]\n\
         \x20                [--trace-json PATH] [--trace-sample N] [--trace-cap N]\n\
         \x20                [--metrics-json PATH] [--metrics-window UNITS] [--quiet]\n\
         \x20      scenarios --list\n\
         presets: {}\n\
         --trace-sample N traces every Nth locate (default 1 when --trace-json is given);\n\
         --metrics-window is simulated time units per sample (default {DEFAULT_METRICS_WINDOW})",
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
        csv: None,
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
            "--csv" => args.csv = Some(val("--csv")),
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
            sweep_preset(name, args.nodes, args.ops, args.seed, None, &SweepKnobs::default())
                .unwrap_or_else(|e| {
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
    if let Some(path) = &args.csv {
        let mut csv = String::new();
        for (i, r) in reports.iter().enumerate() {
            let full = r.to_csv();
            // One shared header row for the whole file.
            csv.push_str(if i == 0 { &full } else { full.split_once('\n').unwrap().1 });
        }
        std::fs::write(path, csv).expect("write csv report");
    }
    if let Some(path) = &args.tel.trace_json {
        std::fs::write(path, join_artifacts(&traces)).expect("write trace json");
    }
    if let Some(path) = &args.tel.metrics_json {
        std::fs::write(path, join_artifacts(&metrics)).expect("write metrics json");
    }
}

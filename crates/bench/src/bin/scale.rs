//! **Scale driver** — the 64→25k+ node benchmark trajectory.
//!
//! Runs the `scale` preset family (steady-zipf traffic on proportionally
//! larger spaces, constant node density) and emits one point per network
//! size and substrate: wall-clock and bootstrap seconds *per thread
//! count*, engine events and events/sec, peak routing-table size, and
//! p50/p99 locate latency and hops.
//!
//! ```sh
//! scale                                      # 1k/4k/10k/25k, torus, one bootstrap worker
//! scale --nodes 256 --threads 1,4            # one point, run at 1 and at 4 workers
//! scale --nodes 1000,10000 --space torus,transit-stub
//! scale --churn 1000,25000,100000            # churn-scale points
//! scale --exhaustive-checks                  # every-member Theorem 2 walks
//! # the committed trajectory:
//! scale --space torus,transit-stub --churn 1000,25000,100000 --json BENCH_scale.json
//! scale --nodes 1000 --sim-json a.json       # deterministic part only
//! ```
//!
//! A churn point is one run of the `churn-scale` preset (batched joins,
//! unannounced kills, probe rounds feeding the fact-driven repair
//! scheduler). Its `churn` columns report the measured mean
//! `membership.join.messages` per completed join and the mean repair
//! events per node per probe round — the O(churn)-not-O(n) figure. Up to
//! [`SOLO_BASELINE_CHURN_MAX`] nodes a second run of the same schedule
//! with solo joins (`churn-scale-seq`) adds the solo join cost beside the
//! batched one.
//!
//! `--threads` sets the workers of the static bootstrap and the
//! Property 1/2 sweeps (events are dispatched sequentially; default one
//! worker). Given several values, every point is run once per value and
//! the driver *fails* unless all thread counts produce byte-identical
//! reports — the determinism contract of that fan-out.
//!
//! The `--json` output contains wall-clock figures and is therefore a
//! *benchmark* artifact (machine-dependent); `--sim-json` writes the full
//! deterministic scenario reports, which CI diffs across same-seed runs
//! as a non-determinism gate.

use tapestry_bench::{f2, header, row};
use tapestry_trace::json::{f3, JsonWriter};
use tapestry_trace::metrics;
use tapestry_workload::presets::{churn_scale_preset, scale_preset, ScaleSpace, SCALE_SIZES};
use tapestry_workload::{runner, RunTiming, RunTotals, ScenarioReport, Telemetry};

/// Default `--metrics-window` when `--metrics-json` is given without one:
/// 1024 distance units of simulated time per sample.
const DEFAULT_METRICS_WINDOW: u64 = 1 << 20;

/// Largest churn point that also runs the solo-join baseline, a second
/// full churn run. Beyond it the point reports the batched run alone.
const SOLO_BASELINE_CHURN_MAX: usize = 50_000;

struct Args {
    nodes: Vec<usize>,
    ops: u64,
    seed: u64,
    spaces: Vec<ScaleSpace>,
    threads: Vec<usize>,
    churn: Vec<usize>,
    exhaustive_checks: bool,
    json: Option<String>,
    sim_json: Option<String>,
    trace_json: Option<String>,
    trace_sample: u64,
    trace_cap: usize,
    metrics_json: Option<String>,
    metrics_window: u64,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: scale [--nodes N[,N,...]] [--ops N] [--seed S]\n\
         \x20            [--space torus|grid|transit-stub[,...]] [--threads T[,T,...]]\n\
         \x20            [--churn N[,N,...]] [--exhaustive-checks]\n\
         \x20            [--json PATH] [--sim-json PATH]\n\
         \x20            [--trace-json PATH] [--trace-sample N] [--trace-cap N]\n\
         \x20            [--metrics-json PATH] [--metrics-window UNITS] [--quiet]\n\
         defaults: --nodes {} --ops 2000 --seed 42 --space torus --threads 1 --churn (none)\n\
         --trace-sample N traces every Nth locate (default 1 when --trace-json is given);\n\
         --metrics-window is simulated time units per sample (default {DEFAULT_METRICS_WINDOW});\n\
         telemetry rides the same byte-identity gate across --threads as the reports",
        SCALE_SIZES.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(",")
    );
    std::process::exit(2)
}

/// The telemetry flags, in the shape `run_across_threads` needs to apply
/// them to every spec it builds.
#[derive(Clone, Copy, Default)]
struct TelOpts {
    trace_sample: u64,
    trace_cap: usize,
    metrics_window: u64,
}

impl TelOpts {
    fn from_args(args: &Args) -> Self {
        TelOpts {
            trace_sample: args.trace_sample,
            trace_cap: args.trace_cap,
            metrics_window: args.metrics_window,
        }
    }

    fn apply(&self, spec: tapestry_workload::ScenarioSpec) -> tapestry_workload::ScenarioSpec {
        let mut spec = spec;
        if self.trace_sample > 0 {
            spec = spec.trace_sample(self.trace_sample).trace_cap(self.trace_cap);
        }
        if self.metrics_window > 0 {
            spec = spec.metrics_window(self.metrics_window);
        }
        spec
    }
}

/// The telemetry JSON strings of one run (None when the flag is off).
fn telemetry_strings(tel: &Telemetry) -> (Option<String>, Option<String>) {
    (tel.trace_json(), tel.metrics_json())
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: SCALE_SIZES.to_vec(),
        ops: 2000,
        seed: 42,
        spaces: vec![ScaleSpace::Torus],
        threads: vec![1],
        churn: Vec::new(),
        exhaustive_checks: false,
        json: None,
        sim_json: None,
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
            "--nodes" => {
                let v = val("--nodes");
                if v == "none" {
                    // Churn-only runs (e.g. the CI churn determinism job).
                    args.nodes = Vec::new();
                    continue;
                }
                args.nodes =
                    v.split(',').map(|s| s.trim().parse().unwrap_or_else(|_| usage())).collect();
                if args.nodes.is_empty() {
                    usage()
                }
            }
            "--ops" => args.ops = val("--ops").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--space" => {
                args.spaces = val("--space")
                    .split(',')
                    .map(|s| ScaleSpace::parse(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
                if args.spaces.is_empty() {
                    usage()
                }
            }
            "--threads" => {
                args.threads = val("--threads")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.threads.is_empty() || args.threads.contains(&0) {
                    usage()
                }
            }
            "--churn" => {
                args.churn = val("--churn")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--exhaustive-checks" => args.exhaustive_checks = true,
            "--json" => args.json = Some(val("--json")),
            "--sim-json" => args.sim_json = Some(val("--sim-json")),
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
            _ => usage(),
        }
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

/// One trajectory point: the deterministic report and engine totals
/// (identical across thread counts — verified), plus per-thread-count
/// wall-clock measurements.
struct Point {
    report: ScenarioReport,
    totals: RunTotals,
    threads: Vec<usize>,
    timings: Vec<RunTiming>,
    /// Churn points carry what their `churn` columns need beyond the
    /// report itself.
    churn: Option<Churn>,
    /// Telemetry artifacts when the flags are on — verified byte-identical
    /// across thread counts like the report itself.
    trace: Option<String>,
    metrics: Option<String>,
}

/// A churn point's inputs beside its own report: the probe rounds the
/// spec scripts (the repairs-per-node-round divisor) and, up to
/// [`SOLO_BASELINE_CHURN_MAX`], the solo-join baseline's report.
struct Churn {
    probe_rounds: usize,
    solo: Option<ScenarioReport>,
}

/// The measured columns of a churn point, all read off its reports.
struct ChurnCols {
    joins_ok: u64,
    /// Mean `membership.join.messages` per completed join under coalescing.
    join_msgs_mean: f64,
    waves: u64,
    mean_batch: f64,
    /// `(joins_ok, join_msgs_mean)` of the solo-join baseline.
    solo: Option<(u64, f64)>,
    repair_facts: u64,
    repair_events: u64,
    repair_promotions: u64,
    repair_events_per_node_round: f64,
}

impl ChurnCols {
    fn of(r: &ScenarioReport, c: &Churn) -> Self {
        let waves = r.counter_total(metrics::MULTICAST_BATCH_WAVES);
        let batch_joins = r.counter_total(metrics::MULTICAST_BATCH_JOINS);
        ChurnCols {
            joins_ok: r.joins_ok_total(),
            join_msgs_mean: join_msgs_mean(r),
            waves,
            mean_batch: if waves == 0 { 0.0 } else { batch_joins as f64 / waves as f64 },
            solo: c.solo.as_ref().map(|s| (s.joins_ok_total(), join_msgs_mean(s))),
            repair_facts: r.counter_total(metrics::REPAIR_FACTS),
            repair_events: r.counter_total(metrics::REPAIR_EVENTS),
            repair_promotions: r.counter_total(metrics::REPAIR_PROMOTIONS),
            repair_events_per_node_round: r.repairs_per_node_round(c.probe_rounds),
        }
    }
}

/// Mean `membership.join.messages` per completed join (0 when no join completed).
fn join_msgs_mean(r: &ScenarioReport) -> f64 {
    tapestry_membership::mean_messages_per_join(
        r.counter_total(metrics::JOIN_MESSAGES),
        r.joins_ok_total(),
    )
}

/// `"key":[v,…]` over already-formatted numbers.
fn num_array(w: &mut JsonWriter, key: &str, vals: impl Iterator<Item = String>) {
    w.key(key);
    w.open_arr();
    for v in vals {
        w.raw(&v);
    }
    w.close_arr();
}

/// `[a,b,…]` over serialized JSON documents, each with its trailing
/// newline trimmed.
fn json_array<S: AsRef<str>>(docs: impl IntoIterator<Item = S>) -> String {
    let mut w = JsonWriter::new();
    w.open_arr();
    for d in docs {
        w.raw(d.as_ref().trim_end());
    }
    w.close_arr();
    w.out
}

/// One point of the benchmark artifact, in the workspace's JSON
/// conventions minus the machine-independence guarantee — wall clock is
/// the point here. Per-thread-count measurements are parallel arrays
/// under `threads` / `wall_secs` / `bootstrap_secs` / `events_per_sec`
/// (whole events per second: CI reads `[0]["events_per_sec"][0]`); churn
/// points append a deterministic, flat `churn` object with the join-cost
/// (batched, and solo up to [`SOLO_BASELINE_CHURN_MAX`]) and repair
/// columns.
fn point_json(p: &Point, ops: u64, seed: u64) -> String {
    let r = &p.report;
    let mut w = JsonWriter::new();
    w.open_obj();
    w.u64_field("nodes", r.initial_nodes);
    w.str_field("space", &r.space);
    w.u64_field("seed", seed);
    w.u64_field("ops", ops);
    num_array(&mut w, "threads", p.threads.iter().map(|t| t.to_string()));
    num_array(&mut w, "wall_secs", p.timings.iter().map(|t| f3(t.bootstrap_secs + t.drive_secs)));
    num_array(&mut w, "bootstrap_secs", p.timings.iter().map(|t| f3(t.bootstrap_secs)));
    let per_sec = p.timings.iter().map(|t| format!("{:.0}", t.events_per_sec(p.totals.events)));
    num_array(&mut w, "events_per_sec", per_sec);
    w.u64_field("events", p.totals.events);
    w.u64_field("messages", p.totals.messages);
    w.u64_field("timers", p.totals.timers);
    w.u64_field("peak_table_entries", p.totals.peak_table_entries as u64);
    w.u64_field("issued", r.total_ops.issued);
    w.u64_field("found_live", r.total_ops.found_live);
    w.u64_field("lost", r.total_ops.lost);
    w.f64_field("latency_p50", r.total_latency.p50);
    w.f64_field("latency_p99", r.total_latency.p99);
    w.f64_field("hops_p50", r.total_hops.p50);
    w.f64_field("hops_p99", r.total_hops.p99);
    if let Some(c) = &p.churn {
        let c = ChurnCols::of(r, c);
        w.key("churn");
        w.open_obj();
        w.u64_field("joins_ok", c.joins_ok);
        w.f64_field("join_msgs_mean", c.join_msgs_mean);
        w.u64_field("waves", c.waves);
        w.f64_field("mean_batch", c.mean_batch);
        if let Some((joins_ok, msgs_mean)) = c.solo {
            w.u64_field("joins_ok_seq", joins_ok);
            w.f64_field("join_msgs_mean_seq", msgs_mean);
        }
        w.u64_field("repair_facts", c.repair_facts);
        w.u64_field("repair_events", c.repair_events);
        w.u64_field("repair_promotions", c.repair_promotions);
        w.f64_field("repair_events_per_node_round", c.repair_events_per_node_round);
        w.close_obj();
    }
    w.close_obj();
    w.out
}

/// Run one spec per `--threads` value and enforce the determinism gate:
/// byte-identical reports and identical engine totals at every thread
/// count (the contract CI's `determinism-matrix` job enforces on the
/// scenario presets, enforced here on every scale point, every run).
fn run_across_threads(
    label: &str,
    threads: &[usize],
    tel: TelOpts,
    build: impl Fn(usize) -> tapestry_workload::ScenarioSpec,
) -> Point {
    let mut point: Option<Point> = None;
    for &t in threads {
        let (report, totals, timing, telemetry) =
            match runner::run_instrumented(&tel.apply(build(t))) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{label}: {e}");
                    std::process::exit(1)
                }
            };
        let (trace, metrics) = telemetry_strings(&telemetry);
        match &mut point {
            None => {
                point = Some(Point {
                    report,
                    totals,
                    threads: vec![t],
                    timings: vec![timing],
                    churn: None,
                    trace,
                    metrics,
                })
            }
            Some(p) => {
                let (a, b) = (p.report.to_json(), report.to_json());
                if a != b || p.totals != totals {
                    eprintln!(
                        "{label}: report diverged between --threads {} and {t}",
                        p.threads[0]
                    );
                    if let Some(d) = tapestry_bench::diff_summary(&a, &b) {
                        eprintln!("{d}");
                    } else {
                        eprintln!(
                            "reports match; engine totals differ: {:?} vs {totals:?}",
                            p.totals
                        );
                    }
                    std::process::exit(1)
                }
                for (what, x, y) in [("trace", &p.trace, &trace), ("metrics", &p.metrics, &metrics)]
                {
                    if x != y {
                        eprintln!(
                            "{label}: {what} JSON diverged between --threads {} and {t}",
                            p.threads[0]
                        );
                        if let (Some(x), Some(y)) = (x.as_deref(), y.as_deref()) {
                            if let Some(d) = tapestry_bench::diff_summary(x, y) {
                                eprintln!("{d}");
                            }
                        }
                        std::process::exit(1)
                    }
                }
                p.threads.push(t);
                p.timings.push(timing);
            }
        }
    }
    point.expect("at least one thread count")
}

/// One churn trajectory point: the `churn-scale` run goes through the
/// thread-count determinism gate at every `--threads` value. Up to
/// [`SOLO_BASELINE_CHURN_MAX`] the **solo-join baseline** rides along —
/// a single run by construction (its only job is the batched-vs-solo
/// join-cost column), hoisted here so it is never re-run per thread
/// count.
fn churn_point(args: &Args, n: usize) -> Point {
    let finish = |spec: tapestry_workload::ScenarioSpec| {
        if args.exhaustive_checks {
            spec.exhaustive_checks()
        } else {
            spec
        }
    };
    let tel = TelOpts::from_args(args);
    let build =
        |t: usize, batched: bool| finish(churn_scale_preset(n, args.ops, args.seed, t, batched));
    let mut point =
        run_across_threads(&format!("churn-scale({n})"), &args.threads, tel, |t| build(t, true));
    let solo = (n <= SOLO_BASELINE_CHURN_MAX).then(|| {
        runner::run(&build(args.threads[0], false)).unwrap_or_else(|e| {
            eprintln!("churn-scale-seq({n}): {e}");
            std::process::exit(1)
        })
    });
    point.churn = Some(Churn { probe_rounds: build(1, true).probe_rounds(), solo });
    point
}

fn main() {
    let args = parse_args();
    let mut points = Vec::new();
    let finish = |spec: tapestry_workload::ScenarioSpec| {
        if args.exhaustive_checks {
            spec.exhaustive_checks()
        } else {
            spec
        }
    };
    let tel = TelOpts::from_args(&args);
    for &space in &args.spaces {
        for &n in &args.nodes {
            points.push(run_across_threads(
                &format!("scale({n}, {space:?})"),
                &args.threads,
                tel,
                |t| finish(scale_preset(n, args.ops, args.seed, space, t)),
            ));
        }
    }
    for &n in &args.churn {
        points.push(churn_point(&args, n));
    }

    if !args.quiet {
        header(&[
            "nodes", "space", "thr", "wall_s", "boot_s", "events/s", "peak_tbl", "issued", "ok",
            "lat_p99", "hops_p99",
        ]);
        for p in &points {
            for (i, &t) in p.threads.iter().enumerate() {
                let tm = &p.timings[i];
                row(&[
                    p.report.initial_nodes.to_string(),
                    p.report.space.clone(),
                    t.to_string(),
                    f2(tm.bootstrap_secs + tm.drive_secs),
                    f2(tm.bootstrap_secs),
                    format!("{:.0}", tm.events_per_sec(p.totals.events)),
                    p.totals.peak_table_entries.to_string(),
                    p.report.total_ops.issued.to_string(),
                    p.report.total_ops.found_live.to_string(),
                    f2(p.report.total_latency.p99),
                    f2(p.report.total_hops.p99),
                ]);
            }
        }
        for p in &points {
            let Some(c) = &p.churn else { continue };
            let c = ChurnCols::of(&p.report, c);
            let solo = c.solo.map_or(String::new(), |(joins, mean)| {
                format!(" | solo {joins} joins, {mean:.1} msgs/join mean")
            });
            println!(
                "churn-scale {}: batched {} joins, {:.1} msgs/join mean \
                 ({} waves, mean batch {:.1}){solo} | {} facts -> {} repairs \
                 ({} promotions), {:.2} repairs/node/round",
                p.report.initial_nodes,
                c.joins_ok,
                c.join_msgs_mean,
                c.waves,
                c.mean_batch,
                c.repair_facts,
                c.repair_events,
                c.repair_promotions,
                c.repair_events_per_node_round,
            );
        }
    }

    let json = json_array(points.iter().map(|p| point_json(p, args.ops, args.seed)));
    match &args.json {
        Some(path) => std::fs::write(path, &json).expect("write scale json"),
        None if args.quiet => println!("{json}"),
        None => {}
    }
    if let Some(path) = &args.sim_json {
        // The machine-independent half: full deterministic reports (for
        // churn points, the solo sibling too) for same-seed determinism
        // gating in CI.
        let mut reports: Vec<String> = Vec::new();
        for p in &points {
            reports.push(p.report.to_json());
            if let Some(solo) = p.churn.as_ref().and_then(|c| c.solo.as_ref()) {
                reports.push(solo.to_json());
            }
        }
        std::fs::write(path, json_array(&reports)).expect("write deterministic sim json");
    }
    // Telemetry artifacts: one array entry per trajectory point (each
    // entry already verified byte-identical across thread counts).
    if let Some(path) = &args.trace_json {
        let trace = json_array(points.iter().filter_map(|p| p.trace.as_deref())) + "\n";
        std::fs::write(path, trace).expect("write trace json");
    }
    if let Some(path) = &args.metrics_json {
        let metrics = json_array(points.iter().filter_map(|p| p.metrics.as_deref())) + "\n";
        std::fs::write(path, metrics).expect("write metrics json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_trace::json::Json;
    use tapestry_trace::Counter;
    use tapestry_workload::report::ChurnOutcome;
    use tapestry_workload::{HistSummary, OpStats, PhaseReport};

    /// One phase that completed `joins` joins and moved `counters`.
    fn phases(joins: u64, counters: &[(Counter, u64)]) -> Vec<PhaseReport> {
        vec![PhaseReport {
            churn: ChurnOutcome { joins_ok: joins, ..Default::default() },
            counters: counters.iter().map(|&(c, v)| (c.name().to_string(), v)).collect(),
            ..Default::default()
        }]
    }

    fn point(churn: Option<Churn>) -> Point {
        let counters = [
            (metrics::JOIN_MESSAGES, 1234),
            (metrics::MULTICAST_BATCH_WAVES, 3),
            (metrics::MULTICAST_BATCH_JOINS, 10),
            (metrics::REPAIR_FACTS, 40),
            (metrics::REPAIR_EVENTS, 25),
            (metrics::REPAIR_PROMOTIONS, 5),
        ];
        let report = ScenarioReport {
            space: "torus(1000)".into(),
            initial_nodes: 64,
            phases: phases(10, &counters),
            total_ops: OpStats { issued: 50, found_live: 48, lost: 2, ..Default::default() },
            total_latency: HistSummary { p50: 1.5, p99: 2.0625, ..Default::default() },
            total_hops: HistSummary { p50: 2.0, p99: 4.0, ..Default::default() },
            ..Default::default()
        };
        Point {
            report,
            totals: RunTotals {
                events: 1000,
                messages: 700,
                timers: 30,
                peak_table_entries: 41,
                final_nodes: 64,
            },
            threads: vec![1, 4],
            timings: vec![
                RunTiming { bootstrap_secs: 0.5, drive_secs: 1.25 },
                RunTiming { bootstrap_secs: 0.1234, drive_secs: 0.3 },
            ],
            churn,
            trace: None,
            metrics: None,
        }
    }

    #[test]
    fn point_json_bytes_are_pinned() {
        let head = concat!(
            r#"{"nodes":64,"space":"torus(1000)","seed":42,"ops":500,"threads":[1,4],"#,
            r#""wall_secs":[1.750,0.423],"bootstrap_secs":[0.500,0.123],"#,
            r#""events_per_sec":[800,3333],"events":1000,"messages":700,"timers":30,"#,
            r#""peak_table_entries":41,"issued":50,"found_live":48,"lost":2,"#,
            r#""latency_p50":1.500,"latency_p99":2.062,"hops_p50":2.000,"hops_p99":4.000"#,
        );
        let joins = r#""joins_ok":10,"join_msgs_mean":123.400,"waves":3,"mean_batch":3.333,"#;
        let solo = r#""joins_ok_seq":8,"join_msgs_mean_seq":99.500,"#;
        let repairs = concat!(
            r#""repair_facts":40,"repair_events":25,"repair_promotions":5,"#,
            r#""repair_events_per_node_round":0.195"#,
        );
        assert_eq!(point_json(&point(None), 500, 42), format!("{head}}}"));
        let batched_only = point(Some(Churn { probe_rounds: 2, solo: None }));
        assert_eq!(
            point_json(&batched_only, 500, 42),
            format!(r#"{head},"churn":{{{joins}{repairs}}}}}"#)
        );
        let solo_report = ScenarioReport {
            phases: phases(8, &[(metrics::JOIN_MESSAGES, 796)]),
            ..Default::default()
        };
        let both = point(Some(Churn { probe_rounds: 2, solo: Some(solo_report) }));
        let out = point_json(&both, 500, 42);
        assert_eq!(out, format!(r#"{head},"churn":{{{joins}{solo}{repairs}}}}}"#));
        assert!(Json::parse(&out).is_ok());
    }
}

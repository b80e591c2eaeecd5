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
//! scale --churn 1000,25000,100000            # churn-scale points (both
//!                                            #   maintenance modes side by side)
//! scale --exhaustive-checks                  # every-member Theorem 2 walks
//! # the committed trajectory:
//! scale --space torus,transit-stub --churn 1000,25000,100000 --json BENCH_scale.json
//! scale --nodes 1000 --sim-json a.json       # deterministic part only
//! ```
//!
//! Churn points run the `churn-scale` preset in **both maintenance
//! modes**: the classic global-rounds schedule (batched joins plus the
//! solo-join baseline, reporting measured mean `membership.join.messages` per
//! completed join side by side) and the incremental fact-driven repair
//! scheduler (`MaintenanceMode::Incremental`), whose mean repair events
//! per node per probe round is the O(churn)-not-O(n) figure the
//! maintenance item asks for. Past [`GLOBAL_ROUNDS_CHURN_MAX`] nodes only the
//! incremental mode runs — a global repair round there is exactly the
//! O(n)-per-failure cost the scheduler exists to avoid.
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
use tapestry_core::MaintenanceMode;
use tapestry_trace::json::{f3, JsonWriter};
use tapestry_trace::metrics;
use tapestry_workload::presets::{churn_scale_preset, scale_preset, ScaleSpace, SCALE_SIZES};
use tapestry_workload::{runner, RunTiming, RunTotals, ScenarioReport, Telemetry};

/// Default `--metrics-window` when `--metrics-json` is given without one:
/// 1024 distance units of simulated time per sample.
const DEFAULT_METRICS_WINDOW: u64 = 1 << 20;

/// Largest churn point that still runs the global-rounds mode (and its
/// solo-join baseline). Beyond this the point is incremental-only.
const GLOBAL_ROUNDS_CHURN_MAX: usize = 50_000;

/// Probe rounds a churn-scale run performs (`ProbeAt` in the churn and
/// settle phases) — the denominator of the repairs-per-node-per-round
/// column.
const CHURN_PROBE_ROUNDS: f64 = 2.0;

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
    /// Churn points carry measured join-cost columns (batched and solo).
    churn: Option<ChurnCols>,
    /// Telemetry artifacts when the flags are on — verified byte-identical
    /// across thread counts like the report itself.
    trace: Option<String>,
    metrics: Option<String>,
}

/// Churn-point measurements: the global-rounds columns (absent past
/// [`GLOBAL_ROUNDS_CHURN_MAX`]) and the incremental-mode columns.
struct ChurnCols {
    global: Option<GlobalChurnCols>,
    incr: IncrCols,
}

/// Measured join cost of one global-rounds churn run, batched vs the
/// solo baseline.
struct GlobalChurnCols {
    joins_ok: u64,
    /// Mean `membership.join.messages` per completed join under coalescing.
    join_msgs_mean: f64,
    waves: u64,
    mean_batch: f64,
    seq_joins_ok: u64,
    /// The same schedule through the classic solo path.
    seq_join_msgs_mean: f64,
    /// The solo sibling's full report (for `--sim-json`).
    seq_report: ScenarioReport,
}

/// Measured incremental-maintenance columns of one churn point.
struct IncrCols {
    joins_ok: u64,
    repair_facts: u64,
    repair_events: u64,
    repair_promotions: u64,
    /// Mean targeted repairs released per node per probe round — the
    /// figure that must stay flat as n grows for maintenance cost to be
    /// O(churn rate) instead of O(n).
    repair_events_per_node_round: f64,
    /// Per-`--threads`-value wall seconds of the incremental run
    /// (parallel to the point's `threads` array).
    wall_secs: Vec<f64>,
    /// The incremental run's full report (for `--sim-json`).
    report: ScenarioReport,
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
/// points append a deterministic `churn` object with the batched/solo
/// join-cost columns.
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
        w.key("churn");
        w.open_obj();
        if let Some(g) = &c.global {
            w.u64_field("joins_ok", g.joins_ok);
            w.f64_field("join_msgs_mean", g.join_msgs_mean);
            w.u64_field("waves", g.waves);
            w.f64_field("mean_batch", g.mean_batch);
            w.u64_field("joins_ok_seq", g.seq_joins_ok);
            w.f64_field("join_msgs_mean_seq", g.seq_join_msgs_mean);
        }
        w.key("incr");
        w.open_obj();
        w.u64_field("joins_ok", c.incr.joins_ok);
        w.u64_field("repair_facts", c.incr.repair_facts);
        w.u64_field("repair_events", c.incr.repair_events);
        w.u64_field("repair_promotions", c.incr.repair_promotions);
        w.f64_field("repair_events_per_node_round", c.incr.repair_events_per_node_round);
        num_array(&mut w, "wall_secs", c.incr.wall_secs.iter().map(|&s| f3(s)));
        w.close_obj();
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

/// One churn trajectory point. The incremental-maintenance run goes
/// through the thread-count determinism gate at every `--threads` value;
/// up to [`GLOBAL_ROUNDS_CHURN_MAX`] the classic global-rounds run rides
/// alongside for the mode comparison, plus the **solo-join baseline** —
/// which is a single sequential-path run by construction (its only job
/// is the batched-vs-solo join-cost column), hoisted here so it can
/// never be re-run per thread count.
fn churn_point(args: &Args, n: usize) -> Point {
    let finish = |spec: tapestry_workload::ScenarioSpec| {
        if args.exhaustive_checks {
            spec.exhaustive_checks()
        } else {
            spec
        }
    };
    let tel = TelOpts::from_args(args);
    let incr_point =
        run_across_threads(&format!("churn-scale-incr({n})"), &args.threads, tel, |t| {
            finish(churn_scale_preset(
                n,
                args.ops,
                args.seed,
                t,
                true,
                MaintenanceMode::Incremental,
            ))
        });
    let nodes = incr_point.report.initial_nodes as f64;
    let repair_events = incr_point.report.counter_total(metrics::REPAIR_EVENTS);
    let incr = IncrCols {
        joins_ok: incr_point.report.joins_ok_total(),
        repair_facts: incr_point.report.counter_total(metrics::REPAIR_FACTS),
        repair_events,
        repair_promotions: incr_point.report.counter_total(metrics::REPAIR_PROMOTIONS),
        repair_events_per_node_round: repair_events as f64 / nodes / CHURN_PROBE_ROUNDS,
        wall_secs: incr_point.timings.iter().map(|t| t.bootstrap_secs + t.drive_secs).collect(),
        report: incr_point.report.clone(),
    };
    if n > GLOBAL_ROUNDS_CHURN_MAX {
        let mut point = incr_point;
        point.churn = Some(ChurnCols { global: None, incr });
        return point;
    }
    let mut point = run_across_threads(&format!("churn-scale({n})"), &args.threads, tel, |t| {
        finish(churn_scale_preset(n, args.ops, args.seed, t, true, MaintenanceMode::GlobalRounds))
    });
    // The solo baseline: one run, outside the per-thread loop.
    let seq_spec = finish(churn_scale_preset(
        n,
        args.ops,
        args.seed,
        args.threads[0],
        false,
        MaintenanceMode::GlobalRounds,
    ));
    let seq_report = match runner::run(&seq_spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("churn-scale-seq({n}): {e}");
            std::process::exit(1)
        }
    };
    let waves = point.report.counter_total(metrics::MULTICAST_BATCH_WAVES);
    let batch_joins = point.report.counter_total(metrics::MULTICAST_BATCH_JOINS);
    point.churn = Some(ChurnCols {
        global: Some(GlobalChurnCols {
            joins_ok: point.report.joins_ok_total(),
            join_msgs_mean: join_msgs_mean(&point.report),
            waves,
            mean_batch: if waves == 0 { 0.0 } else { batch_joins as f64 / waves as f64 },
            seq_joins_ok: seq_report.joins_ok_total(),
            seq_join_msgs_mean: join_msgs_mean(&seq_report),
            seq_report,
        }),
        incr,
    });
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
            if let Some(c) = &p.churn {
                if let Some(g) = &c.global {
                    println!(
                        "churn-scale {}: batched {} joins, {:.1} msgs/join mean \
                         ({} waves, mean batch {:.1}) | solo {} joins, {:.1} msgs/join mean",
                        p.report.initial_nodes,
                        g.joins_ok,
                        g.join_msgs_mean,
                        g.waves,
                        g.mean_batch,
                        g.seq_joins_ok,
                        g.seq_join_msgs_mean,
                    );
                }
                println!(
                    "churn-scale-incr {}: {} joins | {} facts -> {} repairs \
                     ({} promotions), {:.2} repairs/node/round | wall [{}] s",
                    c.incr.report.initial_nodes,
                    c.incr.joins_ok,
                    c.incr.repair_facts,
                    c.incr.repair_events,
                    c.incr.repair_promotions,
                    c.incr.repair_events_per_node_round,
                    c.incr.wall_secs.iter().map(|&s| f3(s)).collect::<Vec<_>>().join(","),
                );
            }
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
            if let Some(c) = &p.churn {
                if let Some(g) = &c.global {
                    reports.push(g.seq_report.to_json());
                    // The incremental report is distinct from the point's
                    // own (global-rounds) report only when both ran.
                    reports.push(c.incr.report.to_json());
                }
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
    use tapestry_workload::{HistSummary, OpStats};

    fn point(churn: Option<ChurnCols>) -> Point {
        let report = ScenarioReport {
            space: "torus(1000)".into(),
            initial_nodes: 64,
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

    fn incr() -> IncrCols {
        IncrCols {
            joins_ok: 9,
            repair_facts: 40,
            repair_events: 25,
            repair_promotions: 5,
            repair_events_per_node_round: 0.1953125,
            wall_secs: vec![2.0, 1.0005],
            report: ScenarioReport::default(),
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
        let incr_json = concat!(
            r#""incr":{"joins_ok":9,"repair_facts":40,"repair_events":25,"#,
            r#""repair_promotions":5,"repair_events_per_node_round":0.195,"#,
            r#""wall_secs":[2.000,1.000]}"#,
        );
        assert_eq!(point_json(&point(None), 500, 42), format!("{head}}}"));
        let incr_only = point(Some(ChurnCols { global: None, incr: incr() }));
        assert_eq!(point_json(&incr_only, 500, 42), format!(r#"{head},"churn":{{{incr_json}}}}}"#));
        let global = GlobalChurnCols {
            joins_ok: 10,
            join_msgs_mean: 123.4567,
            waves: 3,
            mean_batch: 10.0 / 3.0,
            seq_joins_ok: 8,
            seq_join_msgs_mean: 99.5,
            seq_report: ScenarioReport::default(),
        };
        let both = point(Some(ChurnCols { global: Some(global), incr: incr() }));
        let global_json = concat!(
            r#""joins_ok":10,"join_msgs_mean":123.457,"waves":3,"mean_batch":3.333,"#,
            r#""joins_ok_seq":8,"join_msgs_mean_seq":99.500,"#,
        );
        let out = point_json(&both, 500, 42);
        assert_eq!(out, format!(r#"{head},"churn":{{{global_json}{incr_json}}}}}"#));
        assert!(Json::parse(&out).is_ok());
    }
}

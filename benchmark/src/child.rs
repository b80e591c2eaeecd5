//! What runs inside one child process: a discarded warm-up run of the
//! same spec, then either the timed untraced repetitions or one traced
//! pass, printed as [`Sample`]s.
//!
//! One fresh process per (workload, set), strictly one at a time, so
//! `VmHWM` belongs to that workload alone. The repetitions share the
//! process because fresh memory is the noisiest thing on this box: the
//! same 25 000-node bootstrap took 2.9–4.5 s in a new process and
//! 2.7–2.9 s on a heap an earlier run had already faulted in.
//! `peak_rss_mb` is read once, after the first timed repetition, so it is
//! always the peak of exactly two runs however many repetitions
//! `--seconds` adds.

use crate::api::{metrics, run_untraced, ScenarioSpec};
use crate::metrics::MIN_REPS;
use crate::spans::Name;
use crate::stats::fnv1a64;
use crate::traced::{self, TracedRun};
use crate::workloads::{build, Size, Workload};
use crate::{layers, probes};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The values one child reports: metric values by name, `raw.*` inputs
/// of the output checks, and the report digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Values by name.
    pub values: BTreeMap<String, f64>,
    /// FNV-1a digest of `ScenarioReport::to_json()`, hex (untraced only).
    pub digest: String,
}

/// Prefix of every protocol line a child prints.
const LINE_TAG: &str = "@sample";

impl Sample {
    /// Set one value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Read one value; a missing name is a bug in this package.
    pub fn get(&self, name: &str) -> f64 {
        *self.values.get(name).unwrap_or_else(|| panic!("sample has no value named {name}"))
    }

    /// The child's stdout for this sample: one tagged line per value,
    /// closed by an `end` line. `{:?}` prints the shortest decimal that
    /// reads back to the same f64.
    pub fn to_lines(&self) -> String {
        let mut s = format!("{LINE_TAG} digest {}\n", self.digest);
        for (k, v) in &self.values {
            s.push_str(&format!("{LINE_TAG} {k} {v:?}\n"));
        }
        s.push_str(&format!("{LINE_TAG} end -\n"));
        s
    }

    /// Read the samples back from a child's stdout, in order.
    pub fn parse_all(stdout: &str) -> Result<Vec<Sample>, String> {
        let mut done = Vec::new();
        let mut sample = Sample::default();
        for line in stdout.lines() {
            let mut parts = line.split(' ');
            if parts.next() != Some(LINE_TAG) {
                continue;
            }
            let (Some(key), Some(val)) = (parts.next(), parts.next()) else {
                return Err(format!("malformed sample line: {line}"));
            };
            match key {
                "end" => done.push(std::mem::take(&mut sample)),
                "digest" => sample.digest = val.to_string(),
                _ => {
                    let v = val.parse().map_err(|e| format!("bad value in '{line}': {e}"))?;
                    sample.set(key, v);
                }
            }
        }
        if done.is_empty() || sample != Sample::default() {
            return Err("child printed no complete sample".into());
        }
        Ok(done)
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}

/// The timed repetitions through the runner entry point, tracing off:
/// at least [`MIN_REPS`], and more until `seconds` have passed.
pub fn untraced(
    w: &Workload,
    seed: u64,
    size: Size,
    seconds: Option<u64>,
) -> Result<Vec<Sample>, String> {
    let spec = build(w.name, seed, size).ok_or("unknown workload")?;
    // Discarded: faults in the code pages and the heap the timed
    // repetitions reuse.
    run_untraced(&spec)?;
    let budget = seconds.map(Duration::from_secs);
    let started = Instant::now();
    // One peak for the whole set, read at a fixed point — after the
    // warm-up and one timed repetition — so it does not depend on how
    // many repetitions `seconds` and the host's speed allow. The
    // high-water mark only ever rises: reading it per repetition would
    // report the order they ran in.
    let mut reps = vec![untraced_rep(&spec)?];
    let rss = peak_rss_mb()?;
    while reps.len() < MIN_REPS || budget.is_some_and(|b| started.elapsed() < b) {
        reps.push(untraced_rep(&spec)?);
    }
    for rep in &mut reps {
        rep.set("peak_rss_mb", rss);
    }
    Ok(reps)
}

/// One timed run.
fn untraced_rep(spec: &ScenarioSpec) -> Result<Sample, String> {
    let run = run_untraced(spec)?;
    let t0 = Instant::now();
    let json = run.report.to_json();
    let to_json_s = t0.elapsed().as_secs_f64();

    let ops = &run.report.total_ops;
    let (mut joins_ok, mut joins_failed) = (0u64, 0u64);
    let mut inv = traced::Invariants::default();
    for p in &run.report.phases {
        joins_ok += p.churn.joins_ok;
        joins_failed += p.churn.joins_failed;
        if let Some(i) = &p.invariants {
            inv.prop1_violations += i.prop1_violations;
            inv.prop2_optimal += i.prop2_optimal;
            inv.prop2_total += i.prop2_total;
            inv.roots_sampled += i.roots_sampled;
            inv.roots_unique += i.roots_unique;
        }
    }
    let run_s = run.drive_secs + to_json_s;
    let failed = ops.lost + ops.not_found + ops.found_dead + joins_failed;
    let fail_share = failed as f64 / (ops.issued + joins_ok + joins_failed) as f64;
    let join_messages = metrics::JOIN_MESSAGES.read(&run.stats);

    let mut s =
        Sample { digest: format!("{:016x}", fnv1a64(json.as_bytes())), ..Default::default() };
    s.set("setup_s", run.wall_secs - run.drive_secs);
    s.set("run_s", run_s);
    s.set("ops_per_s", (ops.completed + ops.writes) as f64 / run_s);
    s.set("success_share", 1.0 - fail_share);
    s.set("sim_locate_lat_p50", run.report.total_latency.p50);
    s.set("sim_locate_lat_p999", run.report.total_latency.p999);
    s.set("sim_msgs_per_op", run.totals.messages as f64 / (ops.issued + ops.writes) as f64);
    s.set("joins_per_s", joins_ok as f64 / run_s);
    s.set("sim_msgs_per_join", ratio(join_messages, joins_ok));
    s.set("fail_share", fail_share);
    s.set("sim_locate_samples", run.report.total_latency.count as f64);
    s.set("workload.report.to_json_s", to_json_s);
    s.set("workload.report.bytes", json.len() as f64);
    for (name, v) in [
        ("raw.issued", ops.issued),
        ("raw.completed", ops.completed),
        ("raw.found_live", ops.found_live),
        ("raw.lost", ops.lost),
        ("raw.not_found", ops.not_found),
        ("raw.found_dead", ops.found_dead),
        ("raw.writes", ops.writes),
        ("raw.failed", failed),
        ("raw.joins_ok", joins_ok),
        ("raw.joins_failed", joins_failed),
        ("raw.events", run.totals.events),
        ("raw.messages", run.totals.messages),
        ("raw.prop1_violations", inv.prop1_violations),
        ("raw.prop2_optimal", inv.prop2_optimal),
        ("raw.prop2_total", inv.prop2_total),
        ("raw.roots_sampled", inv.roots_sampled),
        ("raw.roots_unique", inv.roots_unique),
    ] {
        s.set(name, v as f64);
    }
    Ok(s)
}

/// `a / b`, 0 when `b` is 0 (a count-valued row on a workload that
/// never exercises its layer).
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Two traced passes plus the microprobes; writes the span file. The
/// first pass has the engine's handler profile on and doubles as the
/// warm-up; the second, unprofiled, supplies every span and count.
pub fn traced(w: &Workload, seed: u64, size: Size, out_dir: &Path) -> Result<Sample, String> {
    let spec = build(w.name, seed, size).ok_or("unknown workload")?;
    let profiled = traced::run(&spec, true)?;
    let handler_ns = profiled.net.engine().handler_ns().clone();
    drop(profiled);
    let run = traced::run(&spec, false)?;
    let mut s = Sample::default();
    for (name, v) in layers::from_traced(&run, &spec, &handler_ns) {
        s.set(name, v);
    }
    for (name, v) in probes::all(&run.net, seed, size) {
        s.set(name, v);
    }
    s.set("raw.events", run.events as f64);
    s.set("raw.messages", run.messages as f64);
    s.set("raw.completed", run.tally.completed as f64);
    s.set("raw.prop1_violations", run.tally.invariants.prop1_violations as f64);
    s.set("raw.prop2_optimal", run.tally.invariants.prop2_optimal as f64);
    s.set("raw.roots_unique", run.tally.invariants.roots_unique as f64);
    s.set("raw.traced_run_s", run.tracer.total_s(Name::Run));
    s.set("raw.rows_run_s", layers::run_rows_s(&run.tracer));
    write_trace(&run, w, seed, out_dir)?;
    Ok(s)
}

fn write_trace(run: &TracedRun, w: &Workload, seed: u64, out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, run.tracer.to_json(w.name, seed))
        .map_err(|e| format!("{}: {e}", path.display()))
}

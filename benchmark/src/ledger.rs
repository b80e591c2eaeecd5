//! The parent side: runs each set of repetitions in a fresh child
//! process, takes the best of them, applies the output checks, and prints every metric by name
//! with its unit — as the human ledger, as `--check`'s agreement verdict,
//! or as the one-line JSON result the driver contract asks for.

use crate::child::Sample;
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER, TIME_FLOOR_S};
use crate::stats::{best, median, spread};
use crate::workloads::{Size, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What every mode needs to start children.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed (the program under test receives only the inputs
    /// generated from it).
    pub seed: u64,
    /// Full or smoke size.
    pub size: Size,
    /// Keep repeating until this long has passed (never fewer than
    /// `MIN_REPS` repetitions); `None`: exactly `MIN_REPS`.
    pub seconds: Option<u64>,
    /// Where the traced pass writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

/// One verdict of the output checks.
pub struct Check {
    /// Which rule, as numbered in the README.
    pub name: &'static str,
    /// Did it hold?
    pub ok: bool,
    /// The numbers it was judged on.
    pub detail: String,
}

/// The repetitions of one (workload, seed).
pub struct Set {
    /// One sample per repetition, in run order.
    pub reps: Vec<Sample>,
}

impl Set {
    fn column(&self, name: &str) -> Vec<f64> {
        self.reps.iter().map(|s| s.get(name)).collect()
    }

    /// What the set reports for end-to-end metric `m`: the best
    /// repetition (simulated metrics are the same on every one).
    pub fn value(&self, m: &EndToEnd) -> f64 {
        best(&self.column(m.name), m.better == Better::Lower)
    }

    /// The repetition with the shortest run: the baseline the traced
    /// pass is compared with.
    pub fn fastest(&self) -> &Sample {
        let by_run_s = |a: &&Sample, b: &&Sample| a.get("run_s").total_cmp(&b.get("run_s"));
        self.reps.iter().min_by(by_run_s).expect("a set has repetitions")
    }

    /// Median over the repetitions.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.column(name))
    }

    /// `(max − min) / median` over the repetitions.
    pub fn spread(&self, name: &str) -> f64 {
        spread(&self.column(name))
    }

    /// Does `name` read exactly the same on every repetition?
    pub fn repeats_exactly(&self, name: &str) -> bool {
        let col = self.column(name);
        col.iter().all(|v| v.to_bits() == col[0].to_bits())
    }
}

/// Run one child to completion and read its samples back.
fn spawn_child(kind: &str, w: &Workload, opts: &Options) -> Result<Vec<Sample>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", w.name, "--seed", &opts.seed.to_string()]);
    cmd.arg("--out").arg(&opts.out_dir);
    if opts.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if let Some(seconds) = opts.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{kind} child of {} failed: {}", w.name, out.status));
    }
    Sample::parse_all(&String::from_utf8_lossy(&out.stdout))
}

/// Run the untraced repetitions of `w` in one fresh child.
pub fn run_set(w: &Workload, opts: &Options) -> Result<Set, String> {
    Ok(Set { reps: spawn_child("untraced", w, opts)? })
}

/// What `churn-repair` must still deliver for its run to count as
/// correct: the worst reading over 81 seeds (1–40, 42, 201–240) at the
/// full size plus a margin, so that no seed the driver picks trips a limit by
/// luck. Drift *inside* the limits is what `success_share`, the `failed`
/// count of the result line, `core.network.prop1_violations` and the
/// `repair.*` rows are for.
///
/// Property 1 violations left after the settle phase. Measured 0–6:
/// 0 on 32 seeds, 1–3 on 43, 4–6 on six.
pub const PROP1_RESIDUE_MAX: u64 = 10;
/// Share of attempted joins that must complete. Measured 0.890–0.993:
/// 2–14 joins of about 300 failed on 72 seeds, 17–31 on nine, and the
/// limit leaves room for twice that worst case.
pub const JOINS_OK_MIN: f64 = 0.80;
/// Ceiling on what the protocol itself loses, (lost + not_found +
/// joins_failed) / attempts. Measured 0.0066–0.0169.
pub const PROTOCOL_LOSS_MAX: f64 = 0.025;
/// Ceiling on found_dead / attempts: locates answered with the pointer
/// of a server an injected kill destroyed, which stay wrong until a
/// write re-homes the object. Measured 0.003–0.030 on 77 seeds and
/// 0.056, 0.058, 0.097, 0.121 on four: popularity is Zipf(1.1) over
/// 2 500 objects, so the 3 % of seeds whose kills hit the rank-1 object's
/// server lose up to its 17 % share of the locates still to come (at
/// most 80 % of them: kills start after the warm-up phase). This is the
/// damage the workload injects, not a quality of the code under test, so
/// the limit is the ceiling of that lottery, 0.8 x 0.17 + 0.03.
pub const FOUND_DEAD_MAX: f64 = 0.16;

/// Output checks (1)–(4) on the untraced repetitions.
pub fn output_checks(w: &Workload, set: &Set) -> Vec<Check> {
    let s = &set.reps[0];
    let g = |name: &str| s.get(name) as u64;
    let mut checks = Vec::new();
    if !w.churn {
        checks.push(Check {
            name: "(1) churn-free: every locate completes and finds a live server",
            ok: g("raw.completed") == g("raw.issued")
                && g("raw.found_live") == g("raw.issued")
                && g("raw.lost") == 0
                && g("raw.not_found") == 0,
            detail: format!(
                "issued {} completed {} found_live {} lost {} not_found {}",
                g("raw.issued"),
                g("raw.completed"),
                g("raw.found_live"),
                g("raw.lost"),
                g("raw.not_found")
            ),
        });
    }
    checks.push(Check {
        name: "(2) checked phases: roots unique; Property 1 holds and Property 2 is optimal when \
               churn-free, at most PROP1_RESIDUE_MAX open slots after churn",
        ok: g("raw.roots_unique") == g("raw.roots_sampled")
            && g("raw.roots_sampled") > 0
            && if w.churn {
                g("raw.prop1_violations") <= PROP1_RESIDUE_MAX
            } else {
                g("raw.prop1_violations") == 0 && g("raw.prop2_optimal") == g("raw.prop2_total")
            },
        detail: format!(
            "prop1_violations {} roots {}/{} prop2 {}/{}",
            g("raw.prop1_violations"),
            g("raw.roots_unique"),
            g("raw.roots_sampled"),
            g("raw.prop2_optimal"),
            g("raw.prop2_total")
        ),
    });
    if w.churn {
        let joins = g("raw.joins_ok") + g("raw.joins_failed");
        let attempts = (g("raw.issued") + joins) as f64;
        let protocol_loss =
            (g("raw.lost") + g("raw.not_found") + g("raw.joins_failed")) as f64 / attempts;
        let found_dead = g("raw.found_dead") as f64 / attempts;
        checks.push(Check {
            name: "(3) churn: joins_ok >= JOINS_OK_MIN x attempted, protocol loss <= \
                   PROTOCOL_LOSS_MAX, found_dead <= FOUND_DEAD_MAX",
            ok: joins > 0
                && g("raw.joins_ok") as f64 >= JOINS_OK_MIN * joins as f64
                && protocol_loss <= PROTOCOL_LOSS_MAX
                && found_dead <= FOUND_DEAD_MAX,
            detail: format!(
                "joins_ok {} of {joins}, protocol loss {protocol_loss:.5}, found_dead \
                 {found_dead:.5} (fail_share {:.5})",
                g("raw.joins_ok"),
                s.get("fail_share")
            ),
        });
    }
    let simulated = END_TO_END.iter().filter(|m| m.simulated);
    checks.push(Check {
        name: "(4) report digest and simulated metrics repeat exactly across repetitions",
        ok: set.reps.iter().all(|r| r.digest == s.digest && !r.digest.is_empty())
            && simulated.clone().all(|m| set.repeats_exactly(m.name)),
        detail: format!("digest {} over {} repetitions", s.digest, set.reps.len()),
    });
    checks
}

/// Deterministic totals the traced pass must reproduce exactly.
const REPLAYED: [&str; 6] = [
    "raw.events",
    "raw.messages",
    "raw.completed",
    "raw.prop1_violations",
    "raw.prop2_optimal",
    "raw.roots_unique",
];

/// The traced pass of `w`: one traced child, joined with the untraced
/// baseline into the full per-layer row set, plus output check (5).
pub fn traced_pass(w: &Workload, opts: &Options, base: &Set) -> Result<(Sample, Check), String> {
    let mut t = spawn_child("traced", w, opts)?.pop().expect("parse_all returns a sample");
    let b = base.fastest();
    let same = |name: &str| t.get(name).to_bits() == b.get(name).to_bits();
    let replay_match = REPLAYED.iter().all(|name| same(name));
    let check = Check {
        name: "(5) traced pass replays the untraced events, messages, completed and spot-checks",
        ok: replay_match,
        detail: format!(
            "traced {}/{}/{} untraced {}/{}/{}",
            t.get("raw.events"),
            t.get("raw.messages"),
            t.get("raw.completed"),
            b.get("raw.events"),
            b.get("raw.messages"),
            b.get("raw.completed")
        ),
    };
    let run_s = b.get("run_s");
    let to_json_s = b.get("workload.report.to_json_s");
    let rows_s = t.get("raw.rows_run_s") + to_json_s;
    let self_s = (run_s - rows_s).max(0.0);
    for name in [
        "workload.report.to_json_s",
        "workload.report.bytes",
        "joins_per_s",
        "sim_msgs_per_join",
        "fail_share",
        "sim_locate_samples",
    ] {
        t.set(name, b.get(name));
    }
    t.set("core.network.prop1_violations", b.get("raw.prop1_violations"));
    t.set("workload.runner.self_s", self_s);
    t.set("workload.runner.self_share", self_s / run_s);
    t.set("workload.runner.replay_match", f64::from(u8::from(replay_match)));
    t.set("trace.overhead_share", t.get("raw.traced_run_s") / run_s - 1.0);
    t.set("trace.rows_over_run_share", (rows_s + self_s) / run_s - 1.0);
    Ok((t, check))
}

fn print_checks(checks: &[Check]) -> bool {
    for c in checks {
        println!("  check {} {}: {}", if c.ok { "ok  " } else { "FAIL" }, c.name, c.detail);
    }
    checks.iter().all(|c| c.ok)
}

fn print_end_to_end(set: &Set) {
    println!(
        "  end-to-end, untraced: best of n = {} repetitions; spread = (max-min)/median",
        set.reps.len()
    );
    for m in &END_TO_END {
        let exact = match m.name {
            "peak_rss_mb" => "  one reading per set, after the first repetition",
            _ if m.simulated => "  simulated: repeats exactly",
            _ => "",
        };
        println!(
            "    {:<22} {:>16.4} {:<8} median {:>16.4} spread {:>6.2} %  bound {:>4.0} %{exact}",
            m.name,
            set.value(m),
            m.unit,
            set.median(m.name),
            set.spread(m.name) * 100.0,
            m.bound * 100.0
        );
    }
}

fn print_per_layer(t: &Sample) {
    println!("  per-layer, traced pass (moves = where a change to the row should show):");
    for l in &PER_LAYER {
        println!("    {:<38} {:>16.4} {:<9} moves {}", l.name, t.get(l.name), l.unit, l.moves);
    }
}

/// Host facts every report starts with: core count and load.
pub fn print_host() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    println!(
        "host: nproc {nproc}, loadavg {}; one process, one thread, children one at a time",
        load.trim()
    );
}

/// The human ledger: for each workload the untraced set, then the traced
/// pass. Returns whether every output check held.
pub fn report(workloads: &[&'static Workload], opts: &Options) -> Result<bool, String> {
    print_host();
    let mut all_ok = true;
    for w in workloads {
        println!("== {} (seed {}) — {}", w.name, opts.seed, w.why);
        let set = run_set(w, opts)?;
        print_end_to_end(&set);
        let (layers, replay) = traced_pass(w, opts, &set)?;
        print_per_layer(&layers);
        let mut checks = output_checks(w, &set);
        checks.push(replay);
        all_ok &= print_checks(&checks);
    }
    println!("{}", if all_ok { "all output checks ok" } else { "OUTPUT CHECKS FAILED" });
    Ok(all_ok)
}

/// How two sets of one metric compare under the benchmark's own bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Medians within the bound (or, simulated: exactly equal).
    Agree,
    /// Medians further apart than the bound, or simulated values differ.
    Disagree,
    /// A set's best value has no second repetition within the bound of
    /// it: the sets cannot resolve the metric.
    Unresolved,
}

/// The `--check` rule for one metric, from each set's samples: the two
/// best-of-n values must lie within the bound of each other, and each
/// must be corroborated by a second repetition of its own set.
pub fn agreement(m: &EndToEnd, a: &[f64], b: &[f64]) -> Agreement {
    if m.simulated {
        let first = a[0].to_bits();
        let same = a.iter().chain(b).all(|v| v.to_bits() == first);
        return if same { Agreement::Agree } else { Agreement::Disagree };
    }
    let floor = if m.unit == "s" { TIME_FLOOR_S } else { 0.0 };
    let lower = m.better == Better::Lower;
    let (va, vb) = (best(a, lower), best(b, lower));
    let allowed = (m.bound * va).max(floor);
    // A best value counts only when a second repetition lands within
    // the bound of it; a lone fast repetition proves nothing.
    let corroborated =
        |v: &[f64], top: f64| v.iter().filter(|x| (**x - top).abs() <= allowed).count() >= 2;
    if !corroborated(a, va) || !corroborated(b, vb) {
        return Agreement::Unresolved;
    }
    // Same code on both sides: neither direction may exceed the bound.
    if (vb - va).abs() <= allowed {
        Agreement::Agree
    } else {
        Agreement::Disagree
    }
}

/// `--check`: set A and set B of the same binary, back to back.
pub fn check(workloads: &[&'static Workload], opts: &Options) -> Result<bool, String> {
    print_host();
    let mut pass = true;
    for w in workloads {
        println!("== {} (seed {}): set A then set B", w.name, opts.seed);
        let a = run_set(w, opts)?;
        let b = run_set(w, opts)?;
        for m in &END_TO_END {
            let verdict = agreement(m, &a.column(m.name), &b.column(m.name));
            pass &= verdict == Agreement::Agree;
            println!(
                "    {:<22} A {:>14.4} (spread {:>5.2} %)  B {:>14.4} (spread {:>5.2} %)  {:<8} {}",
                m.name,
                a.value(m),
                a.spread(m.name) * 100.0,
                b.value(m),
                b.spread(m.name) * 100.0,
                m.unit,
                match verdict {
                    Agreement::Agree if m.simulated => "identical",
                    Agreement::Agree => "agree",
                    Agreement::Disagree => "DISAGREE",
                    Agreement::Unresolved => "unresolved",
                }
            );
        }
        let digests = a.reps.iter().chain(&b.reps).all(|r| r.digest == a.reps[0].digest);
        println!(
            "    report digest {} {}",
            a.reps[0].digest,
            if digests { "identical" } else { "DIFFERS" }
        );
        pass &= digests;
        pass &= print_checks(&output_checks(w, &a)) & print_checks(&output_checks(w, &b));
    }
    println!("{}", if pass { "check passed: the two sets agree" } else { "CHECK FAILED" });
    Ok(pass)
}

/// The driver contract: measure one workload and print, as the last line
/// of stdout, `{"correct", "attempted", "failed", "metrics"}` — the
/// end-to-end metrics untraced, or the per-layer metrics traced.
pub fn driver(w: &'static Workload, opts: &Options, trace: bool) -> Result<bool, String> {
    print_host();
    println!("== {} (seed {})", w.name, opts.seed);
    let (set, layers, checks) = if trace {
        // The baseline the traced pass is compared with is a minimal
        // set: per-layer rows carry no bound.
        let set = run_set(w, &Options { seconds: None, ..opts.clone() })?;
        let (layers, replay) = traced_pass(w, opts, &set)?;
        print_per_layer(&layers);
        let mut checks = output_checks(w, &set);
        checks.push(replay);
        (set, Some(layers), checks)
    } else {
        let set = run_set(w, opts)?;
        print_end_to_end(&set);
        let checks = output_checks(w, &set);
        (set, None, checks)
    };
    let correct = print_checks(&checks);

    let s = &set.reps[0];
    let attempted = (s.get("raw.issued")
        + s.get("raw.writes")
        + s.get("raw.joins_ok")
        + s.get("raw.joins_failed")) as u64;
    // Failures counted against attempts, on every workload: on
    // churn-repair the ~2 % the unannounced kills cost are reported as
    // they are, so a later change that loses more shows in this count.
    let failed = s.get("raw.failed") as u64;
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    let rows: Vec<(&str, &str, f64)> = match &layers {
        Some(t) => PER_LAYER.iter().map(|l| (l.name, l.unit, t.get(l.name))).collect(),
        None => END_TO_END.iter().map(|m| (m.name, m.unit, set.value(m))).collect(),
    };
    for (i, (name, unit, value)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

//! **`tapestry-sweep`** — the run-level parallel experiment driver.
//!
//! Expands a declarative grid spec (`sweeps/*.spec`: seeds × node counts
//! × substrates × join batching) into independent scenario runs, fans
//! them across worker threads (each run is the deterministic single-run
//! path, so results never depend on scheduling), aggregates per-cell
//! mean / stddev / 95% CI over seeds, and optionally diffs the fresh
//! aggregate against a committed baseline under the spec's gates.
//!
//! ```sh
//! # the committed artifact (byte-identical on every machine):
//! tapestry-sweep --spec sweeps/ci.spec --json BENCH_sweep.json
//! # the CI gate:
//! tapestry-sweep --spec sweeps/ci.spec --compare BENCH_sweep.json \
//!     --timing-json sweep_timing.json
//! ```
//!
//! Exit codes: `0` pass, `1` gate regression, `2` usage/IO/spec error,
//! `3` baseline/spec mismatch (missing cell or metric).

use tapestry_trace::json::Json;
use tapestry_workload::sweep::{agg, compare, grid::SweepSpec, run};

struct Args {
    spec: String,
    workers: Option<usize>,
    seeds: Option<Vec<u64>>,
    json: Option<String>,
    timing_json: Option<String>,
    compare: Option<String>,
    md_summary: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tapestry-sweep --spec PATH [--workers N] [--seeds S,S,...]\n\
         \x20                    [--json PATH] [--timing-json PATH]\n\
         \x20                    [--compare BASELINE.json] [--md-summary PATH] [--quiet]\n\
         exit codes: 0 pass, 1 regression, 2 usage/io/spec, 3 missing cell"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: String::new(),
        workers: None,
        seeds: None,
        json: None,
        timing_json: None,
        compare: None,
        md_summary: None,
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
            "--spec" => args.spec = val("--spec"),
            "--workers" => match val("--workers").parse() {
                Ok(w) if w >= 1 => args.workers = Some(w),
                _ => usage(),
            },
            "--seeds" => {
                let seeds: Result<Vec<u64>, _> =
                    val("--seeds").split(',').map(|s| s.trim().parse()).collect();
                match seeds {
                    Ok(s) if !s.is_empty() => args.seeds = Some(s),
                    _ => usage(),
                }
            }
            "--json" => args.json = Some(val("--json")),
            "--timing-json" => args.timing_json = Some(val("--timing-json")),
            "--compare" => args.compare = Some(val("--compare")),
            "--md-summary" => args.md_summary = Some(val("--md-summary")),
            "--quiet" => args.quiet = true,
            _ => usage(),
        }
    }
    if args.spec.is_empty() {
        usage()
    }
    args
}

fn fail(msg: &str) -> ! {
    eprintln!("tapestry-sweep: {msg}");
    std::process::exit(2)
}

fn write_file(path: &str, content: &str, what: &str) {
    if let Err(e) = std::fs::write(path, content) {
        fail(&format!("cannot write {what} '{path}': {e}"));
    }
}

fn main() {
    let args = parse_args();
    let text = std::fs::read_to_string(&args.spec)
        .unwrap_or_else(|e| fail(&format!("cannot read spec '{}': {e}", args.spec)));
    let mut spec =
        SweepSpec::parse(&text).unwrap_or_else(|e| fail(&format!("spec '{}': {e}", args.spec)));
    if let Some(seeds) = args.seeds {
        let mut seeds = seeds;
        seeds.sort_unstable();
        seeds.dedup();
        spec.seeds = seeds;
    }
    let workers = args
        .workers
        .or(spec.default_workers)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1);

    #[expect(
        clippy::disallowed_methods,
        reason = "observation only: throughput and speedup reporting; the runs are driven on \
                  SimTime"
    )]
    let t0 = std::time::Instant::now();
    let result = run::run_sweep(&spec, workers).unwrap_or_else(|e| fail(&e));
    let total_wall = t0.elapsed().as_secs_f64();

    let aggregate = agg::aggregate(&result);
    if let Some(path) = &args.json {
        write_file(path, &aggregate.to_json(false), "aggregate json");
    }
    if let Some(path) = &args.timing_json {
        write_file(path, &aggregate.to_json(true), "timing json");
    }

    let runs = result.cells.len() * spec.seeds.len();
    if !args.quiet {
        print!("{}", aggregate.to_csv());
        eprintln!(
            "sweep '{}': {} cells × {} seeds = {runs} runs, {workers} workers, {total_wall:.2}s wall",
            spec.name,
            result.cells.len(),
            spec.seeds.len(),
        );
    }

    let mut md = aggregate.to_markdown();
    let mut exit = 0;
    if let Some(path) = &args.compare {
        let baseline_text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read baseline '{path}': {e}")));
        let baseline = Json::parse(&baseline_text)
            .unwrap_or_else(|e| fail(&format!("baseline '{path}': {e}")));
        let verdict = compare::compare(&aggregate, &baseline, &spec.gates)
            .unwrap_or_else(|e| fail(&format!("baseline '{path}': {e}")));
        print!("{}", verdict.render_text());
        md.push('\n');
        md.push_str(&verdict.render_markdown());
        exit = verdict.exit_code();
    }
    if let Some(path) = &args.md_summary {
        // Appending suits $GITHUB_STEP_SUMMARY (other steps write too).
        use std::io::Write as _;
        match std::fs::OpenOptions::new().create(true).append(true).open(path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(md.as_bytes()) {
                    fail(&format!("cannot write summary '{path}': {e}"));
                }
            }
            Err(e) => fail(&format!("cannot open summary '{path}': {e}")),
        }
    }
    std::process::exit(exit);
}

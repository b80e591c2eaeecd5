//! `tapestry-benchmark`: see `benchmark/README.md`. Started through
//! `benchmark/run.sh`, which builds it first.

use std::path::PathBuf;
use std::process::ExitCode;
use tapestry_benchmark::ledger::{self, Options};
use tapestry_benchmark::workloads::{find, Size, Workload, WORKLOADS};
use tapestry_benchmark::{child, metrics};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed S] [--smoke] [--check]
       benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
       benchmark/run.sh --manifest

  (no mode)   every workload: untraced set, traced pass, output checks
  --workload  one of: locate-steady publish-heavy bootstrap-checks churn-repair
  --seed      workload seed (default 42)
  --smoke     256-node sizes: the whole pass takes seconds
  --check     run set A and set B back to back and assert they agree
  --trace     driver mode: last stdout line is the JSON result; 0 reports
              the end-to-end metrics, 1 the per-layer metrics
  --seconds   keep repeating until N seconds have passed (at least 3 reps)
  --out DIR   where trace-<workload>.json goes (default benchmark/out)
  --manifest  print BENCHMARK.json as generated from the metric tables";

struct Args {
    workload: Option<&'static Workload>,
    trace: Option<bool>,
    check: bool,
    manifest: bool,
    child: Option<String>,
    opts: Options,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: None,
        check: false,
        manifest: false,
        child: None,
        opts: Options {
            seed: 42,
            size: Size::Full,
            seconds: None,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(find(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                // Any 64-bit integer is a seed; a negative one is read as
                // its two's-complement bit pattern.
                let text = value()?;
                args.opts.seed = text
                    .parse::<u64>()
                    .or_else(|_| text.parse::<i64>().map(|v| v as u64))
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.opts.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--out" => args.opts.out_dir = PathBuf::from(value()?),
            "--child" => args.child = Some(value()?),
            "--smoke" => args.opts.size = Size::Smoke,
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<bool, String> {
    let Args { workload, trace, check, manifest, child: child_kind, opts } = args;
    if manifest {
        print!("{}", metrics::manifest_json());
        return Ok(true);
    }
    if let Some(kind) = child_kind {
        let w = workload.ok_or("--child needs --workload")?;
        let samples = match kind.as_str() {
            "untraced" => child::untraced(w, opts.seed, opts.size, opts.seconds)?,
            "traced" => vec![child::traced(w, opts.seed, opts.size, &opts.out_dir)?],
            other => return Err(format!("unknown child kind '{other}'")),
        };
        for sample in samples {
            print!("{}", sample.to_lines());
        }
        return Ok(true);
    }
    if let Some(trace) = trace {
        let w = workload.ok_or("--trace needs --workload")?;
        // The verdict travels in the JSON's `correct`; a printed result
        // is a completed run.
        return ledger::driver(w, &opts, trace).map(|_| true);
    }
    let selected: Vec<&'static Workload> = match workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if check {
        ledger::check(&selected, &opts)
    } else {
        ledger::report(&selected, &opts)
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("tapestry-benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("tapestry-benchmark: {msg}");
            ExitCode::from(1)
        }
    }
}

//! Experiment harness shared by the per-figure binaries in `src/bin/`.
//!
//! Each binary regenerates one table or figure of the paper (see the
//! README's *Reproducing the paper's figures and tables*). This library
//! provides the common machinery: summary statistics, tab-separated row
//! printing, and a thread-pool sweep runner that fans independent
//! simulation instances out across cores
//! (simulations themselves stay single-threaded — event order is the
//! semantics — so parallelism lives at the sweep level).

#![forbid(unsafe_code)]

/// Mean of a sample (0 for empty input).
pub use tapestry_workload::sweep::stats::mean;

/// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank on a sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    #[expect(
        clippy::disallowed_methods,
        reason = "plain f64 values: equal elements are interchangeable"
    )]
    v.sort_by(f64::total_cmp);
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
    tapestry_workload::sweep::run_parallel(n, workers, jobs)
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
    fn sweep_preserves_order_and_runs_all() {
        let out = parallel_sweep(32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }
}

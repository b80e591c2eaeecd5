//! Experiment harness shared by the per-figure binaries in `src/bin/`.
//!
//! Each binary regenerates one table or figure of the paper (see
//! DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
//! results). This library provides the common machinery: summary
//! statistics, tab-separated row printing, and a thread-pool sweep runner
//! that fans independent simulation instances out across cores
//! (simulations themselves stay single-threaded — event order is the
//! semantics — so parallelism lives at the sweep level).

#![forbid(unsafe_code)]

/// Locate the first divergence between two texts that should have been
/// byte-identical (thread-count determinism gates): returns a summary
/// naming the byte offset, the 1-based line, and both lines' contents —
/// `None` when the texts match. The scale/scenarios binaries print this
/// on their internal byte-compare failures so CI divergence points at a
/// field, not just at two differing files.
pub fn diff_summary(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let offset =
        a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or_else(|| a.len().min(b.len()));
    let line_no = a[..offset.min(a.len())].bytes().filter(|&c| c == b'\n').count() + 1;
    let nth_line = |s: &str| s.lines().nth(line_no - 1).unwrap_or("<missing line>").to_string();
    Some(format!(
        "first divergence at byte {offset}, line {line_no}:\n  a: {}\n  b: {}",
        nth_line(a),
        nth_line(b)
    ))
}

/// Mean of a sample (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank on a sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    // Plain f64 values: equal elements are interchangeable, so tie order
    // cannot change the nearest-rank read below.
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // tapestry-lint: allow(float-tiebreak)
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Sample standard deviation (0 for fewer than two points).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
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
    tapestry_sweep::run_parallel(n, workers, jobs)
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
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!((stddev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn diff_summary_names_offset_line_and_contents() {
        assert_eq!(diff_summary("same", "same"), None);
        let a = "line one\nline two\nline three\n";
        let b = "line one\nline twX\nline three\n";
        let d = diff_summary(a, b).expect("texts differ");
        assert!(d.contains("byte 16"), "{d}");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("a: line two"), "{d}");
        assert!(d.contains("b: line twX"), "{d}");
        // One text a strict prefix of the other: divergence at the end.
        let d = diff_summary("ab", "abc").expect("lengths differ");
        assert!(d.contains("byte 2"), "{d}");
    }

    #[test]
    fn sweep_preserves_order_and_runs_all() {
        let out = parallel_sweep(32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }
}

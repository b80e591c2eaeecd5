//! Run-level worker pool: fan independent jobs out across a fixed number
//! of OS threads and collect results **in input order**, so downstream
//! aggregation is byte-identical no matter which worker finished first.
//!
//! This is deliberately parallelism *across* runs, not within one: each
//! job is the existing deterministic single-run path, so per-run output
//! is unaffected by scheduling and the only shared state is the work
//! index and the result slots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `job(0..n)` across `workers` scoped threads (clamped to ≥ 1) and
/// return the results indexed by input position. A panicking job
/// panics the caller once the other workers have been joined.
pub fn run_parallel<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(&job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                slots.lock().expect("no worker panics holding the slots")[i] = Some(out);
            });
        }
    });
    let slots = slots.into_inner().expect("no worker panics holding the slots");
    slots.into_iter().map(|s| s.expect("every job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_input_order() {
        for workers in [1, 2, 4, 9] {
            let out = run_parallel(17, workers, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn degenerate_sizes_are_safe() {
        assert!(run_parallel(0, 4, |i| i).is_empty());
        assert_eq!(run_parallel(1, 0, |i| i + 1), vec![1]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = run_parallel(100, 3, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }
}

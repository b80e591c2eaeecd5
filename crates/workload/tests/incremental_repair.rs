//! Incremental maintenance: the fact-driven repair scheduler must
//! *converge* — after a churn storm, the settle phase's spot-checks
//! (Property 1, Theorem 2 root uniqueness) hold again.

use tapestry_trace::metrics;
use tapestry_workload::{presets, runner};

#[test]
fn incremental_repair_converges_after_churn() {
    let report = runner::run(&presets::churn_scale_preset(96, 400, 11, true)).expect("runs");
    let churn_phase = &report.phases[1];
    assert!(churn_phase.churn.joins_ok > 0, "churn happened");
    // The scheduler actually ran: facts were recorded and repairs
    // released somewhere in the run.
    let facts: u64 = report.counter_total(metrics::REPAIR_FACTS);
    let events: u64 = report.counter_total(metrics::REPAIR_EVENTS);
    assert!(facts > 0, "staleness facts recorded");
    assert!(events > 0, "repairs released");
    // Convergence: the checked settle phase restores the paper's
    // invariants without any global OptimizeAt round.
    let inv = report.phases[2].invariants.expect("checked settle phase");
    assert_eq!(inv.prop1_violations, 0, "Property 1 restored after churn");
    assert_eq!(inv.roots_unique, inv.roots_sampled, "Theorem 2 roots unique after churn");
}

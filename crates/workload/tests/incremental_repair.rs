//! Incremental maintenance: the fact-driven repair scheduler must
//! *converge* — after a churn storm, the settle phase's spot-checks
//! (Property 1/2, Theorem 2 root uniqueness) hold again under every
//! finite budget — and a zero budget must freeze repairs without wedging
//! or panicking the run.

use tapestry_trace::metrics;
use tapestry_workload::{presets, runner};

fn incr_spec(budget: u32) -> tapestry_workload::ScenarioSpec {
    presets::churn_scale_preset(96, 400, 11, true).repair_budget(budget)
}

#[test]
fn incremental_repair_converges_under_every_finite_budget() {
    for budget in [1, 4, 16] {
        let report =
            runner::run(&incr_spec(budget)).unwrap_or_else(|e| panic!("budget {budget}: {e}"));
        let churn_phase = &report.phases[1];
        assert!(churn_phase.churn.joins_ok > 0, "budget {budget}: churn happened");
        // The scheduler actually ran: facts were recorded and repairs
        // released somewhere in the run.
        let facts: u64 = report.counter_total(metrics::REPAIR_FACTS);
        let events: u64 = report.counter_total(metrics::REPAIR_EVENTS);
        assert!(facts > 0, "budget {budget}: staleness facts recorded");
        assert!(events > 0, "budget {budget}: repairs released");
        // Convergence: the checked settle phase restores the paper's
        // invariants without any global OptimizeAt round.
        let inv = report.phases[2].invariants.expect("checked settle phase");
        assert_eq!(inv.prop1_violations, 0, "budget {budget}: Property 1 restored after churn");
        assert_eq!(
            inv.roots_unique, inv.roots_sampled,
            "budget {budget}: Theorem 2 roots unique after churn"
        );
    }
}

#[test]
fn tighter_budgets_defer_more_work() {
    let deferred_at = |budget: u32| -> u64 {
        let report = runner::run(&incr_spec(budget)).expect("runs");
        report.counter_total(metrics::REPAIR_DEFERRED_BUDGET)
    };
    // Not a strict monotonicity claim (backlogs drain between ticks),
    // but a budget of 1 must visibly queue more than a budget of 16.
    assert!(deferred_at(1) >= deferred_at(16), "a 1/sec budget defers at least as much as 16/sec");
}

#[test]
fn zero_budget_never_panics_and_still_drains_to_idle() {
    let report = runner::run(&incr_spec(0)).expect("zero-budget run completes");
    // Facts accumulate (bounded by the ledger cap) but no repair tick
    // ever fires, so no repair events are released.
    let events: u64 = report.counter_total(metrics::REPAIR_EVENTS);
    assert_eq!(events, 0, "a frozen scheduler releases nothing");
    let facts: u64 = report.counter_total(metrics::REPAIR_FACTS);
    assert!(facts > 0, "evidence still recorded while frozen");
}

//! Per-layer rows computed from one traced pass: span totals, counts
//! made at the same boundaries, and typed-counter reads.

use crate::api::{metrics, Counter, Histogram, ScenarioSpec};
use crate::child::ratio;
use crate::spans::{Name, Tracer};
use crate::traced::TracedRun;

/// The spans whose totals partition the traced run: together with
/// `workload.runner.self_s` they add up to the untraced `run_s`.
const RUN_ROWS: [Name; 13] = [
    Name::Catalog,
    Name::Expand,
    Name::Dispatch,
    Name::Issue,
    Name::TakeResults,
    Name::CoalescerCall,
    Name::CoalescerWave,
    Name::InsertBookkeeping,
    Name::ProbeCall,
    Name::CheckP1,
    Name::CheckP2,
    Name::DistinctRoots,
    Name::Snapshot,
];

/// Seconds inside layer calls during the traced run (set-up excluded).
pub fn run_rows_s(tr: &Tracer) -> f64 {
    RUN_ROWS.iter().map(|&name| tr.total_s(name)).sum()
}

/// `q`-quantile of sorted `values` by nearest rank; 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Every per-layer row the traced child can compute on its own, from
/// the unprofiled pass `run` and the profiled pass's `handler_ns`.
pub fn from_traced(
    run: &TracedRun,
    spec: &ScenarioSpec,
    handler: &[Histogram; 3],
) -> Vec<(&'static str, f64)> {
    let tr = &run.tracer;
    let t = &run.tally;
    let engine = run.net.engine();
    let stats = engine.stats();
    let read = |c: &Counter| c.read(stats);

    let dispatch_s = tr.total_s(Name::Dispatch);
    let by_kind = engine.events_by_kind();
    let all_kinds: u64 = by_kind.iter().sum();
    let handler_total_ns: f64 = handler.iter().map(|h| h.mean() * h.count() as f64).sum();
    let bootstrap_s = tr.total_s(Name::Bootstrap);
    let repair_events = read(&metrics::REPAIR_EVENTS);
    let deferred = read(&metrics::REPAIR_DEFERRED_BUDGET);
    let node_rounds = run.net.len() as u64 * t.probe_rounds;

    vec![
        ("metric.space.build_s", tr.total_s(Name::SpaceBuild)),
        ("core.network.bootstrap_s", bootstrap_s),
        ("core.network.bootstrap_us_per_node", bootstrap_s * 1e6 / spec.initial_nodes as f64),
        ("core.network.catalog_publish_s", tr.total_s(Name::Catalog)),
        ("core.network.catalog_objects", spec.objects as f64),
        ("core.network.check_property1_s", tr.total_s(Name::CheckP1)),
        ("core.network.check_property2_s", tr.total_s(Name::CheckP2)),
        ("core.network.distinct_roots_s", tr.total_s(Name::DistinctRoots)),
        ("core.network.snapshot_s", tr.total_s(Name::Snapshot)),
        ("core.network.take_results_s", tr.total_s(Name::TakeResults)),
        ("core.network.take_results_calls", t.take_results_calls as f64),
        ("core.network.results", t.completed as f64),
        ("core.route.issue_s", tr.total_s(Name::Issue)),
        ("core.route.issued", (t.issued + t.writes) as f64),
        ("core.route.hops_mean", ratio(t.hops_sum, t.completed)),
        ("core.route.stretch_p50", quantile(&t.stretch, 0.50)),
        ("core.route.stretch_p99", quantile(&t.stretch, 0.99)),
        ("core.route.root_reach_share", ratio(t.reached_root, t.completed)),
        ("core.object_store.ptrs_per_publish", ratio(run.catalog_ptrs, spec.objects as u64)),
        ("core.object_store.ptr_total", run.ptr_total as f64),
        ("sim.engine.dispatch_s", dispatch_s),
        ("sim.engine.events", t.dispatch_events as f64),
        ("sim.engine.events_per_s", t.dispatch_events as f64 / dispatch_s),
        ("sim.engine.timer_share", ratio(by_kind[1], all_kinds)),
        ("sim.engine.drop_share", ratio(by_kind[2], all_kinds)),
        ("sim.engine.handler_deliver_ns_mean", handler[0].mean()),
        ("sim.engine.handler_timer_ns_mean", handler[1].mean()),
        ("sim.engine.handler_share", handler_total_ns / 1e9 / dispatch_s),
        (
            "membership.coalescer.call_s",
            tr.total_s(Name::CoalescerCall) + tr.total_s(Name::CoalescerWave),
        ),
        ("membership.waves", run.waves as f64),
        ("membership.mean_batch", ratio(run.batched_joins, run.waves)),
        ("core.insert.joins_ok", t.joins_ok as f64),
        ("core.insert.joins_failed", t.joins_failed as f64),
        ("core.insert.level_timeouts", read(&metrics::INSERT_LEVEL_TIMEOUT) as f64),
        ("core.insert.bookkeeping_s", tr.total_s(Name::InsertBookkeeping)),
        (
            "core.multicast.recipients_per_join",
            ratio(read(&metrics::MULTICAST_RECIPIENTS), t.joins_ok),
        ),
        ("core.multicast.deadline_forced", read(&metrics::MULTICAST_DEADLINE_FORCED) as f64),
        ("core.maintain.probe_call_s", tr.total_s(Name::ProbeCall)),
        ("core.maintain.pings", read(&metrics::REPAIR_PINGS) as f64),
        ("core.maintain.detected_dead", read(&metrics::REPAIR_DETECTED_DEAD) as f64),
        ("repair.facts", read(&metrics::REPAIR_FACTS) as f64),
        ("repair.events", repair_events as f64),
        ("repair.events_per_node_round", ratio(repair_events, node_rounds)),
        ("repair.promotion_share", ratio(read(&metrics::REPAIR_PROMOTIONS), repair_events)),
        ("repair.deferred_budget_share", ratio(deferred, repair_events + deferred)),
        ("repair.overflow", read(&metrics::REPAIR_OVERFLOW) as f64),
        ("workload.traffic.expand_s", tr.total_s(Name::Expand)),
    ]
}

//! Every metric the benchmark reports, by name, with its unit — the one
//! table `BENCHMARK.json`, the printed ledger and the schema self-test
//! are all generated from.

use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// One end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Fixed name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Simulated quantity: repeats exactly for a fixed seed, so the bound
    /// only governs comparisons across commits (and seeds).
    pub simulated: bool,
}

/// Host-time bounds also carry this absolute floor in `--check`, so a
/// sub-second set-up is not judged on scheduler noise.
pub const TIME_FLOOR_S: f64 = 0.15;

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    simulated: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, simulated }
}

/// The end-to-end metrics. Every workload reports every one, and none is
/// ever 0, so each can be compared as a share of a median. The host-time
/// bounds are the widest the contract allows: this box has phases,
/// minutes long, in which the same run takes 15-30 % longer, and a
/// tighter bound would reject a later change for the weather. The
/// simulated bounds are three times the largest across-seed spread seen.
pub const END_TO_END: [EndToEnd; 8] = [
    // wall of the run_instrumented call minus its drive: spec validate,
    // space build, static bootstrap
    end_to_end("setup_s", "s", Lower, 0.25, false),
    // drive seconds plus ScenarioReport::to_json: catalog publish,
    // phases, drains, checks, report
    end_to_end("run_s", "s", Lower, 0.25, false),
    // (completed locates + writes issued) / run_s
    end_to_end("ops_per_s", "ops/s", Higher, 0.25, false),
    // VmHWM of the child after the warm-up and the first timed
    // repetition (one heap): the peak of exactly two runs, whatever
    // `--seconds` adds
    end_to_end("peak_rss_mb", "MB", Lower, 0.10, false),
    // 1 - (lost + not_found + found_dead + joins_failed)
    //     / (locates issued + joins attempted)
    end_to_end("success_share", "ratio", Higher, 0.06, true),
    // simulated locate latency in metric-distance units: median, p99.9
    // (every workload completes >= 10 000 locates)
    end_to_end("sim_locate_lat_p50", "dist", Lower, 0.20, true),
    end_to_end("sim_locate_lat_p999", "dist", Lower, 0.20, true),
    // messages sent / (locates issued + writes): on churn-repair the
    // maintenance overhead per unit of useful work
    end_to_end("sim_msgs_per_op", "msgs/op", Lower, 0.08, true),
];

/// One per-layer metric. Layer names are the crate / module names.
pub struct Layer {
    /// Fixed name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload a change to this row should
    /// show up in; everywhere else the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

/// The per-layer metrics, outside-in.
pub const PER_LAYER: [Layer; 63] = [
    layer("metric.space.build_s", "s", Lower, "setup_s @ bootstrap-checks"),
    layer("metric.index.build_us", "us", Lower, "setup_s @ bootstrap-checks"),
    layer("metric.index.closest_k_ns", "ns", Lower, "setup_s @ bootstrap-checks"),
    layer("core.network.bootstrap_s", "s", Lower, "setup_s @ all, dominant @ bootstrap-checks"),
    layer("core.network.bootstrap_us_per_node", "us", Lower, "setup_s @ bootstrap-checks"),
    layer("core.network.catalog_publish_s", "s", Lower, "run_s @ bootstrap-checks"),
    layer("core.network.catalog_objects", "count", Lower, "run_s @ bootstrap-checks"),
    layer("core.network.check_property1_s", "s", Lower, "run_s @ bootstrap-checks"),
    layer("core.network.check_property2_s", "s", Lower, "run_s @ bootstrap-checks"),
    layer("core.network.distinct_roots_s", "s", Lower, "run_s @ bootstrap-checks"),
    layer("core.network.snapshot_s", "s", Lower, "run_s @ bootstrap-checks"),
    layer("core.network.prop1_violations", "count", Lower, "success_share @ churn-repair"),
    layer("core.network.take_results_s", "s", Lower, "ops_per_s @ locate-steady"),
    layer("core.network.take_results_calls", "count", Lower, "ops_per_s @ locate-steady"),
    layer("core.network.results", "count", Higher, "ops_per_s @ locate-steady"),
    layer("core.route.issue_s", "s", Lower, "ops_per_s @ locate-steady, publish-heavy"),
    layer("core.route.issued", "count", Higher, "ops_per_s @ locate-steady, publish-heavy"),
    layer(
        "core.routing_table.next_hop_ns",
        "ns",
        Lower,
        "ops_per_s @ locate-steady, publish-heavy",
    ),
    layer("core.route.hops_mean", "hops", Lower, "sim_locate_lat_* @ locate-steady"),
    layer("core.route.stretch_p50", "ratio", Lower, "sim_locate_lat_p50 @ locate-steady"),
    layer("core.route.stretch_p99", "ratio", Lower, "sim_locate_lat_p999 @ locate-steady"),
    layer("core.route.root_reach_share", "ratio", Lower, "sim_locate_lat_* @ locate-steady"),
    layer("core.object_store.ptrs_per_publish", "count", Lower, "sim_msgs_per_op @ publish-heavy"),
    layer("core.object_store.ptr_total", "count", Lower, "peak_rss_mb @ publish-heavy"),
    layer("sim.engine.dispatch_s", "s", Lower, "ops_per_s @ locate-steady, publish-heavy"),
    layer("sim.engine.events", "count", Lower, "ops_per_s @ locate-steady, publish-heavy"),
    layer("sim.engine.events_per_s", "ev/s", Higher, "ops_per_s @ all but bootstrap-checks"),
    layer("sim.engine.timer_share", "ratio", Lower, "run_s @ churn-repair"),
    layer("sim.engine.drop_share", "ratio", Lower, "run_s @ churn-repair"),
    layer("sim.engine.handler_deliver_ns_mean", "ns", Lower, "ops_per_s @ locate-steady"),
    layer("sim.engine.handler_timer_ns_mean", "ns", Lower, "run_s @ churn-repair"),
    layer("sim.engine.handler_share", "ratio", Lower, "same as sim.engine.dispatch_s"),
    layer("sim.shard.push_pop_ns", "ns", Lower, "ops_per_s @ locate-steady"),
    layer("membership.coalescer.call_s", "s", Lower, "joins_per_s @ churn-repair"),
    layer("membership.waves", "count", Lower, "joins_per_s @ churn-repair"),
    layer("membership.mean_batch", "count", Higher, "sim_msgs_per_join @ churn-repair"),
    layer("core.insert.joins_ok", "count", Higher, "joins_per_s, fail_share @ churn-repair"),
    layer("core.insert.joins_failed", "count", Lower, "fail_share @ churn-repair"),
    layer("core.insert.level_timeouts", "count", Lower, "joins_per_s @ churn-repair"),
    layer("core.insert.bookkeeping_s", "s", Lower, "joins_per_s @ churn-repair"),
    layer("core.multicast.recipients_per_join", "count", Lower, "sim_msgs_per_join @ churn-repair"),
    layer("core.multicast.deadline_forced", "count", Lower, "sim_msgs_per_join @ churn-repair"),
    layer("core.maintain.probe_call_s", "s", Lower, "run_s @ churn-repair"),
    layer("core.maintain.pings", "count", Lower, "sim_msgs_per_op @ churn-repair"),
    layer("core.maintain.detected_dead", "count", Higher, "success_share @ churn-repair"),
    layer("repair.facts", "count", Lower, "sim_msgs_per_op @ churn-repair"),
    layer("repair.events", "count", Lower, "sim_msgs_per_op, run_s @ churn-repair"),
    layer("repair.events_per_node_round", "count", Lower, "run_s @ churn-repair"),
    layer("repair.promotion_share", "ratio", Higher, "success_share @ churn-repair"),
    layer("repair.deferred_budget_share", "ratio", Lower, "success_share @ churn-repair"),
    layer("repair.overflow", "count", Lower, "success_share @ churn-repair"),
    layer("workload.traffic.expand_s", "s", Lower, "run_s @ publish-heavy"),
    layer("workload.report.to_json_s", "s", Lower, "none expected (guard)"),
    layer("workload.report.bytes", "bytes", Lower, "none expected (guard)"),
    layer("workload.runner.self_s", "s", Lower, "ops_per_s @ locate-steady, publish-heavy"),
    layer("workload.runner.self_share", "ratio", Lower, "ops_per_s @ locate-steady, publish-heavy"),
    layer("workload.runner.replay_match", "0/1", Higher, "marks workload.runner.self_s exact"),
    layer("trace.overhead_share", "ratio", Lower, "none: cost of the traced pass itself"),
    layer(
        "trace.rows_over_run_share",
        "ratio",
        Lower,
        "none: traced rows + self vs untraced run_s",
    ),
    // Defined on churn-repair only (0 elsewhere), so they cannot be
    // end-to-end metrics, which are compared as a share of a median.
    layer("joins_per_s", "joins/s", Higher, "end-to-end on churn-repair: joins_ok / run_s"),
    layer(
        "sim_msgs_per_join",
        "msgs/join",
        Lower,
        "end-to-end on churn-repair: the 4.5 O(log^2 n) quantity",
    ),
    layer("fail_share", "ratio", Lower, "1 - success_share; exactly 0 on the churn-free workloads"),
    layer("sim_locate_samples", "count", Higher, "sample count behind sim_locate_lat_p50 / p999"),
];

/// Seconds one driver run measures for (`--seconds`): repetitions repeat
/// until this much time has passed, and never fewer than [`MIN_REPS`].
pub const RUN_SECONDS: u64 = 15;

/// Timed repetitions per set; a host-time metric is the best of them.
pub const MIN_REPS: usize = 3;

/// `BENCHMARK.json`, generated: the committed file must equal this byte
/// for byte (the schema self-test compares them).
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

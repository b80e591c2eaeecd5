//! The scenario runner: drives a [`TapestryNetwork`] through a
//! [`ScenarioSpec`], interleaving traffic with scripted churn on the
//! simulated clock, harvesting per-op latency/hops/distance into
//! log-bucketed histograms, and running the invariant spot-checks
//! (Properties 1/2, Theorem 2 root uniqueness) between phases.

use crate::churn::ChurnEvent;
use crate::report::{
    ChurnOutcome, HistSummary, InvariantReport, OpStats, PhaseReport, ScenarioReport,
};
use crate::spec::{PhaseSpec, ScenarioSpec, SpaceKind};
use crate::traffic::{ArrivalStream, PopularitySampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::iter::Peekable;
use tapestry_core::TapestryNetwork;
use tapestry_id::{root_id, Guid};
use tapestry_membership::{BatchPolicy, JoinCoalescer};
use tapestry_sim::{Histogram, NodeIdx, SimStats, SimTime, TraceBuf};
use tapestry_trace::{metrics, EngineObservation, SeriesSample, SeriesSampler, TraceId};

/// Latencies are recorded in integer [`SimTime`] units; reports convert
/// them back to metric-distance units.
const LATENCY_SCALE: f64 = 1.0 / SimTime::UNITS_PER_DISTANCE;

/// Past this many members the Theorem 2 spot-check samples a
/// deterministic member stride instead of walking from *every* member —
/// each walk is O(hops), so the exhaustive form is O(n · hops) per
/// sampled GUID and dominated checked phases at 25k+ nodes.
const ROOT_CHECK_MEMBER_SAMPLE: usize = 256;

/// One catalog object: its name and the server currently holding the
/// authoritative replica (re-homed when the server dies).
struct ObjectRec {
    guid: Guid,
    server: NodeIdx,
}

/// Everything the runner needs per event.
#[derive(Debug, PartialEq)]
enum Action {
    /// One application operation (read or write, decided at issue time).
    Op,
    Churn(ChurnEvent),
}

/// One phase's timed events in issue order. Operations are drawn from
/// the arrival stream as they are taken, so only the phase's few
/// scripted membership events are held. At equal instants operations
/// come first, then membership events in generation order.
struct Schedule<'r> {
    ops: Peekable<ArrivalStream<'r>>,
    churn: Peekable<std::vec::IntoIter<(SimTime, ChurnEvent)>>,
}

impl<'r> Schedule<'r> {
    /// The schedule of `phase` over `[start, end)` at `members` live
    /// nodes. `arrival_rng` must be a clone of `rng` taken before this
    /// call: the operations are drawn from it, while `rng` is advanced
    /// past the same arrival draws and then draws the membership events,
    /// as if the whole schedule were drawn from `rng` up front.
    fn new(
        phase: &PhaseSpec,
        start: SimTime,
        end: SimTime,
        members: usize,
        rng: &mut StdRng,
        arrival_rng: &'r mut StdRng,
    ) -> Self {
        phase.traffic.arrival.stream(start, end, rng).for_each(drop);
        let mut churn = churn_events(phase, start, end, members, rng);
        churn.sort_by_key(|&(t, _)| t); // stable: ties keep generation order
        Schedule {
            ops: phase.traffic.arrival.stream(start, end, arrival_rng).peekable(),
            churn: churn.into_iter().peekable(),
        }
    }
}

impl Iterator for Schedule<'_> {
    type Item = (SimTime, Action);

    fn next(&mut self) -> Option<(SimTime, Action)> {
        let op_first = match (self.ops.peek(), self.churn.peek()) {
            (Some(op), Some((ev, _))) => op <= ev,
            (op, _) => op.is_some(),
        };
        if op_first {
            self.ops.next().map(|t| (t, Action::Op))
        } else {
            self.churn.next().map(|(t, ev)| (t, Action::Churn(ev)))
        }
    }
}

/// The scripted membership events of `phase` over `[start, end)`, in
/// generation order: each churn spec's expansion, then the node-count
/// schedule (evenly spaced joins or graceful leaves from `members`
/// toward `target_nodes`).
fn churn_events(
    phase: &PhaseSpec,
    start: SimTime,
    end: SimTime,
    members: usize,
    rng: &mut StdRng,
) -> Vec<(SimTime, ChurnEvent)> {
    let mut out: Vec<(SimTime, ChurnEvent)> =
        phase.churn.iter().flat_map(|c| c.events(start, end, rng)).collect();
    if let Some(target) = phase.target_nodes {
        let (n, ev) = if target >= members {
            (target - members, ChurnEvent::Join)
        } else {
            (members - target, ChurnEvent::Leave { graceful: true, min_nodes: 2 })
        };
        let span = phase.duration.0 as f64;
        for i in 0..n {
            let t = SimTime(start.0 + (span * (i as f64 + 0.5) / n as f64) as u64);
            out.push((t, ev));
        }
    }
    out
}

/// Engine-level totals of one scenario run, for throughput reporting.
///
/// Kept *outside* [`ScenarioReport`] on purpose: the report's JSON is a
/// committed, byte-stable regression artifact, while these totals feed
/// wall-clock-relative figures (events/sec) that only `tapestry-sweep`'s
/// timing file carries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTotals {
    /// Engine events processed (deliveries, timer fires, drops).
    pub events: u64,
    /// Overlay messages sent.
    pub messages: u64,
    /// Timers fired.
    pub timers: u64,
    /// Largest per-node routing table observed at any phase boundary.
    pub peak_table_entries: usize,
    /// Live members at scenario end.
    pub final_nodes: usize,
}

/// Wall-clock observations of one scenario run — machine-dependent by
/// nature, so kept apart from both the byte-stable [`ScenarioReport`]
/// *and* the deterministic [`RunTotals`] (whose equality across runs is
/// itself a regression assertion).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTiming {
    /// Seconds spent in the static bootstrap (`static_populate`).
    pub bootstrap_secs: f64,
    /// Seconds spent driving the scenario after bootstrap (catalog
    /// publication, phases, drains, invariant checks).
    pub drive_secs: f64,
}

/// Deterministic observability output of one instrumented run: the trace
/// collector (when `ScenarioSpec::trace_sample` > 0) and the time-series
/// samples (when `ScenarioSpec::metrics_window` > 0). Everything here is
/// keyed by sim time and byte-identical across runs of the same spec,
/// like the report itself.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// The bounded hop-trace collector, if tracing was on.
    pub trace: Option<TraceBuf>,
    /// The 1-in-N read sampling rate used (0 = tracing off).
    pub trace_sample: u64,
    /// Emitted time-series samples, in time order.
    pub samples: Vec<SeriesSample>,
    /// The sampling window used (0 = sampler off).
    pub metrics_window: u64,
    /// The run's final merged engine stats — the counter/histogram dump
    /// the metrics emitter appends after the time series.
    pub stats: SimStats,
}

impl Telemetry {
    /// The deterministic hop-trace artifact, when tracing was on — the
    /// string CI byte-compares across repeat runs.
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(|buf| tapestry_trace::json::trace_json(buf, self.trace_sample))
    }

    /// The deterministic metrics artifact (time series + final
    /// counter/histogram dump), when the sampler was on.
    pub fn metrics_json(&self) -> Option<String> {
        (self.metrics_window > 0).then(|| {
            tapestry_trace::json::metrics_json(self.metrics_window, &self.samples, &self.stats)
        })
    }
}

impl RunTiming {
    /// Engine events per wall-clock second of the *whole* drive loop —
    /// event dispatch plus between-phase invariant checks and report
    /// assembly (not a pure engine-dispatch rate; at large n the checked
    /// phases' invariant sweeps are a real share of the denominator). 0
    /// when nothing ran.
    pub fn events_per_sec(&self, events: u64) -> f64 {
        if self.drive_secs > 0.0 {
            events as f64 / self.drive_secs
        } else {
            0.0
        }
    }
}

/// Run `spec` to completion and return its report.
///
/// Deterministic: the same spec (including seed) produces a bit-identical
/// report on the same platform.
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioReport, String> {
    run_instrumented(spec).map(|(report, ..)| report)
}

/// [`run`], additionally returning the engine-level [`RunTotals`] the
/// deterministic report deliberately omits, wall-clock [`RunTiming`]
/// (bootstrap vs drive) and the run's [`Telemetry`] (hop traces and
/// time-series samples — empty unless the spec enables them).
#[allow(clippy::type_complexity)] // the four run artifacts, nothing more
pub fn run_instrumented(
    spec: &ScenarioSpec,
) -> Result<(ScenarioReport, RunTotals, RunTiming, Telemetry), String> {
    drive(spec).map(|(artifacts, _)| artifacts)
}

/// [`run_instrumented`], also handing back the network as the run left
/// it (the tests below inspect its tables).
#[allow(clippy::type_complexity)]
fn drive(
    spec: &ScenarioSpec,
) -> Result<((ScenarioReport, RunTotals, RunTiming, Telemetry), TapestryNetwork), String> {
    spec.validate()?;
    let space = spec.build_space();
    let total_points = space.len();
    // Wall-clock here is observation only (RunTiming's bootstrap/drive
    // split); nothing simulated reads it.
    let t0 = std::time::Instant::now(); // tapestry-lint: allow(wall-clock)
    let mut net = TapestryNetwork::bootstrap(spec.cfg, space, spec.seed, spec.initial_nodes);
    let bootstrap_secs = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now(); // tapestry-lint: allow(wall-clock)
    if spec.trace_sample > 0 {
        net.enable_trace(spec.trace_cap);
    }
    let mut series = (spec.metrics_window > 0).then(|| SeriesSampler::new(spec.metrics_window));
    // Reads issued across the whole run; read `trace_sample·k` carries a
    // trace identity (deterministic — the count is part of the schedule).
    let mut read_seq: u64 = 0;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5CE7_A1E5);
    // Join admission: every scripted join goes through the coalescer. A
    // spec without `join_batch` gets a disabled policy, under which a
    // request is a solo join (a wave of one) and pump/force do nothing.
    let mut coalescer = JoinCoalescer::new(spec.join_batch.unwrap_or(BatchPolicy::disabled()));

    // Unoccupied points, lowest first (pop from the back).
    let mut free: Vec<NodeIdx> = (spec.initial_nodes..total_points).rev().collect();
    // Joins/leaves in flight (async protocols polled to completion).
    let mut joining: Vec<NodeIdx> = Vec::new();
    let mut leaving: Vec<NodeIdx> = Vec::new();

    // Publish the catalog before the first phase (setup is not measured).
    let mut objects: Vec<ObjectRec> = Vec::new();
    for _ in 0..spec.objects {
        let server = random_member(&net, &mut rng);
        let guid = net.random_guid();
        net.publish(server, guid);
        objects.push(ObjectRec { guid, server });
    }
    // Setup results (none expected) must not leak into phase 1.
    net.drain_results();

    let mut report = ScenarioReport {
        scenario: spec.name.clone(),
        seed: spec.seed,
        space: match spec.space {
            SpaceKind::Torus { side } => format!("torus({side:.0})"),
            SpaceKind::Grid { side } => format!("grid({side:.0})"),
            SpaceKind::TransitStub { transits, stubs_per_transit, nodes_per_stub } => {
                format!("transit-stub({transits}x{stubs_per_transit}x{nodes_per_stub})")
            }
        },
        capacity: total_points as u64,
        initial_nodes: spec.initial_nodes as u64,
        objects: spec.objects as u64,
        ..Default::default()
    };
    let mut all_latency = Histogram::new();
    let mut all_hops = Histogram::new();
    let mut peak_table_entries = 0usize;

    for phase in &spec.phases {
        let start = net.engine().now();
        let end = start + phase.duration;
        let stats0 = net.engine().stats().clone();
        let nodes_start = net.len() as u64;

        // ----- this phase's event stream, drawn as it is issued --------
        let mut arrival_rng = rng.clone();
        let events = Schedule::new(phase, start, end, net.len(), &mut rng, &mut arrival_rng);

        let sampler = PopularitySampler::new(phase.traffic.popularity, spec.objects);
        let mut ops = OpStats::default();
        let mut churn = ChurnOutcome::default();
        let mut latency = Histogram::new();
        let mut hops = Histogram::new();
        let mut path_dist = Histogram::new();

        // ----- drive the phase -------------------------------------------
        for (t, action) in events {
            net.run_until(t);
            match action {
                Action::Op => {
                    let write = phase.traffic.write_fraction > 0.0
                        && rng.gen_range(0.0..1.0) < phase.traffic.write_fraction;
                    let obj = &mut objects[sampler.sample(&mut rng)];
                    if write {
                        if !net.engine().alive(obj.server) {
                            obj.server = random_member(&net, &mut rng);
                            ops.rehomed += 1;
                        }
                        net.publish_async(obj.server, obj.guid);
                        ops.writes += 1;
                    } else {
                        let origin = random_member(&net, &mut rng);
                        read_seq += 1;
                        if spec.trace_sample > 0 && read_seq.is_multiple_of(spec.trace_sample) {
                            net.locate_async_traced(origin, obj.guid, TraceId::locate(read_seq));
                        } else {
                            net.locate_async(origin, obj.guid);
                        }
                        ops.issued += 1;
                    }
                }
                Action::Churn(ev) => apply_churn(
                    ev,
                    &mut net,
                    &mut rng,
                    &mut coalescer,
                    &mut free,
                    &mut joining,
                    &mut leaving,
                    &mut churn,
                ),
            }
            coalescer.pump(&mut net);
            settle_membership(&mut net, &mut free, &mut joining, &mut leaving, &mut churn, false);
            harvest(&mut net, &mut ops, &mut latency, &mut hops, &mut path_dist);
            poll_series(&net, &mut series);
        }

        // ----- drain and finalize ----------------------------------------
        net.run_until(end);
        net.run_to_idle();
        // Deferred insertees still waiting on a window or wave: flush and
        // fly with whoever finished discovery (the drain above settled
        // it), then drain the waves and table builds too. One pass
        // suffices — `force` launches or abandons every pending wave
        // unconditionally.
        coalescer.force(&mut net);
        net.run_to_idle();
        debug_assert!(coalescer.is_idle(), "force drains the coalescer");
        settle_membership(&mut net, &mut free, &mut joining, &mut leaving, &mut churn, true);
        net.run_to_idle();
        harvest(&mut net, &mut ops, &mut latency, &mut hops, &mut path_dist);
        poll_series(&net, &mut series);
        // The network is idle: whatever has not completed never will.
        ops.lost = ops.issued.saturating_sub(ops.completed);

        let invariants = if phase.checks && !net.partition_active() {
            Some(spot_checks(&net, spec, &objects))
        } else {
            None
        };

        let stats1 = net.engine().stats();
        all_latency.merge(&latency);
        all_hops.merge(&hops);
        let snapshot = net.snapshot();
        peak_table_entries = peak_table_entries.max(snapshot.max_table_entries);
        report.phases.push(PhaseReport {
            name: phase.name.clone(),
            sim_start: start.as_distance(),
            sim_end: net.engine().now().as_distance(),
            nodes_start,
            nodes_end: net.len() as u64,
            ops,
            churn,
            latency: HistSummary::scaled(&latency, LATENCY_SCALE),
            hops: HistSummary::scaled(&hops, 1.0),
            distance: HistSummary::scaled(&path_dist, 1.0),
            messages: stats1.messages - stats0.messages,
            traffic_distance: stats1.distance - stats0.distance,
            dropped: stats1.dropped - stats0.dropped,
            partition_dropped: stats1.partition_dropped - stats0.partition_dropped,
            counters: counter_deltas(stats1, &stats0),
            invariants,
            avg_table_entries: snapshot.avg_table_entries,
        });
    }

    report.finalize(&all_latency, &all_hops, LATENCY_SCALE);
    let stats = net.engine().stats();
    let totals = RunTotals {
        events: net.engine().events_processed(),
        messages: stats.messages,
        timers: stats.timers,
        peak_table_entries,
        final_nodes: net.len(),
    };
    let timing = RunTiming { bootstrap_secs, drive_secs: t1.elapsed().as_secs_f64() };
    if let Some(s) = series.as_mut() {
        s.finish(&observe(&net));
    }
    let telemetry = Telemetry {
        trace: net.engine().stats().trace().cloned(),
        trace_sample: spec.trace_sample,
        samples: series.map(|s| s.samples().to_vec()).unwrap_or_default(),
        metrics_window: spec.metrics_window,
        stats: net.engine().stats().clone(),
    };
    Ok(((report, totals, timing, telemetry), net))
}

/// Snapshot the engine-level state the time-series sampler records.
fn observe(net: &TapestryNetwork) -> EngineObservation {
    let stats = net.engine().stats();
    EngineObservation {
        now: net.engine().now(),
        events_by_kind: net.engine().events_by_kind(),
        messages: stats.messages,
        dropped: stats.dropped,
        live_nodes: net.len() as u64,
        repair_backlog: net.repair_backlog_total(),
        queue_depth: net.engine().pending() as u64,
    }
}

/// Offer the sampler a snapshot, assembling it only when a window has
/// elapsed (the snapshot's backlog scan is O(nodes)).
fn poll_series(net: &TapestryNetwork, series: &mut Option<SeriesSampler>) {
    if let Some(s) = series.as_mut() {
        if s.due(net.engine().now()) {
            s.poll(&observe(net));
        }
    }
}

/// Uniformly random live member (allocation-free: samples the network's
/// sorted member slice directly — this runs once per issued operation).
fn random_member(net: &TapestryNetwork, rng: &mut StdRng) -> NodeIdx {
    let members = net.members();
    members[rng.gen_range(0..members.len())]
}

/// Execute one scripted membership event.
#[allow(clippy::too_many_arguments)] // one slot per membership ledger
fn apply_churn(
    ev: ChurnEvent,
    net: &mut TapestryNetwork,
    rng: &mut StdRng,
    coalescer: &mut JoinCoalescer,
    free: &mut Vec<NodeIdx>,
    joining: &mut Vec<NodeIdx>,
    leaving: &mut Vec<NodeIdx>,
    churn: &mut ChurnOutcome,
) {
    match ev {
        ChurnEvent::Join => match free.pop() {
            Some(idx) => {
                let gw = random_member(net, rng);
                coalescer.request(net, idx, gw);
                joining.push(idx);
            }
            None => churn.joins_skipped += 1,
        },
        ChurnEvent::Leave { graceful, min_nodes } => {
            // Don't pick nodes already on their way out, and keep a floor.
            let candidates: Vec<NodeIdx> =
                net.node_ids().into_iter().filter(|i| !leaving.contains(i)).collect();
            if candidates.len() <= min_nodes.max(2) {
                return;
            }
            let victim = candidates[rng.gen_range(0..candidates.len())];
            if graceful {
                net.leave_async(victim);
                leaving.push(victim);
            } else {
                net.kill(victim);
                churn.kills += 1;
            }
        }
        ChurnEvent::MassFailure { fraction, correlated } => {
            let candidates: Vec<NodeIdx> =
                net.node_ids().into_iter().filter(|i| !leaving.contains(i)).collect();
            let keep_floor = 4usize;
            let n_kill = ((candidates.len() as f64 * fraction.clamp(0.0, 0.9)) as usize)
                .min(candidates.len().saturating_sub(keep_floor));
            if n_kill == 0 {
                return;
            }
            let victims: Vec<NodeIdx> = if correlated {
                // A rack/AZ loss: the n_kill members closest to a pivot.
                let pivot = candidates[rng.gen_range(0..candidates.len())];
                net.rank_by_distance(pivot, candidates).into_iter().take(n_kill).collect()
            } else {
                // Uniform sample without replacement.
                let mut pool = candidates;
                let mut v = Vec::with_capacity(n_kill);
                for _ in 0..n_kill {
                    v.push(pool.swap_remove(rng.gen_range(0..pool.len())));
                }
                v
            };
            for idx in victims {
                net.kill(idx);
                churn.kills += 1;
            }
        }
        ChurnEvent::PartitionStart => {
            let pivot = random_member(net, rng);
            net.partition_around(pivot);
            churn.partitions += 1;
        }
        ChurnEvent::Heal => {
            net.heal_partition();
            churn.heals += 1;
        }
        ChurnEvent::Probe => net.probe_all_async(),
        ChurnEvent::Optimize => net.optimize_all_async(),
    }
}

/// Poll in-flight joins and leaves. At `finalize` (phase end, network
/// idle) anything still incomplete is resolved: stuck inserts are killed
/// (their point returns to the pool) and vanished leavers are dropped.
fn settle_membership(
    net: &mut TapestryNetwork,
    free: &mut Vec<NodeIdx>,
    joining: &mut Vec<NodeIdx>,
    leaving: &mut Vec<NodeIdx>,
    churn: &mut ChurnOutcome,
    finalize: bool,
) {
    joining.retain(|&idx| {
        if net.finish_insert_bookkeeping(idx) {
            churn.joins_ok += 1;
            return false;
        }
        if finalize {
            // Stuck (gateway died, partition): remove the half-built node.
            if net.engine().alive(idx) {
                net.kill(idx);
            }
            free.push(idx);
            churn.joins_failed += 1;
            return false;
        }
        true
    });
    leaving.retain(|&idx| {
        if !net.engine().alive(idx) {
            // Finished earlier or killed mid-departure; either way gone.
            return false;
        }
        if net.finish_leave_bookkeeping(idx) {
            churn.graceful_leaves += 1;
            return false;
        }
        if finalize {
            // The Fig. 12 protocol could not complete (e.g. its acks were
            // cut by a partition): treat as an unannounced failure.
            net.kill(idx);
            churn.kills += 1;
            return false;
        }
        true
    });
}

/// Collect completed locates into the phase accumulators and the
/// engine-level [`SimStats`] histograms. Called after every scheduled
/// event, so it must cost nothing when nothing finished: the network's
/// completion feed names exactly the origins with results, in node
/// order. A result whose origin was killed before this call is gone for
/// good (the op counts as lost); `found_live` / `found_dead` judge the
/// server's liveness as of this call.
fn harvest(
    net: &mut TapestryNetwork,
    ops: &mut OpStats,
    latency: &mut Histogram,
    hops: &mut Histogram,
    path_dist: &mut Histogram,
) {
    let results = net.drain_results();
    if results.is_empty() {
        return;
    }
    let mut live_hits = Vec::new();
    for r in &results {
        ops.completed += 1;
        let lat = (r.completed_at - r.issued_at).0;
        latency.record(lat);
        hops.record(r.hops as u64);
        path_dist.record(r.distance.round().max(0.0) as u64);
        match r.server {
            Some(s) if net.engine().alive(s.idx) => {
                ops.found_live += 1;
                live_hits.push(lat);
            }
            Some(_) => ops.found_dead += 1,
            None => ops.not_found += 1,
        }
    }
    // Mirror into the engine's named histograms so any driver reading
    // SimStats sees the same distributions.
    let stats = net.engine_mut().stats_mut();
    for r in &results {
        metrics::LOCATE_LATENCY_UNITS.record_to(stats, (r.completed_at - r.issued_at).0);
        metrics::LOCATE_HOPS.record_to(stats, r.hops as u64);
    }
    for lat in live_hits {
        metrics::LOCATE_LATENCY_UNITS_FOUND_LIVE.record_to(stats, lat);
    }
}

/// Deltas of the named protocol counters across the phase (only counters
/// that moved).
fn counter_deltas(after: &SimStats, before: &SimStats) -> BTreeMap<String, u64> {
    metrics::counters()
        .filter_map(|c| {
            let d = c.read(after) - c.read(before);
            (d > 0).then(|| (c.name().to_string(), d))
        })
        .collect()
}

/// The between-phase invariant spot-checks: Properties 1 and 2 over the
/// whole mesh, Theorem 2 root uniqueness over a deterministic sample of
/// the catalog.
fn spot_checks(
    net: &TapestryNetwork,
    spec: &ScenarioSpec,
    objects: &[ObjectRec],
) -> InvariantReport {
    let (prop2_optimal, prop2_total) = net.check_property2();
    let sample: Vec<Guid> =
        objects.iter().step_by((objects.len() / 6).max(1)).map(|o| o.guid).collect();
    let mut unique = 0u64;
    for &g in &sample {
        let roots =
            net.distinct_roots_sampled(&root_id(spec.cfg.space, g, 0), ROOT_CHECK_MEMBER_SAMPLE);
        if roots.len() == 1 {
            unique += 1;
        }
    }
    InvariantReport {
        prop1_violations: net.check_property1().len() as u64,
        prop2_optimal: prop2_optimal as u64,
        prop2_total: prop2_total as u64,
        roots_sampled: sample.len() as u64,
        roots_unique: unique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnSpec;
    use crate::presets;
    use tapestry_core::NodeStatus;

    /// Slots of live tables not sorted by `(distance from the owner,
    /// address)`, as `(owner, level, digit)`. A table keeps no distances;
    /// this reads every one from the metric the run used.
    fn slots_out_of_order(net: &TapestryNetwork) -> Vec<(NodeIdx, usize, u8)> {
        let metric = net.engine().metric();
        let mut bad = Vec::new();
        for &owner in net.members() {
            let Some(node) = net.node(owner) else { continue };
            let t = node.table();
            for l in 0..t.levels() {
                for j in 0..t.base() as u8 {
                    let keys: Vec<(f64, NodeIdx)> = t
                        .slot(l, j)
                        .iter()
                        .map(|r| (metric.distance(owner, r.idx), r.idx))
                        .collect();
                    if !keys.windows(2).all(|w| w[0] < w[1]) {
                        bad.push((owner, l, j));
                    }
                }
            }
        }
        bad
    }

    /// Live nodes that joined whose insertion state holds room for more
    /// candidate refs than it may: more than `k` while the join runs, any
    /// once it finished. Also returns how many live nodes joined.
    fn oversized_insertion_state(net: &TapestryNetwork) -> (Vec<(NodeIdx, usize)>, usize) {
        let mut bad = Vec::new();
        let mut joined = 0;
        for &m in net.members() {
            let Some(node) = net.node(m) else { continue };
            let Some((held, k)) = node.insertion_candidates() else { continue };
            joined += 1;
            let allowed = if node.status() == NodeStatus::Inserting { k } else { 0 };
            if held > allowed {
                bad.push((m, held));
            }
        }
        (bad, joined)
    }

    /// The schedule as it was drawn before it was streamed: every
    /// arrival, then every membership event, stable-sorted by time.
    fn materialised_schedule(
        phase: &PhaseSpec,
        start: SimTime,
        end: SimTime,
        members: usize,
        rng: &mut StdRng,
    ) -> Vec<(SimTime, Action)> {
        let mut events: Vec<(SimTime, Action)> = Vec::new();
        for t in phase.traffic.arrival.times(start, end, rng) {
            events.push((t, Action::Op));
        }
        for (t, ev) in churn_events(phase, start, end, members, rng) {
            events.push((t, Action::Churn(ev)));
        }
        events.sort_by_key(|&(t, _)| t);
        events
    }

    /// Stream and materialise each phase of `spec` from `start` on with
    /// the same rng, and require the same events in the same order and
    /// the same rng state after each phase. Returns the streamed events.
    fn assert_streamed_as_materialised(
        spec: &ScenarioSpec,
        mut start: SimTime,
    ) -> Vec<(SimTime, Action)> {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut reference = rng.clone();
        let mut members = spec.initial_nodes;
        let mut all = Vec::new();
        for phase in &spec.phases {
            let end = start + phase.duration;
            let want = materialised_schedule(phase, start, end, members, &mut reference);
            let mut arrival_rng = rng.clone();
            let got: Vec<(SimTime, Action)> =
                Schedule::new(phase, start, end, members, &mut rng, &mut arrival_rng).collect();
            assert_eq!(got, want, "{} seed {} phase {}", spec.name, spec.seed, phase.name);
            assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "{} rng", spec.name);
            all.extend(got);
            start = end;
            members = phase.target_nodes.unwrap_or(members);
        }
        all
    }

    /// The streamed schedule is the materialised one, event for event,
    /// on every preset and on `churn-scale`, over several seeds.
    #[test]
    fn streamed_schedule_is_the_materialised_one() {
        for seed in [1, 7, 42, 1234] {
            let mut specs: Vec<ScenarioSpec> = presets::PRESET_NAMES
                .iter()
                .map(|name| presets::preset(name, 64, 2000, seed).expect("a preset"))
                .collect();
            specs.push(presets::churn_scale_preset(1000, 1000, seed, true));
            for spec in &specs {
                let events = assert_streamed_as_materialised(spec, SimTime(0));
                assert!(events.iter().any(|(_, a)| *a == Action::Op), "{}", spec.name);
            }
        }
    }

    /// Exact ties: ten evenly spaced ops, a ramp of ten joins on the
    /// same instants and a probe on one of them. Each instant issues
    /// its op first, then the membership events in generation order.
    #[test]
    fn ties_issue_the_op_first() {
        let mut spec = ScenarioSpec::new("ties");
        spec.initial_nodes = 32;
        spec.phases = vec![PhaseSpec::new("tied", SimTime(1000))
            .arrival(crate::traffic::Arrival::Even { ops: 10 })
            .churn(ChurnSpec::ProbeAt { at: 0.25 })
            .target_nodes(42)];
        let events = assert_streamed_as_materialised(&spec, SimTime(12_000));
        assert_eq!(events.len(), 21);
        let at = |t: u64| -> Vec<&Action> {
            events.iter().filter(|(e, _)| e.0 == 12_000 + t).map(|(_, a)| a).collect()
        };
        let join = Action::Churn(ChurnEvent::Join);
        assert_eq!(at(250), [&Action::Op, &Action::Churn(ChurnEvent::Probe), &join]);
        for t in (50..1000).step_by(100).filter(|&t| t != 250) {
            assert_eq!(at(t), [&Action::Op, &join], "instant {t}");
        }
    }

    /// Joins, leaves, kills and repair all offer to and evict from the
    /// tables; after each run every slot is still in distance order, and
    /// no joined node keeps more insertion state than Fig. 4's k.
    #[test]
    fn churned_tables_stay_in_distance_order() {
        let runs = [
            presets::preset("churn-storm", 64, 500, 42).expect("a preset"),
            presets::churn_scale_preset(1000, 1000, 42, true),
        ];
        for spec in runs {
            let ((report, ..), net) = drive(&spec).expect("runs");
            let churn: u64 = report.phases.iter().map(|p| p.churn.joins_ok + p.churn.kills).sum();
            assert!(churn > 0, "{}: the run churned", spec.name);
            assert_eq!(slots_out_of_order(&net), [], "{}", spec.name);
            let (oversized, joined) = oversized_insertion_state(&net);
            assert!(joined > 0, "{}: live nodes joined", spec.name);
            assert_eq!(oversized, [], "{}", spec.name);
        }
    }
}

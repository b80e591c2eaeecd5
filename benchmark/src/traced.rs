//! The traced pass: the benchmark's own drive loop, with a span around
//! every call into a layer's public functions.
//!
//! The loop expands the schedule with the public generators
//! (`Arrival::times`, `ChurnSpec::events`, `PopularitySampler`) using the
//! same seed derivation and draw order as `tapestry_workload::runner`, so
//! its deterministic totals equal the untraced run's exactly; the ledger
//! reports that as `workload.runner.replay_match`. Only the schedule
//! features the four workloads use are replayed (ops, batched joins,
//! unannounced kills, probe rounds); anything else is refused.

use crate::api::{
    root_id, ChurnEvent, Guid, JoinCoalescer, LocateResult, NodeIdx, PopularitySampler, Rng,
    ScenarioSpec, SeedableRng, SimTime, StdRng, TapestryNetwork,
};
use crate::spans::{Name, Tracer};
use std::collections::BTreeMap;

/// Seed derivation of the runner's schedule stream.
const SCHEDULE_SEED_XOR: u64 = 0x5CE7_A1E5;
/// The runner's member cap for the Theorem 2 spot-check.
const ROOT_CHECK_MEMBER_SAMPLE: usize = 256;

/// What the traced pass observed, besides its spans.
pub struct TracedRun {
    /// Every span and aggregate.
    pub tracer: Tracer,
    /// The network as the run left it (the microprobes read it).
    pub net: TapestryNetwork,
    /// Counts made at the layer boundaries.
    pub tally: Tally,
    /// Engine events processed, whole run.
    pub events: u64,
    /// Messages sent, whole run.
    pub messages: u64,
    /// Object pointers the catalog publication deposited, mesh-wide.
    pub catalog_ptrs: u64,
    /// Object pointers held mesh-wide at the end.
    pub ptr_total: u64,
    /// Shared waves the coalescer launched.
    pub waves: u64,
    /// Joins carried by those waves.
    pub batched_joins: u64,
}

/// Counts the loop makes where the work happens.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Events processed inside this loop's `run_until` / `run_to_idle`.
    pub dispatch_events: u64,
    /// Locates issued.
    pub issued: u64,
    /// Writes issued.
    pub writes: u64,
    /// Locate results collected.
    pub completed: u64,
    /// Calls to `take_results`.
    pub take_results_calls: u64,
    /// Results that went all the way to the root.
    pub reached_root: u64,
    /// Sum of hops over the results.
    pub hops_sum: u64,
    /// Stretch of every result with a live replica, sorted at the end.
    pub stretch: Vec<f64>,
    /// Joins completed.
    pub joins_ok: u64,
    /// Joins still incomplete at a phase end (killed off).
    pub joins_failed: u64,
    /// Probe rounds started.
    pub probe_rounds: u64,
    /// Spot-check results summed over the checked phases.
    pub invariants: Invariants,
}

/// Spot-check results summed over the checked phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Invariants {
    /// Property 1 violations.
    pub prop1_violations: u64,
    /// Property 2 slots whose primary is the true closest match.
    pub prop2_optimal: u64,
    /// Property 2 slots checked.
    pub prop2_total: u64,
    /// GUIDs sampled for Theorem 2.
    pub roots_sampled: u64,
    /// Sampled GUIDs with one agreed root.
    pub roots_unique: u64,
}

enum Action {
    Op,
    Churn(ChurnEvent),
}

struct ObjectRec {
    guid: Guid,
    server: NodeIdx,
}

fn random_member(net: &TapestryNetwork, rng: &mut StdRng) -> NodeIdx {
    let members = net.members();
    members[rng.gen_range(0..members.len())]
}

fn ptr_total(net: &TapestryNetwork) -> u64 {
    net.members().iter().filter_map(|&m| net.node(m)).map(|n| n.store().ptr_count() as u64).sum()
}

/// Drive `spec` from this loop, spans around every layer call. With
/// `profile`, `Engine::set_profile` is on from the end of catalog
/// publication: its two clock reads and histogram insert per event cost
/// 150–400 ns each, so a profiled pass is read for `handler_ns` only and
/// an unprofiled one for the spans.
pub fn run(spec: &ScenarioSpec, profile: bool) -> Result<TracedRun, String> {
    spec.validate()?;
    if spec.threads != 1 || spec.trace_sample != 0 || spec.metrics_window != 0 {
        return Err("traced pass replays single-threaded, untelemetered specs only".into());
    }
    let mut tr = Tracer::new();

    let s = tr.open(Name::SpaceBuild);
    let space = spec.build_space();
    tr.close(s);
    let total_points = space.len();
    let s = tr.open(Name::Bootstrap);
    let mut net =
        TapestryNetwork::bootstrap_threaded(spec.cfg, space, spec.seed, spec.initial_nodes, 1);
    tr.close(s);

    let run_span = tr.open(Name::Run);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ SCHEDULE_SEED_XOR);
    let mut coalescer = spec.join_batch.map(JoinCoalescer::new);
    let mut free: Vec<NodeIdx> = (spec.initial_nodes..total_points).rev().collect();
    let mut joining: Vec<NodeIdx> = Vec::new();

    let ptrs_before = ptr_total(&net);
    let s = tr.open(Name::Catalog);
    let mut objects: Vec<ObjectRec> = Vec::with_capacity(spec.objects);
    for _ in 0..spec.objects {
        let server = random_member(&net, &mut rng);
        let guid = net.random_guid();
        net.publish(server, guid);
        objects.push(ObjectRec { guid, server });
    }
    net.drain_results();
    tr.close(s);
    // Where each object's one replica lives (re-homed when it dies).
    let mut replica: BTreeMap<Guid, NodeIdx> = objects.iter().map(|o| (o.guid, o.server)).collect();
    let catalog_ptrs = ptr_total(&net) - ptrs_before;
    // Profile from here on, so handler time covers exactly the events
    // this loop dispatches (the catalog's drains ran inside `publish`).
    net.engine_mut().set_profile(profile);

    let mut tally = Tally::default();
    let mut op_id: u64 = 0;

    for phase in &spec.phases {
        if phase.target_nodes.is_some() {
            return Err(format!("phase '{}': node-count ramps are not replayed", phase.name));
        }
        let phase_span = tr.open(Name::Phase);
        let start = net.engine().now();
        let end = start + phase.duration;

        let s = tr.open(Name::Expand);
        let mut events: Vec<(SimTime, Action)> = Vec::new();
        for t in phase.traffic.arrival.times(start, end, &mut rng) {
            events.push((t, Action::Op));
        }
        for c in &phase.churn {
            for (t, ev) in c.events(start, end, &mut rng) {
                events.push((t, Action::Churn(ev)));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        let sampler = PopularitySampler::new(phase.traffic.popularity, spec.objects);
        tr.close(s);

        let mut pending: BTreeMap<NodeIdx, u64> = BTreeMap::new();
        for (t, action) in events {
            op_id += 1;
            let t0 = tr.now();
            tally.dispatch_events += net.run_until(t);
            tr.op(Name::Dispatch, t0, op_id);
            match action {
                Action::Op => {
                    let write = phase.traffic.write_fraction > 0.0
                        && rng.gen_range(0.0..1.0) < phase.traffic.write_fraction;
                    let obj = &mut objects[sampler.sample(&mut rng)];
                    if write {
                        if !net.engine().alive(obj.server) {
                            obj.server = random_member(&net, &mut rng);
                            replica.insert(obj.guid, obj.server);
                        }
                        let t0 = tr.now();
                        net.publish_async(obj.server, obj.guid);
                        tr.op(Name::Issue, t0, op_id);
                        tally.writes += 1;
                    } else {
                        let origin = random_member(&net, &mut rng);
                        let t0 = tr.now();
                        net.locate_async(origin, obj.guid);
                        tr.op(Name::Issue, t0, op_id);
                        *pending.entry(origin).or_insert(0) += 1;
                        tally.issued += 1;
                    }
                }
                Action::Churn(ChurnEvent::Join) => {
                    let c = coalescer.as_mut().ok_or("only batched joins are replayed")?;
                    // A Poisson join stream can outrun the free points;
                    // the runner skips those joins without a draw.
                    if let Some(idx) = free.pop() {
                        let gw = random_member(&net, &mut rng);
                        coalescer_call(&mut tr, c, &mut net, op_id, |c, net| {
                            c.request(net, idx, gw)
                        });
                        joining.push(idx);
                    }
                }
                Action::Churn(ChurnEvent::Leave { graceful: false, min_nodes }) => {
                    if net.len() > min_nodes.max(2) {
                        let victim = random_member(&net, &mut rng);
                        net.kill(victim);
                    }
                }
                Action::Churn(ChurnEvent::Probe) => {
                    let s = tr.open(Name::ProbeCall);
                    net.probe_all_async();
                    tr.close(s);
                    tally.probe_rounds += 1;
                }
                Action::Churn(other) => {
                    return Err(format!("churn event {other:?} is not replayed"));
                }
            }
            if let Some(c) = coalescer.as_mut() {
                coalescer_call(&mut tr, c, &mut net, op_id, |c, net| c.pump(net));
            }
            if !joining.is_empty() {
                let t0 = tr.now();
                joining.retain(|&idx| {
                    let done = net.finish_insert_bookkeeping(idx);
                    tally.joins_ok += u64::from(done);
                    !done
                });
                tr.op(Name::InsertBookkeeping, t0, op_id);
            }
            harvest(&mut tr, &mut net, &mut pending, &replica, &mut tally, op_id);
        }

        op_id += 1;
        let t0 = tr.now();
        tally.dispatch_events += net.run_until(end);
        tally.dispatch_events += net.run_to_idle();
        tr.op(Name::Dispatch, t0, op_id);
        if let Some(c) = coalescer.as_mut() {
            coalescer_call(&mut tr, c, &mut net, op_id, |c, net| c.force(net));
            let t0 = tr.now();
            tally.dispatch_events += net.run_to_idle();
            tr.op(Name::Dispatch, t0, op_id);
        }
        let t0 = tr.now();
        joining.retain(|&idx| {
            if net.finish_insert_bookkeeping(idx) {
                tally.joins_ok += 1;
                return false;
            }
            // Stuck (gateway died): remove the half-built node.
            if net.engine().alive(idx) {
                net.kill(idx);
            }
            free.push(idx);
            tally.joins_failed += 1;
            false
        });
        tr.op(Name::InsertBookkeeping, t0, op_id);
        let t0 = tr.now();
        tally.dispatch_events += net.run_to_idle();
        tr.op(Name::Dispatch, t0, op_id);
        harvest(&mut tr, &mut net, &mut pending, &replica, &mut tally, op_id);

        if phase.checks && !net.partition_active() {
            spot_checks(&mut tr, &net, spec, &objects, &mut tally.invariants);
        }
        let s = tr.open(Name::Snapshot);
        std::hint::black_box(net.snapshot());
        tr.close(s);
        tr.close(phase_span);
    }
    tr.close(run_span);

    tally.stretch.sort_by(f64::total_cmp);
    let outcome = coalescer.map(|c| c.outcome()).unwrap_or_default();
    Ok(TracedRun {
        events: net.engine().events_processed(),
        messages: net.engine().stats().messages,
        catalog_ptrs,
        ptr_total: ptr_total(&net),
        waves: outcome.waves,
        batched_joins: outcome.batched_joins,
        tally,
        tracer: tr,
        net,
    })
}

/// One coalescer call under a span: kept in full when it launched a wave,
/// aggregated otherwise.
fn coalescer_call(
    tr: &mut Tracer,
    c: &mut JoinCoalescer,
    net: &mut TapestryNetwork,
    op_id: u64,
    call: impl FnOnce(&mut JoinCoalescer, &mut TapestryNetwork),
) {
    let waves = c.outcome().waves;
    let t0 = tr.now();
    call(c, net);
    if c.outcome().waves > waves {
        let s = tr.open_at(Name::CoalescerWave, t0);
        tr.close(s);
    } else {
        tr.op(Name::CoalescerCall, t0, op_id);
    }
}

/// Collect completed locates: one polling pass over the origins with
/// ops in flight (the runner's rule), then this loop's own accounting.
fn harvest(
    tr: &mut Tracer,
    net: &mut TapestryNetwork,
    pending: &mut BTreeMap<NodeIdx, u64>,
    replica: &BTreeMap<Guid, NodeIdx>,
    tally: &mut Tally,
    op_id: u64,
) {
    if pending.is_empty() {
        return;
    }
    // The pass below runs hundreds of millions of times per run, so it
    // is the runner's loop to the instruction: anything added per call
    // (a counter, a tuple) would show up as tracing overhead.
    let mut results: Vec<LocateResult> = Vec::new();
    let mut origins: Vec<(NodeIdx, usize)> = Vec::new();
    let polled = pending.len() as u64;
    let mut dead = 0u64;
    let t0 = tr.now();
    pending.retain(|&origin, in_flight| {
        if !net.engine().alive(origin) {
            dead += 1;
            return false;
        }
        let collected = net.take_results(origin);
        if !collected.is_empty() {
            origins.push((origin, collected.len()));
        }
        *in_flight = in_flight.saturating_sub(collected.len() as u64);
        results.extend(collected);
        *in_flight > 0
    });
    tr.op(Name::TakeResults, t0, op_id);
    tally.take_results_calls += polled - dead;
    let origin_of = origins.iter().flat_map(|&(origin, n)| std::iter::repeat_n(origin, n));
    for (origin, r) in origin_of.zip(results) {
        tally.completed += 1;
        tally.hops_sum += u64::from(r.hops);
        tally.reached_root += u64::from(r.reached_root);
        // The catalog keeps one replica per object, so the distance to
        // it is the stretch denominator without a scan of every member.
        let server = replica[&r.guid];
        if net.engine().alive(server) {
            let direct = net.engine().metric().distance(origin, server);
            debug_assert_eq!(Some(direct), net.nearest_replica_distance(origin, r.guid));
            tally.stretch.extend(r.stretch(direct));
        }
    }
}

/// The runner's between-phase spot-checks, one span per call.
fn spot_checks(
    tr: &mut Tracer,
    net: &TapestryNetwork,
    spec: &ScenarioSpec,
    objects: &[ObjectRec],
    inv: &mut Invariants,
) {
    let s = tr.open(Name::CheckP2);
    let (optimal, total) = net.check_property2();
    tr.close(s);
    inv.prop2_optimal += optimal as u64;
    inv.prop2_total += total as u64;

    let s = tr.open(Name::DistinctRoots);
    let member_cap = if spec.exhaustive_checks { usize::MAX } else { ROOT_CHECK_MEMBER_SAMPLE };
    for o in objects.iter().step_by((objects.len() / 6).max(1)) {
        let roots = net.distinct_roots_sampled(&root_id(spec.cfg.space, o.guid, 0), member_cap);
        inv.roots_sampled += 1;
        inv.roots_unique += u64::from(roots.len() == 1);
    }
    tr.close(s);

    let s = tr.open(Name::CheckP1);
    inv.prop1_violations += net.check_property1().len() as u64;
    tr.close(s);
}

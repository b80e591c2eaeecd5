//! The four benchmark workloads. Names are fixed: later issues cite them.
//!
//! Specs are built from the `ScenarioSpec` / `PhaseSpec` builders with the
//! preset parameters copied in, not through `scale_preset` /
//! `churn_scale_preset`, so the pinned API stays the builder surface.

use crate::api::{
    Arrival, BatchPolicy, ChurnSpec, MaintenanceMode, PhaseSpec, Popularity, ScenarioSpec, SimTime,
    TapestryConfig,
};

/// One workload: its fixed name and the reason it exists.
pub struct Workload {
    /// Fixed name (CLI value, report key, `BENCHMARK.json` entry).
    pub name: &'static str,
    /// Which layers it loads and which it leaves idle, in one line.
    pub why: &'static str,
    /// Whether membership changes during the run (selects output checks).
    pub churn: bool,
}

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "locate-steady",
        why: "read path under load on 10k nodes: engine dispatch, next_hop, pointer lookup and \
              the runner's per-op bookkeeping; bootstrap and checks stay under 10 %",
        churn: false,
    },
    Workload {
        name: "publish-heavy",
        why: "same mesh, 80 % writes: publishes walk to the root and write ObjectStore \
              pointers, so a read-side gain that taxes writes shows here",
        churn: false,
    },
    Workload {
        name: "bootstrap-checks",
        why: "25k nodes, few ops: metric index, static bootstrap, catalog publish and the \
              Property 1/2 sweeps dominate; an engine or route change predicts no change",
        churn: false,
    },
    Workload {
        name: "churn-repair",
        why: "5k nodes with batched joins, unannounced kills, probes and incremental repair: \
              membership, failure detection, repair scheduler and timers do the work",
        churn: true,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Full size (the numbers that are reported) or the seconds-long smoke
/// size the self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the README baseline was measured at.
    Full,
    /// 256 nodes, at most 3 000 ops.
    Smoke,
}

/// Torus side for `nodes` nodes at the density of the 64-node /
/// side-1000 anchor every preset uses (the `scale` family's rule).
pub fn scale_side(nodes: usize) -> f64 {
    1000.0 * (nodes as f64 / 64.0).sqrt()
}

fn d(units: f64) -> SimTime {
    SimTime::from_distance(units)
}

/// Build workload `name` for `seed`. `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<ScenarioSpec> {
    let smoke = size == Size::Smoke;
    let spec = match name {
        "locate-steady" => {
            let (nodes, ops) = if smoke { (256, 3_000) } else { (10_000, LOCATE_STEADY_OPS) };
            let zipf = Popularity::Zipf { exponent: 1.1 };
            loaded_mesh(name, nodes, ops, LOCATE_STEADY_OPS_PER_WINDOW, zipf, 0.1)
        }
        "publish-heavy" => {
            let (nodes, ops) = if smoke { (256, 3_000) } else { (10_000, PUBLISH_HEAVY_OPS) };
            loaded_mesh(name, nodes, ops, PUBLISH_HEAVY_OPS_PER_WINDOW, Popularity::Uniform, 0.8)
        }
        "bootstrap-checks" => {
            let (nodes, ops) = if smoke { (256, 2_000) } else { (25_000, 20_000) };
            bootstrap_checks(name, nodes, ops)
        }
        "churn-repair" => {
            let (nodes, joins, ops) = if smoke { (256, 32, 2_000) } else { (5_000, 312, 20_000) };
            churn_repair(name, nodes, joins, ops)
        }
        _ => return None,
    };
    Some(spec.seed(seed))
}

/// Ops of the two loaded-mesh workloads at full size. The offered rate —
/// ops per simulated distance unit — is what loads a DOLR, so the phase
/// duration is derived from the op count at the fixed rates below and
/// scaling the ops to fit a time budget leaves the regime unchanged.
const LOCATE_STEADY_OPS: u64 = 300_000;
const PUBLISH_HEAVY_OPS: u64 = 550_000;

/// Offered rate of the loaded-mesh workloads: 800 000 ops per
/// 600 000·`st` distance units for `locate-steady` (about 0.1 locate in
/// flight per node), and 1.5× that op count in the same window for
/// `publish-heavy`.
const LOCATE_STEADY_OPS_PER_WINDOW: f64 = 800_000.0;
const PUBLISH_HEAVY_OPS_PER_WINDOW: f64 = 1_200_000.0;
const LOADED_WINDOW: f64 = 600_000.0;

/// `locate-steady` / `publish-heavy`: one checked phase of Poisson
/// traffic on a static mesh with half as many objects as nodes.
fn loaded_mesh(
    name: &str,
    nodes: usize,
    ops: u64,
    per_window: f64,
    popularity: Popularity,
    writes: f64,
) -> ScenarioSpec {
    let side = scale_side(nodes);
    let st = side / 1000.0;
    // Smoke meshes are 40× smaller, so the same ops-per-window rate would
    // put every node under load; keep the per-node rate instead.
    let rate = per_window / LOADED_WINDOW * (nodes as f64 / 10_000.0);
    let duration = ops as f64 / rate * st;
    ScenarioSpec::new(name)
        .capacity(nodes)
        .initial_nodes(nodes)
        .objects(nodes / 2)
        .torus(side)
        .phase(
            PhaseSpec::new("load", d(duration))
                .arrival(Arrival::Poisson { ops })
                .popularity(popularity)
                .writes(writes)
                .checked(),
        )
}

/// `bootstrap-checks`: the `scale` preset's two checked phases on a mesh
/// large enough that set-up and the Θ(n) sweeps are the run.
fn bootstrap_checks(name: &str, nodes: usize, ops: u64) -> ScenarioSpec {
    let side = scale_side(nodes);
    let st = side / 1000.0;
    ScenarioSpec::new(name)
        .capacity(nodes)
        .initial_nodes(nodes)
        .objects(nodes / 2)
        .torus(side)
        .phase(
            PhaseSpec::new("warmup", d(15_000.0 * st))
                .arrival(Arrival::Even { ops: ops / 5 })
                .popularity(Popularity::Uniform)
                .checked(),
        )
        .phase(
            PhaseSpec::new("steady", d(60_000.0 * st))
                .arrival(Arrival::Poisson { ops: ops * 4 / 5 })
                .popularity(Popularity::Zipf { exponent: 1.1 })
                .writes(0.1)
                .checked(),
        )
}

/// `churn-repair`: the `churn-scale` three phases (warmup / churn with
/// joins, half as many unannounced kills and a probe / settle, checked),
/// on the only paths ROADMAP intends to keep: batched joins and
/// incremental repair at the default budget.
fn churn_repair(name: &str, nodes: usize, joins: u64, ops: u64) -> ScenarioSpec {
    let side = scale_side(nodes);
    let st = side / 1000.0;
    let cfg = TapestryConfig {
        insert_level_timeout: d(5_000.0 * st),
        maintenance: MaintenanceMode::Incremental,
        ..Default::default()
    };
    let zipf = Popularity::Zipf { exponent: 1.1 };
    ScenarioSpec::new(name)
        .config(cfg)
        .capacity(nodes + joins as usize)
        .initial_nodes(nodes)
        .objects(nodes / 2)
        .torus(side)
        .join_batch(BatchPolicy {
            window: d(2_500.0 * st),
            max_batch: 64,
            ready_timeout: d(10_000.0 * st),
        })
        .phase(
            PhaseSpec::new("warmup", d(15_000.0 * st))
                .arrival(Arrival::Even { ops: ops / 5 })
                .popularity(zipf)
                .checked(),
        )
        .phase(
            PhaseSpec::new("churn", d(60_000.0 * st))
                .arrival(Arrival::Poisson { ops: ops * 3 / 5 })
                .popularity(zipf)
                .writes(0.1)
                .churn(ChurnSpec::Churn {
                    joins,
                    leaves: joins / 2,
                    graceful: false,
                    min_nodes: nodes / 2,
                })
                .churn(ChurnSpec::ProbeAt { at: 0.55 }),
        )
        .phase(
            PhaseSpec::new("settle", d(25_000.0 * st))
                .arrival(Arrival::Poisson { ops: ops / 5 })
                .popularity(zipf)
                .writes(0.2)
                .churn(ChurnSpec::ProbeAt { at: 0.05 })
                .checked(),
        )
}

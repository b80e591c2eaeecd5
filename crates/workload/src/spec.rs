//! The declarative scenario language: a [`ScenarioSpec`] composes traffic
//! and churn generators over simulated-time phases with a node-count
//! schedule, all through a plain-Rust builder (std-only — no macros, no
//! external derive machinery).

use crate::churn::ChurnSpec;
use crate::traffic::{Arrival, Popularity};
use tapestry_core::{TapestryConfig, MAX_NODES};
use tapestry_membership::BatchPolicy;
use tapestry_metric::{GridSpace, MetricSpace, TorusSpace, TransitStubSpace};
use tapestry_sim::SimTime;

/// Which metric substrate the scenario runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpaceKind {
    /// Uniform points on a 2-D torus of the given side (the canonical
    /// growth-restricted metric).
    Torus {
        /// Side length.
        side: f64,
    },
    /// A √n × √n grid scaled to the given side.
    Grid {
        /// Side length.
        side: f64,
    },
    /// A transit-stub topology (§6.2–6.3): clustered stubs with a ≥10×
    /// intra/inter-stub latency gap. Capacity is the product of the three
    /// shape parameters.
    TransitStub {
        /// Transit domains.
        transits: usize,
        /// Stub networks per transit domain.
        stubs_per_transit: usize,
        /// Nodes per stub network.
        nodes_per_stub: usize,
    },
}

/// The traffic mix of one phase: when ops arrive, which objects they
/// touch, and how many are writes (republishes) vs reads (locates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Arrival process.
    pub arrival: Arrival,
    /// Object-popularity distribution.
    pub popularity: Popularity,
    /// Fraction of ops that are writes — a republish of the drawn object
    /// from its server (re-homed to a live node if the server died).
    pub write_fraction: f64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec { arrival: Arrival::None, popularity: Popularity::Uniform, write_fraction: 0.0 }
    }
}

/// One simulated-time phase of a scenario.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Phase label (report key).
    pub name: String,
    /// Simulated duration.
    pub duration: SimTime,
    /// Traffic during the phase.
    pub traffic: TrafficSpec,
    /// Scripted membership dynamics.
    pub churn: Vec<ChurnSpec>,
    /// Node-count schedule: ramp the membership linearly toward this
    /// count across the phase (joins or voluntary leaves, evenly spaced).
    pub target_nodes: Option<usize>,
    /// Run the invariant spot-checks (Properties 1/2, Theorem 2 root
    /// uniqueness) at the end of the phase. Skipped automatically while a
    /// partition is in force.
    pub checks: bool,
}

impl PhaseSpec {
    /// A quiet phase of the given simulated duration.
    pub fn new(name: &str, duration: SimTime) -> Self {
        PhaseSpec {
            name: name.to_string(),
            duration,
            traffic: TrafficSpec::default(),
            churn: Vec::new(),
            target_nodes: None,
            checks: false,
        }
    }

    /// Set the arrival process.
    pub fn arrival(mut self, a: Arrival) -> Self {
        self.traffic.arrival = a;
        self
    }

    /// Set the popularity distribution.
    pub fn popularity(mut self, p: Popularity) -> Self {
        self.traffic.popularity = p;
        self
    }

    /// Set the write (republish) fraction.
    pub fn writes(mut self, fraction: f64) -> Self {
        self.traffic.write_fraction = fraction;
        self
    }

    /// Add one churn script.
    pub fn churn(mut self, c: ChurnSpec) -> Self {
        self.churn.push(c);
        self
    }

    /// Ramp membership toward `n` nodes across the phase.
    pub fn target_nodes(mut self, n: usize) -> Self {
        self.target_nodes = Some(n);
        self
    }

    /// Run invariant spot-checks at the end of the phase.
    pub fn checked(mut self) -> Self {
        self.checks = true;
        self
    }
}

/// A full scenario: substrate, overlay configuration, object catalog and
/// a sequence of phases.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (report key).
    pub name: String,
    /// Master seed: identical seeds reproduce identical reports.
    pub seed: u64,
    /// Overlay configuration. The runner requires `republish_interval`
    /// and `heartbeat_interval` to stay `ZERO` (it drives repair rounds
    /// explicitly so phases have crisp boundaries).
    pub cfg: TapestryConfig,
    /// Metric substrate.
    pub space: SpaceKind,
    /// Total points in the space — the ceiling on concurrent + future
    /// members (joins draw from unused points).
    pub capacity: usize,
    /// Statically bootstrapped members at scenario start.
    pub initial_nodes: usize,
    /// Catalog size: objects published before the first phase.
    pub objects: usize,
    /// Unread: a run has one worker. The field stays, initialised to 1,
    /// only because the standalone `benchmark/` package names it
    /// (`benchmark/src/api.rs`, `benchmark/src/traced.rs`); nothing in
    /// the workspace reads it, and the benchmark-only PR that re-points
    /// `benchmark/` deletes it, as it does `MaintenanceMode`.
    pub threads: usize,
    /// Join coalescing policy for the `tapestry_membership::JoinCoalescer`
    /// every scripted join goes through: joins sharing the window ride
    /// one shared multicast wave. `None` (the default) runs the
    /// coalescer under a disabled policy, so each join is a solo join —
    /// a wave of one.
    pub join_batch: Option<BatchPolicy>,
    /// Unread: the Theorem 2 spot-check always walks from a deterministic
    /// ≤256-member sample (every member of a smaller network). The field
    /// stays, always `false`, only because the standalone `benchmark/`
    /// package reads it (`benchmark/src/traced.rs`); nothing in the
    /// workspace sets or reads it, and the benchmark-only PR that
    /// re-points `benchmark/` deletes it with `threads`.
    pub exhaustive_checks: bool,
    /// Hop-trace sampling: every `trace_sample`-th issued read carries a
    /// trace identity and its routing hops are recorded (0 = tracing off,
    /// the default — the send path then costs one branch per hop).
    pub trace_sample: u64,
    /// Capacity of the bounded trace collector; overflow past it is
    /// counted, not stored.
    pub trace_cap: usize,
    /// Time-series sampling window in sim-time units (0 = sampler off,
    /// the default). Samples are keyed by sim time, so the series is
    /// byte-identical across runs of the same spec.
    pub metrics_window: u64,
    /// The phases, run in order.
    pub phases: Vec<PhaseSpec>,
}

impl ScenarioSpec {
    /// A scenario skeleton with paper-default configuration: a side-1000
    /// torus, 64 of 64 points bootstrapped, a 32-object catalog.
    pub fn new(name: &str) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            seed: 42,
            cfg: TapestryConfig::default(),
            space: SpaceKind::Torus { side: 1000.0 },
            capacity: 64,
            initial_nodes: 64,
            objects: 32,
            threads: 1,
            join_batch: None,
            exhaustive_checks: false,
            trace_sample: 0,
            trace_cap: 4096,
            metrics_window: 0,
            phases: Vec::new(),
        }
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the overlay configuration.
    pub fn config(mut self, cfg: TapestryConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Run over a torus of side `side`.
    pub fn torus(mut self, side: f64) -> Self {
        self.space = SpaceKind::Torus { side };
        self
    }

    /// Run over a grid of side `side`.
    pub fn grid(mut self, side: f64) -> Self {
        self.space = SpaceKind::Grid { side };
        self
    }

    /// Run over a transit-stub topology of the given shape. Also sets the
    /// capacity to the shape's node count (the space is not resizable).
    pub fn transit_stub(
        mut self,
        transits: usize,
        stubs_per_transit: usize,
        nodes_per_stub: usize,
    ) -> Self {
        self.space = SpaceKind::TransitStub { transits, stubs_per_transit, nodes_per_stub };
        self.capacity = transits * stubs_per_transit * nodes_per_stub;
        self
    }

    /// Coalesce scripted joins into shared multicast waves under
    /// `policy` (see `tapestry_membership::JoinCoalescer`).
    pub fn join_batch(mut self, policy: BatchPolicy) -> Self {
        self.join_batch = Some(policy);
        self
    }

    /// Cap the repair scheduler at `per_sec` released tasks per node per
    /// maintenance second (zero freezes the scheduler without losing
    /// facts).
    pub fn repair_budget(mut self, per_sec: u32) -> Self {
        self.cfg.repairs_per_sec_per_node = per_sec;
        self
    }

    /// Scripted probe rounds across the whole scenario: each `ProbeAt`
    /// fires one failure-detection round that feeds the repair ledger.
    /// The divisor of every "repairs per node per round" figure.
    pub fn probe_rounds(&self) -> usize {
        let probes = |p: &PhaseSpec| {
            p.churn.iter().filter(|c| matches!(c, ChurnSpec::ProbeAt { .. })).count()
        };
        self.phases.iter().map(probes).sum()
    }

    /// Trace every `n`-th issued read's routing hops (0 turns tracing
    /// off). Joins and repair actions are traced whenever sampling is on.
    pub fn trace_sample(mut self, n: u64) -> Self {
        self.trace_sample = n;
        self
    }

    /// Bound the trace collector at `cap` records (overflow is counted).
    pub fn trace_cap(mut self, cap: usize) -> Self {
        self.trace_cap = cap.max(1);
        self
    }

    /// Emit one time-series sample per `window` sim-time units (0 turns
    /// the sampler off).
    pub fn metrics_window(mut self, window: u64) -> Self {
        self.metrics_window = window;
        self
    }

    /// Set the point capacity (bootstrapped + joinable).
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = n;
        self
    }

    /// Set the bootstrapped member count.
    pub fn initial_nodes(mut self, n: usize) -> Self {
        self.initial_nodes = n;
        self
    }

    /// Set the object-catalog size.
    pub fn objects(mut self, n: usize) -> Self {
        self.objects = n;
        self
    }

    /// Append a phase.
    pub fn phase(mut self, p: PhaseSpec) -> Self {
        self.phases.push(p);
        self
    }

    /// Materialize the metric substrate (seeded from the scenario seed).
    /// A grid rounds the capacity up to the next perfect square.
    pub fn build_space(&self) -> Box<dyn MetricSpace> {
        match self.space {
            SpaceKind::Torus { side } => {
                Box::new(TorusSpace::random(self.capacity, side, self.seed))
            }
            SpaceKind::Grid { side } => {
                let w = (self.capacity as f64).sqrt().ceil() as usize;
                Box::new(GridSpace::new(w, w.max(1), side / w.max(1) as f64))
            }
            SpaceKind::TransitStub { transits, stubs_per_transit, nodes_per_stub } => Box::new(
                TransitStubSpace::new(transits, stubs_per_transit, nodes_per_stub, self.seed),
            ),
        }
    }

    /// Check the spec is runnable; returns a human-readable complaint
    /// otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_nodes < 2 {
            return Err("need at least 2 initial nodes".into());
        }
        if self.capacity < self.initial_nodes {
            return Err(format!(
                "capacity {} below initial node count {}",
                self.capacity, self.initial_nodes
            ));
        }
        if self.capacity > MAX_NODES {
            return Err(format!(
                "capacity {} above the {MAX_NODES} nodes one network can hold",
                self.capacity
            ));
        }
        // The fields of an `IdSpace` are public, so a spec can carry a
        // shape no constructor admitted.
        tapestry_id::IdSpace::try_new(self.cfg.space.base, self.cfg.space.digits)?;
        if self.objects == 0 {
            return Err("catalog must hold at least one object".into());
        }
        if self.phases.is_empty() {
            return Err("scenario has no phases".into());
        }
        if let SpaceKind::TransitStub { transits, stubs_per_transit, nodes_per_stub } = self.space {
            let shape = transits * stubs_per_transit * nodes_per_stub;
            if shape == 0 {
                return Err("transit-stub shape must be non-degenerate".into());
            }
            if shape != self.capacity {
                return Err(format!(
                    "capacity {} must equal the transit-stub shape {transits}·{stubs_per_transit}·{nodes_per_stub} = {shape}",
                    self.capacity
                ));
            }
        }
        for p in &self.phases {
            if p.duration == SimTime::ZERO {
                return Err(format!("phase '{}' has zero duration", p.name));
            }
            if !(0.0..=1.0).contains(&p.traffic.write_fraction) {
                return Err(format!("phase '{}': write fraction outside [0,1]", p.name));
            }
            if let Some(t) = p.target_nodes {
                if t < 2 || t > self.capacity {
                    return Err(format!("phase '{}': target_nodes {} out of range", p.name, t));
                }
            }
            for c in &p.churn {
                match *c {
                    ChurnSpec::Partition { at, heal_at } => {
                        if !(0.0..=1.0).contains(&at)
                            || !(0.0..=1.0).contains(&heal_at)
                            || at >= heal_at
                        {
                            return Err(format!(
                                "phase '{}': partition must satisfy 0 ≤ at < heal_at ≤ 1 \
                                 (got at={at}, heal_at={heal_at})",
                                p.name
                            ));
                        }
                    }
                    ChurnSpec::MassFailure { at, fraction, .. } => {
                        if !(0.0..=1.0).contains(&at) || !(0.0..1.0).contains(&fraction) {
                            return Err(format!(
                                "phase '{}': mass failure needs at ∈ [0,1], fraction ∈ [0,1) \
                                 (got at={at}, fraction={fraction})",
                                p.name
                            ));
                        }
                    }
                    ChurnSpec::ProbeAt { at } | ChurnSpec::OptimizeAt { at } => {
                        if !(0.0..=1.0).contains(&at) {
                            return Err(format!(
                                "phase '{}': round time {at} outside [0,1]",
                                p.name
                            ));
                        }
                    }
                    ChurnSpec::Churn { .. } | ChurnSpec::Diurnal { .. } => {}
                }
            }
        }
        if self.join_batch.is_some_and(|p| p.max_batch == 0) {
            return Err("join_batch.max_batch must be at least 1".into());
        }
        if self.cfg.republish_interval != SimTime::ZERO
            || self.cfg.heartbeat_interval != SimTime::ZERO
        {
            return Err(
                "runner drives repair explicitly: republish/heartbeat intervals must be ZERO"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_phases_in_order() {
        let spec = ScenarioSpec::new("demo")
            .seed(9)
            .capacity(96)
            .initial_nodes(64)
            .objects(16)
            .phase(PhaseSpec::new("warm", SimTime::from_distance(10_000.0)))
            .phase(
                PhaseSpec::new("steady", SimTime::from_distance(50_000.0))
                    .arrival(Arrival::Poisson { ops: 200 })
                    .popularity(Popularity::Zipf { exponent: 1.1 })
                    .writes(0.1)
                    .checked(),
            );
        assert_eq!(spec.phases.len(), 2);
        assert_eq!(spec.phases[1].name, "steady");
        assert!(spec.phases[1].checks);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.build_space().len(), 96);
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let base = || ScenarioSpec::new("x").phase(PhaseSpec::new("p", SimTime(100)));
        assert!(base().capacity(8).initial_nodes(16).validate().is_err(), "capacity too small");
        assert!(base().objects(0).validate().is_err(), "empty catalog");
        assert!(ScenarioSpec::new("x").validate().is_err(), "no phases");
        let mut bad_mix = base();
        bad_mix.phases[0].traffic.write_fraction = 1.5;
        assert!(bad_mix.validate().is_err(), "write fraction out of range");
        let mut timers = base();
        timers.cfg.republish_interval = SimTime(10);
        assert!(timers.validate().is_err(), "recurring timers are the runner's job");
        let mut cut = base();
        cut.phases[0].churn.push(ChurnSpec::Partition { at: 0.7, heal_at: 0.2 });
        assert!(cut.validate().is_err(), "partition must heal after it starts");
        let mut mf = base();
        mf.phases[0].churn.push(ChurnSpec::MassFailure {
            at: 0.5,
            fraction: 1.0,
            correlated: false,
        });
        assert!(mf.validate().is_err(), "cannot kill everyone");
    }

    #[test]
    fn validation_rejects_a_capacity_past_the_index_width() {
        let base = || ScenarioSpec::new("x").phase(PhaseSpec::new("p", SimTime(100)));
        assert!(base().capacity(MAX_NODES).validate().is_ok());
        let err = base().capacity(MAX_NODES + 1).validate().unwrap_err();
        assert!(err.contains("4294967295"), "names the limit: {err}");
    }

    #[test]
    fn validation_rejects_an_id_space_past_one_word() {
        let mut spec = ScenarioSpec::new("x").phase(PhaseSpec::new("p", SimTime(100)));
        spec.cfg.space = tapestry_id::IdSpace { base: 255, digits: 16 };
        let err = spec.validate().unwrap_err();
        assert!(err.contains("base 255, 16 digits"), "names the shape: {err}");
        spec.cfg.space = tapestry_id::IdSpace { base: 255, digits: 8 };
        assert!(spec.validate().is_ok());
    }
}

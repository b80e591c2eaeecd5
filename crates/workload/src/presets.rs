//! Named scenario presets — the workloads `BENCH_scenarios.json` tracks
//! across PRs. Each is parameterized by network size, total operation
//! budget and seed so CI smoke runs and full benchmark runs share one
//! definition.

use crate::churn::ChurnSpec;
use crate::spec::{PhaseSpec, ScenarioSpec};
use crate::traffic::{Arrival, Popularity};
use tapestry_core::TapestryConfig;
use tapestry_membership::{churn_join_budget, BatchPolicy};
use tapestry_sim::SimTime;

/// Every preset name, in report order.
///
/// The size-parameterised families ([`FAMILY_NAMES`]) are intentionally
/// *not* listed here: `--preset all` regenerates the committed
/// `BENCH_scenarios.json` series, whose byte stability across PRs is a
/// regression gate — the families' trajectory is `sweeps/scale.spec`,
/// committed as `BENCH_scale.json`.
pub const PRESET_NAMES: &[&str] =
    &["steady-zipf", "flash-crowd", "churn-storm", "partition-heal", "mass-failure"];

/// The preset families [`sweep_preset`] builds beside [`PRESET_NAMES`]:
/// `scale` ([`scale_preset`]) and `churn-scale` ([`churn_scale_preset`]).
pub const FAMILY_NAMES: &[&str] = &["scale", "churn-scale"];

/// Protocol messages a `churn-scale` churn phase may spend on joins; the
/// join count is derived from this and the *measured* mean join cost
/// (`tapestry_membership::churn_join_budget`) instead of a hard-coded
/// conservative node-count limit.
const CHURN_JOIN_MSG_BUDGET: u64 = 4_000_000;

/// Join-cost anchor for the budget derivation, in messages per join.
/// The `churn-scale` cells of `BENCH_scale.json` (`sweeps/scale.spec`)
/// measure ~220 `membership.join.messages` per join at 25k and ~290 at
/// 100k (protocol messages only — the counter excludes opportunistic
/// table maintenance); a solo join's *total* traffic including that
/// maintenance fan-out measures ~750 messages at 25k. The anchor uses
/// the larger, all-in figure so the derived budget stays conservative,
/// and the §4.5 O(log² n) curve makes it conservative for every
/// smaller size too.
pub const MEASURED_JOIN_MSGS: f64 = 750.0;

/// Fraction of the starting population a `churn-scale` run joins (and
/// half as many unannounced kills).
const CHURN_JOIN_FRACTION: f64 = 1.0 / 16.0;

/// Joins a `churn-scale` run at `nodes` performs: the target fraction of
/// the population, clamped by the measured-cost-derived budget.
pub fn churn_scale_joins(nodes: usize) -> u64 {
    ((nodes as f64 * CHURN_JOIN_FRACTION) as u64)
        .clamp(1, churn_join_budget(MEASURED_JOIN_MSGS, CHURN_JOIN_MSG_BUDGET))
}

/// Which substrate a `scale` run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleSpace {
    /// Uniform torus at constant density (the default trajectory).
    Torus,
    /// Transit-stub topology (§6.2–6.3): the clustered substrate whose
    /// locality optimization previously had no large-n measurement.
    TransitStub,
}

impl ScaleSpace {
    /// Parse a sweep spec's `space` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "torus" => Some(ScaleSpace::Torus),
            "transit-stub" => Some(ScaleSpace::TransitStub),
            _ => None,
        }
    }
}

/// Space side for a scale run of `nodes` nodes: grown with √n from the
/// 64-node / side-1000 anchor every other preset uses, keeping node
/// *density* constant so per-hop distances stay comparable while hop
/// counts grow logarithmically — the regime the paper's O(log n) bounds
/// describe.
pub fn scale_side(nodes: usize) -> f64 {
    1000.0 * (nodes as f64 / 64.0).sqrt()
}

/// Transit-stub shape for roughly `nodes` nodes: 8-node stubs, 4 stubs
/// per transit domain (the §6.2 flavor of "many small stubs"), as many
/// transit domains as needed. The realized node count is the largest
/// multiple of 32 not exceeding `nodes` (at least one transit domain).
pub fn scale_stub_shape(nodes: usize) -> (usize, usize, usize) {
    ((nodes / 32).max(1), 4, 8)
}

/// The `scale` preset: the steady-zipf workload on a proportionally
/// larger space, sized for 1k/4k/10k+ node throughput runs. Phase
/// durations also stretch with the side so simulated latencies occupy
/// the same fraction of a phase at every size.
pub fn scale_preset(nodes: usize, ops: u64, seed: u64, space: ScaleSpace) -> ScenarioSpec {
    let side = scale_side(nodes);
    // Stretch phases so simulated latencies occupy the same fraction of
    // a phase at every size: with the torus's √n side, or the
    // fixed 10_000-unit transit square (~12k diameter with stub spread).
    let stub_shape = scale_stub_shape(nodes);
    let (stretch, nodes) = match space {
        ScaleSpace::TransitStub => {
            let (t, s, ns) = stub_shape;
            (12.0, t * s * ns)
        }
        ScaleSpace::Torus => (side / 1000.0, nodes),
    };
    let objects = (nodes / 2).max(8);
    let spec = ScenarioSpec::new("scale")
        .capacity(nodes)
        .initial_nodes(nodes)
        .objects(objects)
        .phase(
            PhaseSpec::new("warmup", d(15_000.0 * stretch))
                .arrival(Arrival::Even { ops: ops / 5 })
                .popularity(Popularity::Uniform)
                .checked(),
        )
        .phase(
            PhaseSpec::new("steady", d(60_000.0 * stretch))
                .arrival(Arrival::Poisson { ops: ops * 4 / 5 })
                .popularity(Popularity::Zipf { exponent: 1.1 })
                .writes(0.1)
                .checked(),
        );
    let spec = match space {
        ScaleSpace::Torus => spec.torus(side),
        ScaleSpace::TransitStub => {
            let (t, s, ns) = stub_shape;
            spec.transit_stub(t, s, ns)
        }
    };
    spec.seed(seed)
}

/// A config tuned for scripted churn: failure detection must conclude
/// within a phase, so the probe deadline is shortened from the 50k-unit
/// default to a few network diameters.
fn churn_config() -> TapestryConfig {
    TapestryConfig { insert_level_timeout: SimTime::from_distance(5_000.0), ..Default::default() }
}

/// The `churn-scale` preset: sustained join/kill churn with live traffic
/// on the constant-density torus of the scale family, sized by the
/// measured join cost (see [`churn_scale_joins`]). With `batched`, joins
/// coalesce into shared multicast waves (`tapestry-membership`); without
/// it the same schedule runs as solo joins, each a wave of one — the
/// baseline of the `churn-scale-solo` cells in `sweeps/scale.spec`.
///
/// The settle phase has no global `OptimizeAt` round: healing is the
/// repair scheduler's job, and an O(n) sweep would mask whether the
/// targeted repairs actually converge. Probe rounds stay — detection is
/// beacon-based.
pub fn churn_scale_preset(nodes: usize, ops: u64, seed: u64, batched: bool) -> ScenarioSpec {
    let side = scale_side(nodes);
    let stretch = side / 1000.0;
    let joins = churn_scale_joins(nodes);
    let kills = joins / 2;
    // Deadlines stretch with the side like the phase durations, so level
    // timeouts and readiness windows span the same number of network
    // diameters at every size.
    let cfg = TapestryConfig {
        insert_level_timeout: SimTime::from_distance(5_000.0 * stretch),
        ..Default::default()
    };
    let name = if batched { "churn-scale" } else { "churn-scale-seq" };
    let spec = ScenarioSpec::new(name)
        .config(cfg)
        .capacity(nodes + joins as usize)
        .initial_nodes(nodes)
        .objects((nodes / 2).max(8))
        .torus(side)
        .phase(
            PhaseSpec::new("warmup", d(15_000.0 * stretch))
                .arrival(Arrival::Even { ops: ops / 5 })
                .popularity(Popularity::Zipf { exponent: 1.1 })
                .checked(),
        )
        .phase(
            PhaseSpec::new("churn", d(60_000.0 * stretch))
                .arrival(Arrival::Poisson { ops: ops * 3 / 5 })
                .popularity(Popularity::Zipf { exponent: 1.1 })
                .writes(0.1)
                .churn(ChurnSpec::Churn {
                    joins,
                    leaves: kills,
                    graceful: false,
                    min_nodes: nodes / 2,
                })
                .churn(ChurnSpec::ProbeAt { at: 0.55 }),
        )
        .phase(
            PhaseSpec::new("settle", d(25_000.0 * stretch))
                .arrival(Arrival::Poisson { ops: ops / 5 })
                .popularity(Popularity::Zipf { exponent: 1.1 })
                .writes(0.2)
                .churn(ChurnSpec::ProbeAt { at: 0.05 })
                .checked(),
        );
    let spec = if batched {
        spec.join_batch(BatchPolicy {
            // A window a few diameters wide: at the preset's Poisson join
            // rate it coalesces tens of joins per wave, capped below so a
            // wave stays a bounded wire payload.
            window: d(2_500.0 * stretch),
            max_batch: 64,
            ready_timeout: d(10_000.0 * stretch),
        })
    } else {
        spec
    };
    spec.seed(seed)
}

fn d(units: f64) -> SimTime {
    SimTime::from_distance(units)
}

/// The sweep entry point: build any preset family member from one flat
/// parameter set — the named scenario presets, the `scale` family
/// (`space` selects the substrate) and the `churn-scale` family
/// (`batched` selects the variant). `None` leaves the preset alone, so
/// `(None, None)` reproduces a named preset exactly. This is the single
/// constructor [`crate::sweep`] expands grid cells through and
/// `scenarios --preset` resolves names through, so every name and axis
/// combination is validated in one place.
pub fn sweep_preset(
    name: &str,
    nodes: usize,
    ops: u64,
    seed: u64,
    space: Option<ScaleSpace>,
    batched: Option<bool>,
) -> Result<ScenarioSpec, String> {
    Ok(match name {
        "scale" => scale_preset(nodes, ops, seed, space.unwrap_or(ScaleSpace::Torus)),
        "churn-scale" => {
            if space.is_some_and(|s| s != ScaleSpace::Torus) {
                return Err("churn-scale: only the torus substrate is supported".into());
            }
            churn_scale_preset(nodes, ops, seed, batched.unwrap_or(true))
        }
        _ => {
            if space.is_some() {
                return Err(format!("preset '{name}': the space axis applies to `scale` only"));
            }
            if batched.is_some() {
                return Err(format!("preset '{name}': `batched` applies to `churn-scale` only"));
            }
            preset(name, nodes, ops, seed).ok_or_else(|| format!("unknown preset '{name}'"))?
        }
    })
}

/// Build the named preset for a network of `nodes` nodes and roughly
/// `ops` locate/publish operations. Returns `None` for unknown names.
pub fn preset(name: &str, nodes: usize, ops: u64, seed: u64) -> Option<ScenarioSpec> {
    let objects = (nodes / 2).max(8);
    let spec = match name {
        "steady-zipf" => ScenarioSpec::new(name)
            .capacity(nodes)
            .initial_nodes(nodes)
            .objects(objects)
            .phase(
                PhaseSpec::new("warmup", d(15_000.0))
                    .arrival(Arrival::Even { ops: ops / 5 })
                    .popularity(Popularity::Uniform)
                    .checked(),
            )
            .phase(
                PhaseSpec::new("steady", d(60_000.0))
                    .arrival(Arrival::Poisson { ops: ops * 4 / 5 })
                    .popularity(Popularity::Zipf { exponent: 1.1 })
                    .writes(0.1)
                    .checked(),
            ),
        "flash-crowd" => ScenarioSpec::new(name)
            .capacity(nodes)
            .initial_nodes(nodes)
            .objects(objects)
            .phase(
                PhaseSpec::new("calm", d(15_000.0))
                    .arrival(Arrival::Even { ops: ops / 4 })
                    .popularity(Popularity::Zipf { exponent: 0.9 })
                    .checked(),
            )
            .phase(
                PhaseSpec::new("flash", d(40_000.0))
                    .arrival(Arrival::FlashCrowd { ops: ops / 2, peak_ratio: 8.0 })
                    .popularity(Popularity::Hotspot { hot: 0, weight: 0.8 })
                    .writes(0.02),
            )
            .phase(
                PhaseSpec::new("cooldown", d(20_000.0))
                    .arrival(Arrival::Poisson { ops: ops / 4 })
                    .popularity(Popularity::Zipf { exponent: 0.9 })
                    .checked(),
            ),
        "churn-storm" => ScenarioSpec::new(name)
            .config(churn_config())
            .capacity(nodes + nodes / 2)
            .initial_nodes(nodes)
            .objects(objects)
            .phase(
                PhaseSpec::new("warmup", d(15_000.0))
                    .arrival(Arrival::Even { ops: ops / 4 })
                    .popularity(Popularity::Zipf { exponent: 1.1 })
                    .checked(),
            )
            .phase(
                PhaseSpec::new("storm", d(80_000.0))
                    .arrival(Arrival::Poisson { ops: ops / 2 })
                    .popularity(Popularity::Zipf { exponent: 1.1 })
                    .writes(0.1)
                    .churn(ChurnSpec::Churn {
                        joins: (nodes / 4) as u64,
                        leaves: (nodes / 4) as u64,
                        graceful: false,
                        min_nodes: nodes / 2,
                    })
                    .churn(ChurnSpec::ProbeAt { at: 0.35 })
                    .churn(ChurnSpec::ProbeAt { at: 0.7 }),
            )
            .phase(
                PhaseSpec::new("recovery", d(30_000.0))
                    .arrival(Arrival::Poisson { ops: ops / 4 })
                    .popularity(Popularity::Zipf { exponent: 1.1 })
                    .writes(0.5)
                    .churn(ChurnSpec::ProbeAt { at: 0.05 })
                    .churn(ChurnSpec::OptimizeAt { at: 0.3 })
                    .checked(),
            ),
        "partition-heal" => ScenarioSpec::new(name)
            .config(churn_config())
            .capacity(nodes)
            .initial_nodes(nodes)
            .objects(objects)
            .phase(
                PhaseSpec::new("warmup", d(15_000.0))
                    .arrival(Arrival::Even { ops: ops / 4 })
                    .popularity(Popularity::Uniform)
                    .checked(),
            )
            .phase(
                PhaseSpec::new("partitioned", d(50_000.0))
                    .arrival(Arrival::Poisson { ops: ops / 2 })
                    .popularity(Popularity::Uniform)
                    .churn(ChurnSpec::Partition { at: 0.1, heal_at: 0.6 })
                    .churn(ChurnSpec::ProbeAt { at: 0.75 }),
            )
            .phase(
                PhaseSpec::new("recovery", d(30_000.0))
                    .arrival(Arrival::Poisson { ops: ops / 4 })
                    .popularity(Popularity::Uniform)
                    .writes(0.3)
                    .churn(ChurnSpec::ProbeAt { at: 0.05 })
                    .checked(),
            ),
        "mass-failure" => ScenarioSpec::new(name)
            .config(churn_config())
            .capacity(nodes)
            .initial_nodes(nodes)
            .objects(objects)
            .phase(
                PhaseSpec::new("warmup", d(15_000.0))
                    .arrival(Arrival::Even { ops: ops / 4 })
                    .popularity(Popularity::Zipf { exponent: 1.0 })
                    .checked(),
            )
            .phase(
                PhaseSpec::new("failure", d(60_000.0))
                    .arrival(Arrival::Poisson { ops: ops / 2 })
                    .popularity(Popularity::Zipf { exponent: 1.0 })
                    .churn(ChurnSpec::MassFailure { at: 0.2, fraction: 0.25, correlated: true })
                    .churn(ChurnSpec::ProbeAt { at: 0.4 })
                    .churn(ChurnSpec::ProbeAt { at: 0.7 }),
            )
            .phase(
                PhaseSpec::new("recovery", d(30_000.0))
                    .arrival(Arrival::Poisson { ops: ops / 4 })
                    .popularity(Popularity::Zipf { exponent: 1.0 })
                    .writes(0.5)
                    .churn(ChurnSpec::ProbeAt { at: 0.05 })
                    .churn(ChurnSpec::OptimizeAt { at: 0.3 })
                    .checked(),
            ),
        _ => return None,
    };
    Some(spec.seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_builds_and_validates() {
        for &name in PRESET_NAMES {
            let spec = preset(name, 64, 500, 42).expect(name);
            assert_eq!(spec.name, name);
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn unknown_preset_is_none() {
        assert!(preset("nope", 64, 500, 42).is_none());
    }

    #[test]
    fn scale_presets_validate_at_every_size() {
        for n in [1_000, 4_000, 10_000, 25_000] {
            for space in [ScaleSpace::Torus, ScaleSpace::TransitStub] {
                let spec = scale_preset(n, 2000, 42, space);
                spec.validate().unwrap_or_else(|e| panic!("scale({n}, {space:?}): {e}"));
                if space == ScaleSpace::TransitStub {
                    // Realized size: the largest stub-shape multiple ≤ n.
                    assert!(spec.initial_nodes <= n && spec.initial_nodes > n - 32);
                    assert_eq!(spec.build_space().len(), spec.capacity);
                } else {
                    assert_eq!(spec.initial_nodes, n);
                }
            }
        }
    }

    #[test]
    fn scale_space_parses_flag_values() {
        assert_eq!(ScaleSpace::parse("torus"), Some(ScaleSpace::Torus));
        assert_eq!(ScaleSpace::parse("transit-stub"), Some(ScaleSpace::TransitStub));
        assert_eq!(ScaleSpace::parse("mesh"), None);
    }

    #[test]
    fn scale_space_keeps_density_constant() {
        // 64 nodes on side 1000 ⇒ density 64/1000²; the scale family must
        // preserve it so per-hop latencies are comparable across sizes.
        let d64 = 64.0 / (1000.0f64 * 1000.0);
        for n in [1_000, 4_000, 10_000, 25_000] {
            let side = scale_side(n);
            let d = n as f64 / (side * side);
            assert!((d - d64).abs() / d64 < 1e-9, "density drifted at n={n}");
        }
    }

    #[test]
    fn churn_presets_shorten_the_probe_deadline() {
        let spec = preset("churn-storm", 64, 500, 1).unwrap();
        assert!(spec.cfg.insert_level_timeout < SimTime::from_distance(10_000.0));
    }

    #[test]
    fn sweep_preset_with_default_knobs_matches_the_named_preset() {
        for &name in PRESET_NAMES {
            let via_sweep = sweep_preset(name, 64, 500, 42, None, None).expect(name);
            let direct = preset(name, 64, 500, 42).unwrap();
            assert_eq!(via_sweep.name, direct.name);
            assert_eq!(via_sweep.cfg, direct.cfg);
            assert_eq!(via_sweep.seed, direct.seed);
            assert_eq!(via_sweep.phases.len(), direct.phases.len());
        }
        // The scale/churn-scale families route through their dedicated
        // constructors (space and batched selection).
        for &name in FAMILY_NAMES {
            assert_eq!(sweep_preset(name, 64, 500, 42, None, None).expect(name).name, name);
        }
        let c = sweep_preset("churn-scale", 1000, 500, 42, None, None).unwrap();
        assert_eq!(c.name, "churn-scale");
        assert!(c.join_batch.is_some());
    }

    #[test]
    fn sweep_preset_applies_every_knob() {
        let s = sweep_preset("scale", 256, 500, 42, Some(ScaleSpace::TransitStub), None).unwrap();
        assert_eq!(s.name, "scale");
        assert!(matches!(s.space, crate::spec::SpaceKind::TransitStub { .. }));
        let c = sweep_preset("churn-scale", 1000, 500, 42, Some(ScaleSpace::Torus), Some(false))
            .unwrap();
        assert_eq!(c.name, "churn-scale-seq");
        assert!(c.join_batch.is_none());
    }

    #[test]
    fn sweep_preset_rejects_invalid_knob_combinations() {
        assert!(sweep_preset("nope", 64, 500, 42, None, None).is_err(), "unknown preset");
        assert!(
            sweep_preset("steady-zipf", 64, 500, 42, Some(ScaleSpace::TransitStub), None).is_err(),
            "space axis is scale-only"
        );
        assert!(
            sweep_preset("churn-scale", 1000, 500, 42, Some(ScaleSpace::TransitStub), None)
                .is_err(),
            "churn-scale runs on the torus only"
        );
        assert!(
            sweep_preset("steady-zipf", 64, 500, 42, None, Some(true)).is_err(),
            "batched is churn-scale-only"
        );
    }
}

//! The runner's harvest rule under heavy unannounced failure: every
//! issued locate is either collected or lost, and a result whose origin
//! is killed between completing and the next harvest is lost — its queue
//! died with the node. The counts below were recorded when harvest still
//! polled each origin with a locate in flight after every event; the
//! completion feed that replaced the polling must reproduce them exactly.

use tapestry_sim::SimTime;
use tapestry_workload::{runner, Arrival, ChurnSpec, PhaseSpec, Popularity, ScenarioSpec};

fn d(units: f64) -> SimTime {
    SimTime::from_distance(units)
}

/// Dense reads over a mesh that keeps losing nodes: Poisson kills, two
/// mass failures per phase (whole batches of origins die in one event,
/// between one harvest and the next), probe rounds so the survivors
/// repair, and joins to refill.
fn kill_heavy() -> ScenarioSpec {
    let storm = |name: &str, correlated: bool| {
        PhaseSpec::new(name, d(60_000.0))
            .arrival(Arrival::Poisson { ops: 1500 })
            .popularity(Popularity::Uniform)
            .churn(ChurnSpec::Churn { joins: 32, leaves: 12, graceful: false, min_nodes: 8 })
            .churn(ChurnSpec::ProbeAt { at: 0.5 })
            .churn(ChurnSpec::ProbeAt { at: 0.9 })
            .churn(ChurnSpec::MassFailure { at: 0.35, fraction: 0.15, correlated })
            .churn(ChurnSpec::MassFailure { at: 0.7, fraction: 0.15, correlated: !correlated })
    };
    ScenarioSpec::new("kill-heavy")
        .seed(5)
        .capacity(224)
        .initial_nodes(128)
        .objects(32)
        .phase(storm("storm", false))
        .phase(storm("aftershock", true))
        .phase(
            PhaseSpec::new("calm", d(20_000.0))
                .arrival(Arrival::Even { ops: 200 })
                .popularity(Popularity::Uniform),
        )
}

/// Per phase: `(issued, completed, lost, found_live, found_dead,
/// not_found)`, as the polling harvest counted them. The storm's `lost`
/// includes two locates whose results were queued at an origin that the
/// very next scheduled event killed: harvesting *before* that event
/// instead of after it would read `completed` 1143, `lost` 352.
/// Re-pinned when fact-driven repair became the only maintenance: every
/// send to a dead node now bounces back to its sender as a
/// `failed_contact` fact (1 979 in the storm), so a router excises a
/// corpse at its first failed send instead of at a probe deadline that
/// lands past mid-phase. Probing detects 593 dead neighbors in the storm
/// where it detected 1 450, replacement queries fall 8 991 → 982, and
/// fewer locates die on a dead hop: `lost` 354 → 126, 444 → 148 and
/// 31 → 5 per phase. Locates that now complete instead of vanishing
/// include ones whose pointer names a killed server (`found_dead`) or
/// whose root lost the pointer (`not_found`).
/// Re-pinned when a probe round became beacons: a node pings its
/// backpointer holders instead of its table, so a dead neighbor held one
/// way no longer bounces our ping at once but is caught at the round's
/// deadline. Probing detects 810 dead neighbors in the storm where it
/// detected 593 (772 where 605 in the aftershock), a locate meets a dead
/// hop a little longer, and `lost` goes 126 → 144, 148 → 171 and 5 → 3
/// per phase (`completed` 1369 → 1351, 1371 → 1348, 195 → 197).
const KILL_HEAVY_COUNTS: [(u64, u64, u64, u64, u64, u64); 3] =
    [(1495, 1351, 144, 1051, 291, 9), (1519, 1348, 171, 571, 636, 141), (200, 197, 3, 74, 69, 54)];

#[test]
fn kill_heavy_phases_balance_and_match_the_pinned_counts() {
    let report = runner::run(&kill_heavy()).expect("runs");
    assert_eq!(report.phases.len(), KILL_HEAVY_COUNTS.len());
    for (phase, pinned) in report.phases.iter().zip(KILL_HEAVY_COUNTS) {
        let ops = phase.ops;
        assert_eq!(ops.issued, ops.completed + ops.lost, "{}: every op is accounted", phase.name);
        assert_eq!(
            ops.completed,
            ops.found_live + ops.found_dead + ops.not_found,
            "{}: every collected result is classified",
            phase.name
        );
        assert_eq!(
            (ops.issued, ops.completed, ops.lost, ops.found_live, ops.found_dead, ops.not_found),
            pinned,
            "{}: counts moved",
            phase.name
        );
    }
    assert!(report.phases[0].churn.kills > 30, "the storm must actually kill");
}

//! Scripted membership dynamics: Poisson join/leave churn, correlated
//! mass failures, and partition/heal cuts.
//!
//! A [`ChurnSpec`] expands into a sorted list of timed [`ChurnEvent`]s at
//! phase start; the runner interleaves them with the traffic stream. Like
//! the traffic sources, expansion is a pure function of `(spec, rng)`.

use rand::rngs::StdRng;
use tapestry_sim::SimTime;

/// One scripted membership dynamic within a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnSpec {
    /// Independent Poisson join and leave processes (§4 dynamic
    /// algorithms under continuous churn).
    Churn {
        /// Expected joins over the phase.
        joins: u64,
        /// Expected departures over the phase.
        leaves: u64,
        /// Voluntary (Fig. 12) departures when `true`; unannounced kills
        /// (§5.2) when `false`.
        graceful: bool,
        /// Never shrink the network below this many live nodes.
        min_nodes: usize,
    },
    /// A correlated mass failure: at phase fraction `at`, kill `fraction`
    /// of the live nodes at once — either the spatially clustered nodes
    /// nearest a random pivot (`correlated`, a rack/AZ loss) or a uniform
    /// sample (independent failures).
    MassFailure {
        /// When within the phase (0 ≤ at ≤ 1).
        at: f64,
        /// Fraction of live nodes to kill (0 ≤ fraction < 1).
        fraction: f64,
        /// Cluster the victims around a random pivot?
        correlated: bool,
    },
    /// Cut the network in two at phase fraction `at` and heal it at
    /// `heal_at` (both relative to the phase; `at < heal_at`).
    Partition {
        /// When the cut comes up.
        at: f64,
        /// When it heals.
        heal_at: f64,
    },
    /// One §5.2 failure-detection probe round on every node at phase
    /// fraction `at`.
    ProbeAt {
        /// When within the phase.
        at: f64,
    },
    /// One §6.4 continual-optimization round at phase fraction `at`.
    OptimizeAt {
        /// When within the phase.
        at: f64,
    },
}

/// A timed, concrete membership event produced by expanding a spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// Insert one node dynamically (Fig. 7) via a random gateway.
    Join,
    /// Remove one node.
    Leave {
        /// Voluntary (Fig. 12) vs unannounced kill.
        graceful: bool,
        /// Floor below which the event is skipped.
        min_nodes: usize,
    },
    /// Kill `fraction` of live nodes at once.
    MassFailure {
        /// Fraction of live nodes to kill.
        fraction: f64,
        /// Cluster victims around a pivot?
        correlated: bool,
    },
    /// Impose a two-way partition around a random pivot.
    PartitionStart,
    /// Heal the partition.
    Heal,
    /// Probe round on every live node.
    Probe,
    /// Optimization round on every live node.
    Optimize,
}

impl ChurnSpec {
    /// Expand into timed events within `[start, end)`, sorted ascending.
    pub fn events(
        &self,
        start: SimTime,
        end: SimTime,
        rng: &mut StdRng,
    ) -> Vec<(SimTime, ChurnEvent)> {
        let span = (end.0.saturating_sub(start.0)) as f64;
        if span <= 0.0 {
            return Vec::new();
        }
        let at_time = |frac: f64| SimTime(start.0 + (span * frac.clamp(0.0, 1.0)) as u64);
        let mut out = Vec::new();
        match *self {
            ChurnSpec::Churn { joins, leaves, graceful, min_nodes } => {
                for t in poisson_times(joins, start, end, rng) {
                    out.push((t, ChurnEvent::Join));
                }
                for t in poisson_times(leaves, start, end, rng) {
                    out.push((t, ChurnEvent::Leave { graceful, min_nodes }));
                }
            }
            ChurnSpec::MassFailure { at, fraction, correlated } => {
                out.push((at_time(at), ChurnEvent::MassFailure { fraction, correlated }));
            }
            ChurnSpec::Partition { at, heal_at } => {
                assert!(at < heal_at, "partition must heal after it starts");
                out.push((at_time(at), ChurnEvent::PartitionStart));
                out.push((at_time(heal_at), ChurnEvent::Heal));
            }
            ChurnSpec::ProbeAt { at } => out.push((at_time(at), ChurnEvent::Probe)),
            ChurnSpec::OptimizeAt { at } => out.push((at_time(at), ChurnEvent::Optimize)),
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

/// Homogeneous Poisson event times: `expected` arrivals over the window
/// (the same process [`crate::traffic::Arrival::Poisson`] uses).
fn poisson_times(expected: u64, start: SimTime, end: SimTime, rng: &mut StdRng) -> Vec<SimTime> {
    crate::traffic::Arrival::Poisson { ops: expected }.times(start, end, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn churn_expands_to_joins_and_leaves() {
        let spec = ChurnSpec::Churn { joins: 50, leaves: 30, graceful: true, min_nodes: 8 };
        let evs = spec.events(SimTime(0), SimTime(1_000_000), &mut rng());
        let joins = evs.iter().filter(|(_, e)| matches!(e, ChurnEvent::Join)).count();
        let leaves = evs.iter().filter(|(_, e)| matches!(e, ChurnEvent::Leave { .. })).count();
        assert!(joins > 25 && joins < 80, "{joins}");
        assert!(leaves > 12 && leaves < 55, "{leaves}");
        assert!(evs.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
    }

    #[test]
    fn partition_orders_cut_before_heal() {
        let spec = ChurnSpec::Partition { at: 0.2, heal_at: 0.7 };
        let evs = spec.events(SimTime(0), SimTime(10_000), &mut rng());
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].1, ChurnEvent::PartitionStart);
        assert_eq!(evs[1].1, ChurnEvent::Heal);
        assert!(evs[0].0 < evs[1].0);
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = ChurnSpec::Churn { joins: 40, leaves: 40, graceful: false, min_nodes: 4 };
        let a = spec.events(SimTime(0), SimTime(500_000), &mut rng());
        let b = spec.events(SimTime(0), SimTime(500_000), &mut rng());
        assert_eq!(a, b);
    }
}

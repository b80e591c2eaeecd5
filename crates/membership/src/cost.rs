//! Join-cost accounting and churn sizing.
//!
//! `tapestry-core` bumps the `membership.join.messages` counter on every protocol
//! message belonging to an insertion (surrogate discovery hops, table
//! copy, the multicast wave with its Hellos/Candidates/acks, `GetNextList`
//! pointer fetches, root transfers). Dividing its delta by the number of
//! insertions gives a *measured* mean messages/join — the figure
//! `tapestry_workload::sweep` reports per churn cell (`join_msgs_mean`)
//! and CI gates against.
//!
//! That measurement replaces guesswork in churn sizing: churn presets
//! used to be exercised only at toy sizes (a de-facto hard cap, because
//! the worst-case Θ(n)-per-join multicast made anything larger look
//! unaffordable on paper). [`churn_join_budget`] derives the joins a
//! phase affords from the measured cost and a message budget instead.

/// Measured mean protocol messages per join: `membership.join.messages / joins`.
/// 0 when no join ran.
pub fn mean_messages_per_join(join_messages: u64, joins: u64) -> f64 {
    if joins == 0 {
        0.0
    } else {
        join_messages as f64 / joins as f64
    }
}

/// How many joins a phase affords under `msg_budget` protocol messages,
/// given the measured mean cost (at least 1 when any budget exists).
pub fn churn_join_budget(mean_join_msgs: f64, msg_budget: u64) -> u64 {
    if mean_join_msgs <= 0.0 {
        // No measurement yet: admit a single join when any budget exists.
        return u64::from(msg_budget > 0);
    }
    ((msg_budget as f64 / mean_join_msgs) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_zero_joins() {
        assert_eq!(mean_messages_per_join(1000, 0), 0.0);
        assert_eq!(mean_messages_per_join(1500, 3), 500.0);
    }

    #[test]
    fn join_budget_divides_by_mean() {
        assert_eq!(churn_join_budget(750.0, 4_000_000), 5333);
        assert_eq!(churn_join_budget(750.0, 100), 1, "floor of one join");
        assert_eq!(churn_join_budget(0.0, 10), 1, "no measurement yet: minimal");
    }
}

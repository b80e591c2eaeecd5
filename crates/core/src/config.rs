use crate::repair::MaintenanceMode;
use tapestry_id::IdSpace;
use tapestry_sim::SimTime;

/// The two localized surrogate-routing variants of §2.3.
///
/// Both resolve one digit per hop with no backtracking, and both produce
/// a unique root under Property 1 (Theorem 2 and its "similar proof" for
/// the PRR-like scheme). They differ in how holes are skipped, which
/// affects how evenly surrogate roots are distributed: the paper notes
/// "the Tapestry Native Routing scheme may have better load balancing
/// properties" — the `ablation_routing` experiment measures exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingScheme {
    /// Route to the next filled entry at the same level, wrapping around
    /// (e.g. desired digit 3 empty → try 4, then 5, …).
    #[default]
    TapestryNative,
    /// Before the first hole, match digits exactly; at the first hole,
    /// take the entry matching the desired digit in the most significant
    /// bits (ties to the numerically higher digit); after the first hole,
    /// always take the numerically highest available digit. Routes to the
    /// root with the numerically largest matching node-ID.
    PrrLike,
}

/// Tuning knobs for a Tapestry deployment.
///
/// Defaults follow the paper: base-16 digits, redundancy `R = 3`
/// (a primary plus two backups per slot, §2.4), a single root per object
/// (`|R_Φ| = 1`, §2.2). Object pointers carry no expiry: one lives until
/// Fig. 9's backward deletion removes it, and every republish is explicit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapestryConfig {
    /// Identifier namespace (radix and digit count).
    pub space: IdSpace,
    /// Which localized surrogate-routing variant to use (§2.3).
    pub routing: RoutingScheme,
    /// Neighbor-set capacity `R ≥ 1`: the closest `R` `(α, j)` nodes are
    /// kept per slot; fewer than `R` entries means the slot holds *all*
    /// matching nodes (Property 1).
    pub redundancy: usize,
    /// Size of the per-level candidate list `k` used by the
    /// nearest-neighbor table builder (§3, `KeepClosestK`). `None` selects
    /// `max(8, ceil(3·log2 n))` at insertion time, the paper's
    /// `k = O(log n)`.
    pub list_size_k: Option<usize>,
    /// Number of roots per object, `|R_Φ|` (Observation 2 multi-root).
    pub roots_per_object: usize,
    /// How long the neighbor-table builder waits for `GetPointers`
    /// responses at one level before proceeding with whatever arrived
    /// (makes insertion robust to nodes dying mid-insert).
    pub insert_level_timeout: SimTime,
    /// Unread: there is one maintenance behaviour. The field stays only
    /// because the standalone `benchmark/` package sets it in a
    /// `TapestryConfig` literal; nothing in the workspace reads it, and
    /// the benchmark-only PR that re-points `benchmark/src/workloads.rs`
    /// deletes it with [`MaintenanceMode`].
    pub maintenance: MaintenanceMode,
    /// The §6.3 transit-stub locality enhancement: a positive value turns
    /// it on, and publishes and queries spawn a local branch that never
    /// leaves the stub, where a neighbor is in the stub when it lies
    /// within this latency (§6.3 suggests a threshold heuristic). Zero,
    /// the default, turns it off.
    pub stub_latency_threshold: f64,
}

impl TapestryConfig {
    /// The `k` to use for a network that currently has `n` nodes.
    pub fn k_for(&self, n: usize) -> usize {
        match self.list_size_k {
            Some(k) => k,
            None => {
                let lg = (n.max(2) as f64).log2().ceil() as usize;
                (3 * lg).max(8)
            }
        }
    }

    /// Number of routing-table levels.
    pub fn levels(&self) -> usize {
        self.space.levels()
    }

    /// Digit radix `b`.
    pub fn base(&self) -> usize {
        self.space.base as usize
    }
}

impl Default for TapestryConfig {
    fn default() -> Self {
        TapestryConfig {
            space: IdSpace::base16(),
            routing: RoutingScheme::TapestryNative,
            redundancy: 3,
            list_size_k: None,
            roots_per_object: 1,
            insert_level_timeout: SimTime::from_distance(50_000.0),
            maintenance: MaintenanceMode::Incremental,
            stub_latency_threshold: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = TapestryConfig::default();
        assert_eq!(c.base(), 16);
        assert_eq!(c.levels(), 8);
        assert_eq!(c.redundancy, 3);
        assert_eq!(c.roots_per_object, 1);
    }

    #[test]
    fn k_scales_logarithmically() {
        let c = TapestryConfig::default();
        assert_eq!(c.k_for(2), 8, "floor of 8");
        assert_eq!(c.k_for(1024), 30);
        assert!(c.k_for(4096) > c.k_for(256));
    }

    #[test]
    fn explicit_k_overrides() {
        let c = TapestryConfig { list_size_k: Some(12), ..Default::default() };
        assert_eq!(c.k_for(1_000_000), 12);
    }
}

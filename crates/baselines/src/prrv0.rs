//! PRR v.0: the paper's §7 scheme for **general metric spaces**.
//!
//! A static random-sampling structure: for `i ∈ [1, log n]` and
//! `j ∈ [0, c·log n]`, the set `S_{i,j}` samples each node with
//! probability `2^i / n` (nested in `i`, as the end of the proof of
//! Theorem 7 requires), plus a single global node `S_{0,0}`. Every node
//! stores its closest member of each `S_{i,j}`; every sampled node stores
//! the objects of the nodes that point to it. A query descends from the
//! densest level: at level `i` it asks its `c·log n` representatives in
//! parallel, stopping at the first level where some representative is
//! shared with the object's server.
//!
//! Theorem 7: the first shared level satisfies
//! `d(S_{i*,j}, X) ≤ d(X, Y)·log n` w.h.p., giving polylogarithmic
//! stretch with `O(log² n)` average space — on *any* metric, no
//! growth-restriction needed. This module reproduces the scheme and its
//! measured columns in Table 1 (the `PRR v.0 + This Paper` row).

mod sampling;

pub use sampling::{sample_sets, SamplingParams};
use std::collections::{BTreeMap, BTreeSet};
use tapestry_metric::{MetricSpace, PointIdx};

/// Result of one PRR v.0 lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrrV0Lookup {
    /// Server found (`None`: key never published).
    pub server: Option<PointIdx>,
    /// Levels descended before the hit (1 = found at the densest level).
    pub levels_tried: usize,
    /// Messages spent (2 per representative probed, plus the final fetch).
    pub messages: u64,
    /// Total metric distance traveled: probe round trips plus the final
    /// trip to the server.
    pub distance: f64,
}

/// The static §7 object-location structure over a fixed member set.
pub struct PrrV0 {
    space: Box<dyn MetricSpace>,
    members: Vec<PointIdx>,
    params: SamplingParams,
    /// `rep[m_idx][i][j]`: the member of `S_{i,j}` closest to member
    /// `members[m_idx]` (`None` when the sparse sample came up empty).
    rep: Vec<Vec<Vec<Option<PointIdx>>>>,
    member_pos: BTreeMap<PointIdx, usize>,
    /// Directory lists at sampled nodes: `(sample node, key) → servers`.
    lists: BTreeMap<(PointIdx, u64), Vec<PointIdx>>,
    /// Per-node directory entry counts (space accounting).
    list_sizes: BTreeMap<PointIdx, usize>,
}

impl PrrV0 {
    /// Build the structure for `members` of `space` with `c` repetition
    /// factor (the paper's `c·log n` columns).
    ///
    /// Representative selection ("closest member of `S_{i,j}`") goes
    /// through one [`tapestry_metric::NearestIndex`] per sample set
    /// instead of a per-member brute scan — `O(sets · (|S| + n))` instead
    /// of `O(n · Σ|S|)`, which is what lets PRR v.0 join the scale runs.
    /// A member *inside* its sample set is its own representative at
    /// distance 0 ([`tapestry_metric::NearestIndex::nearest_or_self`]).
    pub fn build(space: Box<dyn MetricSpace>, members: Vec<PointIdx>, c: usize, seed: u64) -> Self {
        assert!(!members.is_empty());
        let params = SamplingParams::for_n(members.len(), c);
        let sets = sample_sets(&members, params, seed);
        let mut rep = vec![vec![vec![None; params.cols]; params.levels + 1]; members.len()];
        for (i, level_sets) in sets.iter().enumerate() {
            for (j, set) in level_sets.iter().enumerate() {
                let ix = space.build_index(set.clone());
                for (m_idx, &m) in members.iter().enumerate() {
                    rep[m_idx][i][j] = ix.nearest_or_self(m);
                }
            }
        }
        let member_pos = members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        PrrV0 {
            space,
            members,
            params,
            rep,
            member_pos,
            lists: BTreeMap::new(),
            list_sizes: BTreeMap::new(),
        }
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when empty (never: `build` requires members).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Sampling shape in force.
    pub fn params(&self) -> SamplingParams {
        self.params
    }

    /// Publish `key` from `server`: every representative of the server
    /// records the object ("each node in S_{i,j} stores a list of all
    /// objects located at nodes which point to it"). Returns messages
    /// spent (one per distinct representative).
    pub fn publish(&mut self, server: PointIdx, key: u64) -> u64 {
        let pos = self.member_pos[&server];
        let mut informed = BTreeSet::new();
        for per_col in &self.rep[pos] {
            for &s in per_col.iter().flatten() {
                if informed.insert(s) {
                    *self.list_sizes.entry(s).or_insert(0) += 1;
                }
                let servers = self.lists.entry((s, key)).or_default();
                if !servers.contains(&server) {
                    servers.push(server);
                }
            }
        }
        informed.len() as u64
    }

    /// Locate `key` from `origin`: descend from the densest level, asking
    /// all `c·log n` representatives per level in parallel, per §7.
    pub fn locate(&self, origin: PointIdx, key: u64) -> PrrV0Lookup {
        let pos = self.member_pos[&origin];
        let mut messages = 0u64;
        let mut distance = 0.0;
        let mut tried = 0usize;
        for i in (0..=self.params.levels).rev() {
            tried += 1;
            let mut hit: Option<PointIdx> = None;
            // All j probed in parallel; latency is the max round trip but
            // *distance traveled* (the paper's traffic measure) sums them.
            for &s in self.rep[pos][i].iter().flatten() {
                messages += 2;
                distance += 2.0 * self.space.distance(origin, s);
                if hit.is_none() {
                    if let Some(servers) = self.lists.get(&(s, key)) {
                        hit = servers.first().copied();
                    }
                }
            }
            if let Some(server) = hit {
                messages += 1;
                distance += self.space.distance(origin, server);
                return PrrV0Lookup {
                    server: Some(server),
                    levels_tried: tried,
                    messages,
                    distance,
                };
            }
        }
        PrrV0Lookup { server: None, levels_tried: tried, messages, distance }
    }

    /// Per-node space: representative pointers per member plus directory
    /// list entries at sampled nodes. Returns (avg, max) over members.
    pub fn space_per_node(&self) -> (f64, usize) {
        let rep_per_node = (self.params.levels + 1) * self.params.cols;
        let mut max = 0usize;
        let mut total = 0usize;
        for &m in &self.members {
            let lists = self.list_sizes.get(&m).copied().unwrap_or(0);
            let e = rep_per_node + lists;
            total += e;
            max = max.max(e);
        }
        (total as f64 / self.members.len() as f64, max)
    }

    /// The metric space (for external stretch computation).
    pub fn space(&self) -> &dyn MetricSpace {
        &*self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_metric::{TorusSpace, TransitStubSpace};

    fn build(n: usize, seed: u64) -> PrrV0 {
        let space = TorusSpace::random(n, 1000.0, seed);
        PrrV0::build(Box::new(space), (0..n).collect(), 2, seed)
    }

    #[test]
    fn locate_finds_published_objects() {
        let mut s = build(128, 1);
        s.publish(5, 42);
        for origin in [0, 17, 63, 127] {
            let r = s.locate(origin, 42);
            assert_eq!(r.server, Some(5), "origin {origin}");
        }
    }

    #[test]
    fn locate_misses_unpublished_objects() {
        let s = build(64, 2);
        let r = s.locate(0, 999);
        assert_eq!(r.server, None);
        assert_eq!(r.levels_tried, s.params().levels + 1, "descended to S_0,0");
    }

    #[test]
    fn level_zero_guarantees_a_hit() {
        // Even if every denser level misses, S_{0,0} is shared by all
        // nodes, so a published object is always found (§7: "this will
        // always find the object, if it exists").
        let mut s = build(64, 3);
        for k in 0..20u64 {
            s.publish((k as usize * 3) % 64, k);
        }
        for k in 0..20u64 {
            for origin in [1usize, 30, 62] {
                assert!(s.locate(origin, k).server.is_some(), "key {k} from {origin}");
            }
        }
    }

    #[test]
    fn stretch_is_polylogarithmic_on_general_metric() {
        // The whole point of §7: no growth restriction needed. Use the
        // clustered transit-stub metric.
        let space = TransitStubSpace::new(3, 3, 16, 4);
        let n = space.len();
        let members: Vec<usize> = (0..n).collect();
        let mut s = PrrV0::build(Box::new(space), members, 2, 4);
        let mut stretches = Vec::new();
        for k in 0..30u64 {
            let server = (k as usize * 7) % n;
            s.publish(server, k);
            for origin in (0..n).step_by(13) {
                if origin == server {
                    continue;
                }
                let r = s.locate(origin, k);
                let direct = s.space().distance(origin, server);
                if direct > 0.0 {
                    stretches.push(r.distance / direct);
                }
            }
        }
        let mean = stretches.iter().sum::<f64>() / stretches.len() as f64;
        // log₂ 144 ≈ 7.2; Theorem 7 allows O(log³ n); the measured mean
        // should sit far below that worst case.
        assert!(mean < 7.2f64.powi(3), "mean stretch {mean} above the log³ bound");
    }

    #[test]
    fn space_is_polylogarithmic_per_node() {
        let mut s = build(256, 5);
        for k in 0..50 {
            s.publish((k as usize * 5) % 256, k);
        }
        let (avg, _max) = s.space_per_node();
        let lg = 8.0; // log2 256
                      // reps: (levels+1)·cols = 9·16 = 144 = O(log² n); lists add O(1)
                      // amortized per object.
        assert!(avg < 3.0 * lg * lg + 50.0, "avg per-node space {avg} too large");
        assert!(avg >= 144.0, "representative pointers are always stored");
    }

    #[test]
    fn nearby_objects_found_at_dense_levels() {
        // Statistical sanity: when the object is at the origin's nearest
        // neighbor, the dense levels usually already share a
        // representative, so few levels are descended on average.
        let mut s = build(256, 6);
        let mut total_tried = 0usize;
        let mut count = 0usize;
        for k in 0..40u64 {
            let server = (k as usize * 11) % 256;
            s.publish(server, k);
            let r = s.locate((server + 1) % 256, k);
            assert!(r.server.is_some());
            total_tried += r.levels_tried;
            count += 1;
        }
        let avg = total_tried as f64 / count as f64;
        assert!(
            avg < (s.params().levels + 1) as f64 * 0.9,
            "avg levels tried {avg} ≈ full descent"
        );
    }
}

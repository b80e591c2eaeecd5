/// Index of a point (and hence of a potential overlay node) in a space.
pub type PointIdx = usize;

/// A finite metric space over points `0..len()`.
///
/// Implementations must satisfy the metric axioms — in particular the
/// triangle inequality, which the paper assumes explicitly in §3
/// ("we also assume the triangle inequality in network distance").
/// The property tests in each implementation module check this on samples.
pub trait MetricSpace: Send + Sync {
    /// Number of points.
    fn len(&self) -> usize;

    /// Distance between two points. Symmetric, zero iff `a == b` for the
    /// spaces in this crate (all place points at distinct coordinates with
    /// probability 1; ties are harmless to the algorithms).
    fn distance(&self, a: PointIdx, b: PointIdx) -> f64;

    /// Human-readable name for experiment output.
    fn name(&self) -> &'static str;

    /// True when the space has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of points of `members` within distance `r` of `a`
    /// (the paper's `|B_A(r)|`, restricted to the active member set).
    ///
    /// This default is the O(members) *definition* of a ball; repeated
    /// callers should [`MetricSpace::build_index`] the member set once and
    /// use [`crate::NearestIndex::ball_size`], which answers from grid
    /// buckets and is cross-checked against this path in debug builds.
    fn ball_size(&self, a: PointIdx, r: f64, members: &[PointIdx]) -> usize {
        members.iter().filter(|&&m| self.distance(a, m) <= r).count()
    }

    /// Build a [`crate::NearestIndex`] over `members` for repeated
    /// nearest / closest-`k` / ball queries. The default is the
    /// brute-force fallback; the coordinate-bearing spaces in this crate
    /// (torus, grid, ring, transit-stub) override it with bucketed
    /// indexes whose queries stay exact (ties to the lower index).
    fn build_index<'a>(&'a self, members: Vec<PointIdx>) -> Box<dyn crate::NearestIndex + 'a> {
        Box::new(crate::index::BruteForceIndex::new(self, members))
    }
}

impl MetricSpace for Box<dyn MetricSpace> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn distance(&self, a: PointIdx, b: PointIdx) -> f64 {
        (**self).distance(a, b)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn ball_size(&self, a: PointIdx, r: f64, members: &[PointIdx]) -> usize {
        (**self).ball_size(a, r, members)
    }
    fn build_index<'a>(&'a self, members: Vec<PointIdx>) -> Box<dyn crate::NearestIndex + 'a> {
        (**self).build_index(members)
    }
}

/// The member of `candidates` nearest to `from`, excluding `from` itself.
/// Ground truth for the paper's nearest-neighbor algorithm (§3).
#[expect(
    clippy::disallowed_methods,
    reason = "callers pass candidates in ascending order and min_by keeps the first of equals: \
              ties resolve to the lowest idx, the (distance, index) contract"
)]
pub fn nearest<S: MetricSpace + ?Sized>(
    space: &S,
    from: PointIdx,
    candidates: &[PointIdx],
) -> Option<PointIdx> {
    candidates.iter().copied().filter(|&c| c != from).min_by(|&a, &b| {
        space.distance(from, a).partial_cmp(&space.distance(from, b)).expect("distances are finite")
    })
}

/// The `k` members of `candidates` closest to `from` (excluding `from`),
/// sorted by increasing distance. This is the paper's `KeepClosestK`.
pub fn closest_k<S: MetricSpace + ?Sized>(
    space: &S,
    from: PointIdx,
    candidates: &[PointIdx],
    k: usize,
) -> Vec<PointIdx> {
    let mut v: Vec<PointIdx> = candidates.iter().copied().filter(|&c| c != from).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "stable sort over the caller's candidate order: equal distances keep that \
                  order, (distance, index) for ascending input"
    )]
    v.sort_by(|&a, &b| {
        space.distance(from, a).partial_cmp(&space.distance(from, b)).expect("distances are finite")
    });
    v.dedup();
    v.truncate(k);
    v
}

/// An upper bound on the diameter restricted to `members`, computed as
/// `2 · max_m d(members[0], m)` (valid by the triangle inequality).
pub fn diameter_upper_bound<S: MetricSpace + ?Sized>(space: &S, members: &[PointIdx]) -> f64 {
    match members.first() {
        None => 0.0,
        Some(&pivot) => 2.0 * members.iter().map(|&m| space.distance(pivot, m)).fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TorusSpace;

    #[test]
    fn nearest_of_empty_is_none() {
        let s = TorusSpace::random(8, 100.0, 1);
        assert_eq!(nearest(&s, 0, &[]), None);
        assert_eq!(nearest(&s, 0, &[0]), None, "self excluded");
    }

    #[test]
    fn closest_k_sorted_and_bounded() {
        let s = TorusSpace::random(32, 100.0, 2);
        let all: Vec<usize> = (0..32).collect();
        let got = closest_k(&s, 5, &all, 7);
        assert_eq!(got.len(), 7);
        assert!(!got.contains(&5));
        for w in got.windows(2) {
            assert!(s.distance(5, w[0]) <= s.distance(5, w[1]));
        }
        // First element agrees with `nearest`.
        assert_eq!(got[0], nearest(&s, 5, &all).unwrap());
    }

    #[test]
    fn closest_k_dedups_duplicates() {
        let s = TorusSpace::random(8, 100.0, 3);
        let got = closest_k(&s, 0, &[1, 1, 2, 2, 3], 10);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn ball_size_counts_members_only() {
        let s = TorusSpace::random(16, 100.0, 4);
        let members: Vec<usize> = (0..8).collect();
        let n = s.ball_size(0, f64::INFINITY, &members);
        assert_eq!(n, 8);
        assert_eq!(s.ball_size(0, -1.0, &members), 0);
    }

    #[test]
    fn diameter_bound_dominates_pairwise() {
        let s = TorusSpace::random(24, 100.0, 5);
        let members: Vec<usize> = (0..24).collect();
        let d = diameter_upper_bound(&s, &members);
        for a in 0..24 {
            for b in 0..24 {
                assert!(s.distance(a, b) <= d + 1e-9);
            }
        }
    }
}

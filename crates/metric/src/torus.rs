use crate::{MetricSpace, PointIdx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniformly random points on a 2-D torus of side `side`.
///
/// This is the canonical growth-restricted metric: for uniform points on a
/// flat torus, `|B(2r)| / |B(r)| → 4` (area ratio) with tight
/// concentration, so Eq. 1 of the paper holds with `c ≈ 4 < b = 16`,
/// exactly the `c² < b` regime Lemma 1 requires... for base 16, c=4 gives
/// c² = 16 = b, borderline; experiments therefore also use base 32 where
/// the theory needs slack, and in practice base 16 works (the paper makes
/// the same observation about its own deployment, §6.2).
///
/// The wrap-around removes boundary effects that would otherwise make the
/// expansion constant blow up near edges.
#[derive(Debug, Clone)]
pub struct TorusSpace {
    pts: Vec<(f64, f64)>,
    side: f64,
}

impl TorusSpace {
    /// `n` uniform points on a torus of side `side`, seeded deterministically.
    pub fn random(n: usize, side: f64, seed: u64) -> Self {
        assert!(side > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n).map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side))).collect();
        TorusSpace { pts, side }
    }

    /// Explicit points (used by tests that need exact geometry).
    pub fn from_points(pts: Vec<(f64, f64)>, side: f64) -> Self {
        assert!(pts.iter().all(|&(x, y)| x >= 0.0 && x < side && y >= 0.0 && y < side));
        TorusSpace { pts, side }
    }

    /// Side length of the torus.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Coordinates of point `i`.
    pub fn point(&self, i: PointIdx) -> (f64, f64) {
        self.pts[i]
    }

    fn axis(&self, a: f64, b: f64) -> f64 {
        let d = (a - b).abs();
        d.min(self.side - d)
    }

    /// Torus distance between two coordinate pairs — the one place the
    /// metric is computed, so [`MetricSpace::distance`] and an index that
    /// keeps coordinates beside its members agree to the bit.
    pub(crate) fn between(&self, (ax, ay): (f64, f64), (bx, by): (f64, f64)) -> f64 {
        let dx = self.axis(ax, bx);
        let dy = self.axis(ay, by);
        (dx * dx + dy * dy).sqrt()
    }
}

impl MetricSpace for TorusSpace {
    fn len(&self) -> usize {
        self.pts.len()
    }

    fn distance(&self, a: PointIdx, b: PointIdx) -> f64 {
        self.between(self.pts[a], self.pts[b])
    }

    fn name(&self) -> &'static str {
        "torus2d"
    }

    fn build_index<'a>(&'a self, members: Vec<PointIdx>) -> Box<dyn crate::NearestIndex + 'a> {
        Box::new(crate::index::PlanarIndex::new(self, members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_zero_on_diagonal() {
        let s = TorusSpace::random(10, 50.0, 9);
        for i in 0..10 {
            assert_eq!(s.distance(i, i), 0.0);
        }
    }

    #[test]
    fn wraparound_shortcuts() {
        let s = TorusSpace::from_points(vec![(1.0, 0.0), (99.0, 0.0)], 100.0);
        assert!((s.distance(0, 1) - 2.0).abs() < 1e-12, "wraps across the seam");
    }

    #[test]
    fn max_distance_is_half_diagonal() {
        let s = TorusSpace::from_points(vec![(0.0, 0.0), (50.0, 50.0)], 100.0);
        let d = s.distance(0, 1);
        assert!((d - (2.0_f64).sqrt() * 50.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_symmetry(seed in 0u64..50, a in 0usize..32, b in 0usize..32) {
            let s = TorusSpace::random(32, 100.0, seed);
            prop_assert!((s.distance(a, b) - s.distance(b, a)).abs() < 1e-12);
        }

        #[test]
        fn prop_triangle_inequality(seed in 0u64..50, a in 0usize..32, b in 0usize..32, c in 0usize..32) {
            let s = TorusSpace::random(32, 100.0, seed);
            prop_assert!(s.distance(a, c) <= s.distance(a, b) + s.distance(b, c) + 1e-9);
        }
    }
}

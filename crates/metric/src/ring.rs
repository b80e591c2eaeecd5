use crate::{MetricSpace, PointIdx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points on a circle, distance measured along the arc.
///
/// A 1-D growth-restricted metric with expansion constant `c ≈ 2` — the
/// friendliest space for the paper's Lemma 1 (`c² = 4 « b = 16`). Useful
/// for exercising the theory in its comfortable regime and for tests whose
/// geometry must be easy to reason about.
#[derive(Debug, Clone)]
pub struct RingSpace {
    pos: Vec<f64>,
    circumference: f64,
}

impl RingSpace {
    /// `n` uniformly random points on a circle of the given circumference.
    pub fn random(n: usize, circumference: f64, seed: u64) -> Self {
        assert!(circumference > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let pos = (0..n).map(|_| rng.gen_range(0.0..circumference)).collect();
        RingSpace { pos, circumference }
    }

    /// `n` evenly spaced points (deterministic geometry for tests).
    pub fn even(n: usize, circumference: f64) -> Self {
        let pos = (0..n).map(|i| i as f64 * circumference / n as f64).collect();
        RingSpace { pos, circumference }
    }
}

impl MetricSpace for RingSpace {
    fn len(&self) -> usize {
        self.pos.len()
    }

    fn distance(&self, a: PointIdx, b: PointIdx) -> f64 {
        let d = (self.pos[a] - self.pos[b]).abs();
        d.min(self.circumference - d)
    }

    fn name(&self) -> &'static str {
        "ring1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_spacing_distances() {
        let s = RingSpace::even(4, 100.0);
        assert_eq!(s.distance(0, 1), 25.0);
        assert_eq!(s.distance(0, 2), 50.0);
        assert_eq!(s.distance(0, 3), 25.0, "arc wraps the short way");
    }

    #[test]
    fn zero_on_diagonal() {
        let s = RingSpace::random(16, 360.0, 3);
        for i in 0..16 {
            assert_eq!(s.distance(i, i), 0.0);
        }
    }

    proptest! {
        #[test]
        fn prop_triangle(seed in 0u64..30, a in 0usize..24, b in 0usize..24, c in 0usize..24) {
            let s = RingSpace::random(24, 1000.0, seed);
            prop_assert!(s.distance(a, c) <= s.distance(a, b) + s.distance(b, c) + 1e-9);
        }

        #[test]
        fn prop_bounded_by_half_circumference(seed in 0u64..30, a in 0usize..24, b in 0usize..24) {
            let s = RingSpace::random(24, 1000.0, seed);
            prop_assert!(s.distance(a, b) <= 500.0 + 1e-9);
        }
    }
}

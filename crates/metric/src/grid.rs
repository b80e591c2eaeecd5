use crate::{MetricSpace, PointIdx};

/// A `w × h` lattice under the Manhattan (L1) metric.
///
/// Deterministic geometry with expansion constant `c ≈ 4`; the discrete
/// analogue of the torus space, handy when tests need exact integer
/// distances (the L1 ball of radius `r` has `2r² + 2r + 1` lattice
/// points, so ball sizes are exactly computable).
#[derive(Debug, Clone)]
pub struct GridSpace {
    w: usize,
    h: usize,
    spacing: f64,
}

impl GridSpace {
    /// A `w × h` grid with the given spacing between adjacent points.
    pub fn new(w: usize, h: usize, spacing: f64) -> Self {
        assert!(w > 0 && h > 0 && spacing > 0.0);
        GridSpace { w, h, spacing }
    }

    /// Grid coordinates of point `i` (row-major).
    pub fn coords(&self, i: PointIdx) -> (usize, usize) {
        (i % self.w, i / self.w)
    }

    /// Width in points.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Distance between adjacent lattice points.
    pub fn spacing(&self) -> f64 {
        self.spacing
    }
}

impl MetricSpace for GridSpace {
    fn len(&self) -> usize {
        self.w * self.h
    }

    fn distance(&self, a: PointIdx, b: PointIdx) -> f64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = ax.abs_diff(bx) as f64;
        let dy = ay.abs_diff(by) as f64;
        (dx + dy) * self.spacing
    }

    fn name(&self) -> &'static str {
        "grid-l1"
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
    fn manhattan_distances() {
        let g = GridSpace::new(4, 4, 1.0);
        // point 0 = (0,0), point 5 = (1,1), point 15 = (3,3)
        assert_eq!(g.distance(0, 5), 2.0);
        assert_eq!(g.distance(0, 15), 6.0);
        assert_eq!(g.distance(5, 5), 0.0);
    }

    #[test]
    fn spacing_scales_distances() {
        let g = GridSpace::new(3, 3, 2.5);
        assert_eq!(g.distance(0, 1), 2.5);
        assert_eq!(g.distance(0, 8), 10.0);
    }

    #[test]
    fn coords_roundtrip() {
        let g = GridSpace::new(7, 5, 1.0);
        for i in 0..g.len() {
            let (x, y) = g.coords(i);
            assert_eq!(y * 7 + x, i);
        }
    }

    proptest! {
        #[test]
        fn prop_triangle(a in 0usize..36, b in 0usize..36, c in 0usize..36) {
            let g = GridSpace::new(6, 6, 1.0);
            prop_assert!(g.distance(a, c) <= g.distance(a, b) + g.distance(b, c) + 1e-12);
        }
    }
}

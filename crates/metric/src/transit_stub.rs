use crate::{MetricSpace, PointIdx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A transit-stub–style topology (§6.2–6.3 of the paper), realized as a
/// clustered planar embedding.
///
/// The paper discusses the Zegura/Calvert/Bhattacharjee transit-stub model
/// (its citation \[34\]): a small number of well-connected *transit* domains, each serving
/// several *stub* networks whose internal latencies are an order of
/// magnitude (or more) below inter-stub latencies. We substitute a planar
/// embedding — transit centres spread across a large square, stub centres
/// clustered near their transit centre, nodes packed tightly around their
/// stub centre — which preserves exactly the property §6.3 exploits
/// (huge intra/inter-stub latency gap) while keeping the triangle
/// inequality for free, since distances are Euclidean in the plane.
#[derive(Debug, Clone)]
pub struct TransitStubSpace {
    pts: Vec<(f64, f64)>,
    stub_of: Vec<usize>,
    stub_radius: f64,
    n_stubs: usize,
}

impl TransitStubSpace {
    /// Build a topology with `n_transit` transit domains, `stubs_per_transit`
    /// stubs each, and `nodes_per_stub` nodes per stub.
    ///
    /// Geometry: transit centres are uniform over a `10_000 × 10_000`
    /// square; stub centres lie within `800` of their transit centre;
    /// nodes lie within the stub radius (30) of their stub centre —
    /// a ≥ 10× intra/inter gap.
    pub fn new(
        n_transit: usize,
        stubs_per_transit: usize,
        nodes_per_stub: usize,
        seed: u64,
    ) -> Self {
        assert!(n_transit > 0 && stubs_per_transit > 0 && nodes_per_stub > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 10_000.0;
        let stub_spread = 800.0;
        let stub_radius = 30.0;
        let mut pts = Vec::new();
        let mut stub_of = Vec::new();
        let mut stub_id = 0;
        for _ in 0..n_transit {
            let tc = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            for _ in 0..stubs_per_transit {
                let sc = (
                    tc.0 + rng.gen_range(-stub_spread..stub_spread),
                    tc.1 + rng.gen_range(-stub_spread..stub_spread),
                );
                for _ in 0..nodes_per_stub {
                    let p = (
                        sc.0 + rng.gen_range(-stub_radius..stub_radius),
                        sc.1 + rng.gen_range(-stub_radius..stub_radius),
                    );
                    pts.push(p);
                    stub_of.push(stub_id);
                }
                stub_id += 1;
            }
        }
        TransitStubSpace { pts, stub_of, stub_radius, n_stubs: stub_id }
    }

    /// Planar coordinates of point `i`.
    pub fn point(&self, i: PointIdx) -> (f64, f64) {
        self.pts[i]
    }

    /// The stub network point `i` belongs to.
    pub fn stub_of(&self, i: PointIdx) -> usize {
        self.stub_of[i]
    }

    /// Number of stub networks.
    pub fn n_stubs(&self) -> usize {
        self.n_stubs
    }

    /// Are two points in the same stub network?
    pub fn same_stub(&self, a: PointIdx, b: PointIdx) -> bool {
        self.stub_of[a] == self.stub_of[b]
    }

    /// A latency threshold that separates intra-stub from inter-stub hops —
    /// the paper's practical proposal for stub detection ("setting a local
    /// latency threshold", §6.3).
    pub fn local_threshold(&self) -> f64 {
        // Intra-stub distances are at most the diameter of a stub box.
        2.0 * self.stub_radius * std::f64::consts::SQRT_2 + 1.0
    }
}

impl MetricSpace for TransitStubSpace {
    fn len(&self) -> usize {
        self.pts.len()
    }

    fn distance(&self, a: PointIdx, b: PointIdx) -> f64 {
        let (ax, ay) = self.pts[a];
        let (bx, by) = self.pts[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    fn name(&self) -> &'static str {
        "transit-stub"
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
    fn shape_and_sizes() {
        let s = TransitStubSpace::new(3, 4, 5, 11);
        assert_eq!(s.len(), 60);
        assert_eq!(s.n_stubs(), 12);
        assert_eq!(s.stub_of(0), 0);
        assert_eq!(s.stub_of(59), 11);
    }

    #[test]
    fn intra_stub_under_threshold() {
        let s = TransitStubSpace::new(4, 4, 8, 21);
        let t = s.local_threshold();
        for i in 0..s.len() {
            for j in 0..s.len() {
                if s.same_stub(i, j) {
                    assert!(s.distance(i, j) <= t, "intra-stub pair exceeds threshold");
                }
            }
        }
    }

    #[test]
    fn inter_stub_usually_far() {
        // With stub spread 800 on a 10k square, most cross-stub pairs are
        // far beyond the local threshold; verify the *median* gap is large.
        let s = TransitStubSpace::new(4, 3, 4, 33);
        let t = s.local_threshold();
        let mut cross: Vec<f64> = Vec::new();
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                if !s.same_stub(i, j) {
                    cross.push(s.distance(i, j));
                }
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "plain f64 values: equal elements are interchangeable for the median read"
        )]
        cross.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            cross[cross.len() / 2] > 5.0 * t,
            "median inter-stub distance should dwarf threshold"
        );
    }

    proptest! {
        #[test]
        fn prop_triangle(seed in 0u64..20, a in 0usize..40, b in 0usize..40, c in 0usize..40) {
            let s = TransitStubSpace::new(2, 4, 5, seed);
            prop_assert!(s.distance(a, c) <= s.distance(a, b) + s.distance(b, c) + 1e-9);
        }
    }
}

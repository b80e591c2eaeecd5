use crate::{MetricSpace, PointIdx};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Empirical estimate of the expansion constant `c` of Eq. 1:
/// `|B(2r)| ≤ c · |B(r)|` over sampled centres and radii.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionEstimate {
    /// Maximum observed `|B(2r)| / |B(r)|` (the constant Eq. 1 needs).
    pub c_max: f64,
    /// Median observed ratio — what "typical" growth looks like.
    pub c_median: f64,
    /// Number of (centre, radius) samples measured.
    pub samples: usize,
}

/// Estimate the expansion constant of `space` restricted to `members`.
///
/// For each of `n_centers` sampled centres we sweep radii so that the inner
/// ball holds `4, 8, 16, …` members, and record `|B(2r)| / |B(r)|`.
/// Balls that already cover more than half the member set are skipped, per
/// the paper's caveat "(unless all points are within 2r of A)".
///
/// Ball counting goes through the space's [`MetricSpace::build_index`]
/// (grid buckets on the planar spaces), so the sweep is near-linear in the
/// member count instead of requiring a full per-centre distance sort; the
/// indexed counts are cross-checked against the brute-force
/// [`MetricSpace::ball_size`] definition in debug builds.
pub fn estimate_expansion<S: MetricSpace + ?Sized>(
    space: &S,
    members: &[PointIdx],
    n_centers: usize,
    seed: u64,
) -> ExpansionEstimate {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers: Vec<PointIdx> = members.to_vec();
    centers.shuffle(&mut rng);
    centers.truncate(n_centers.max(1));

    let index = space.build_index(members.to_vec());
    let mut ratios = Vec::new();
    for &c in &centers {
        // Members other than the centre itself (the centre is always a
        // member here, drawn from the member list).
        let others = index.members().len().saturating_sub(1);
        let mut inner = 4usize;
        while inner * 2 < others {
            // Radius reaching exactly the `inner` closest members.
            let knn = index.closest_k(c, inner);
            let r = match knn.last() {
                Some(&(_, d)) => d,
                None => break,
            };
            if r <= 0.0 {
                inner *= 2;
                continue;
            }
            // |B(2r)| excluding the centre, to match the inner count.
            let outer = index.ball_size(c, 2.0 * r).saturating_sub(1);
            if outer <= others / 2 {
                ratios.push(outer as f64 / inner as f64);
            }
            inner *= 2;
        }
    }

    if ratios.is_empty() {
        return ExpansionEstimate { c_max: 1.0, c_median: 1.0, samples: 0 };
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "plain f64 values: equal elements are interchangeable, so tie order cannot \
                  affect the max/median read below"
    )]
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ExpansionEstimate {
        c_max: *ratios.last().unwrap(),
        c_median: ratios[ratios.len() / 2],
        samples: ratios.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RingSpace, TorusSpace, TransitStubSpace};

    #[test]
    fn ring_expansion_near_two() {
        let s = RingSpace::random(512, 10_000.0, 5);
        let members: Vec<usize> = (0..512).collect();
        let e = estimate_expansion(&s, &members, 16, 5);
        assert!(e.samples > 0);
        assert!(e.c_median >= 1.2 && e.c_median <= 3.5, "1-D growth ≈ 2, got {e:?}");
    }

    #[test]
    fn torus_expansion_near_four() {
        let s = TorusSpace::random(1024, 1_000.0, 6);
        let members: Vec<usize> = (0..1024).collect();
        let e = estimate_expansion(&s, &members, 16, 6);
        assert!(e.c_median >= 2.0 && e.c_median <= 8.0, "2-D growth ≈ 4, got {e:?}");
    }

    #[test]
    fn transit_stub_expansion_is_larger() {
        // Clustered topologies can have bursty growth — this is exactly the
        // paper's §6.2 concern. We only check the estimator runs and
        // reports more aggressive growth than the smooth torus median.
        let s = TransitStubSpace::new(4, 4, 16, 7);
        let members: Vec<usize> = (0..s.len()).collect();
        let e = estimate_expansion(&s, &members, 16, 7);
        assert!(e.samples > 0);
        assert!(e.c_max >= 2.0);
    }

    #[test]
    fn degenerate_member_set() {
        let s = TorusSpace::random(8, 100.0, 8);
        let e = estimate_expansion(&s, &[0, 1], 4, 8);
        assert_eq!(e.samples, 0);
        assert_eq!(e.c_max, 1.0);
    }
}

//! Deterministic, seedable traffic sources: arrival processes over a
//! simulated-time window, object-popularity distributions, and the
//! read/write mix.
//!
//! Everything here is a pure function of `(spec, rng)` — the same seed
//! reproduces the same op stream bit for bit, which is what lets
//! `BENCH_scenarios.json` be diffed across PRs.

use rand::rngs::StdRng;
use rand::Rng;
use tapestry_sim::SimTime;

/// When operations are issued within one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// No traffic (pure-churn phases).
    None,
    /// Exactly `ops` operations, evenly spaced.
    Even {
        /// Total operations in the phase.
        ops: u64,
    },
    /// A Poisson process with `ops` expected arrivals over the phase
    /// (exponential inter-arrival gaps).
    Poisson {
        /// Expected operations in the phase.
        ops: u64,
    },
    /// A flash crowd: a non-homogeneous Poisson process whose rate ramps
    /// linearly from `1×` to `peak_ratio×` across the phase, normalized
    /// so `ops` arrivals are expected in total.
    FlashCrowd {
        /// Expected operations in the phase.
        ops: u64,
        /// Final rate relative to the initial rate (≥ 1).
        peak_ratio: f64,
    },
}

impl Arrival {
    /// Issue times in `[start, end)`, sorted ascending: the
    /// [`Arrival::stream`] collected.
    pub fn times(&self, start: SimTime, end: SimTime, rng: &mut StdRng) -> Vec<SimTime> {
        self.stream(start, end, rng).collect()
    }

    /// Issue times in `[start, end)`, ascending, drawn from `rng` one at
    /// a time as they are taken. This holds the arithmetic: the stream
    /// run to its end leaves `rng` exactly where [`Arrival::times`] does,
    /// so a driver can issue each operation as it is drawn instead of
    /// holding the whole schedule.
    pub fn stream<'r>(
        &self,
        start: SimTime,
        end: SimTime,
        rng: &'r mut StdRng,
    ) -> ArrivalStream<'r> {
        let span = (end.0.saturating_sub(start.0)) as f64;
        let t = start.0 as f64;
        let state = match *self {
            _ if span <= 0.0 => Process::Done,
            Arrival::None | Arrival::Poisson { ops: 0 } | Arrival::FlashCrowd { ops: 0, .. } => {
                Process::Done
            }
            Arrival::Even { ops } => Process::Even { i: 0, ops },
            Arrival::Poisson { ops } => Process::Poisson { t, rate: ops as f64 / span },
            Arrival::FlashCrowd { ops, peak_ratio } => {
                let peak_ratio = peak_ratio.max(1.0);
                // λ(x) = λ0·(1 + (peak-1)·x) for phase fraction x, with
                // ∫λ = ops ⇒ λ0 = 2·ops / (span·(1+peak)). Sample by
                // thinning a homogeneous process at λmax = λ0·peak.
                let lam0 = 2.0 * ops as f64 / (span * (1.0 + peak_ratio));
                Process::FlashCrowd { t, lam_max: lam0 * peak_ratio, peak_ratio }
            }
        };
        ArrivalStream { rng, start: start.0, end: end.0, span, state }
    }

    /// Expected number of operations (exact for [`Arrival::Even`]).
    /// Nothing in the workspace calls it. It stays only because the
    /// standalone `benchmark/` package names it
    /// (`benchmark/tests/schema.rs`); the change that re-points
    /// `benchmark/` deletes it.
    pub fn expected_ops(&self) -> u64 {
        match *self {
            Arrival::None => 0,
            Arrival::Even { ops } | Arrival::Poisson { ops } | Arrival::FlashCrowd { ops, .. } => {
                ops
            }
        }
    }
}

/// The issue times of one [`Arrival`] over a window, drawn lazily
/// ([`Arrival::stream`]). Fused: once it has returned `None` it draws
/// nothing more.
pub struct ArrivalStream<'r> {
    rng: &'r mut StdRng,
    start: u64,
    end: u64,
    span: f64,
    state: Process,
}

/// Where an [`ArrivalStream`] stands in its process.
enum Process {
    Done,
    /// The `i`-th of `ops` evenly spaced times is next.
    Even {
        i: u64,
        ops: u64,
    },
    /// Homogeneous Poisson process, last arrival at `t`.
    Poisson {
        t: f64,
        rate: f64,
    },
    /// Thinned Poisson process at `lam_max`, last candidate at `t`.
    FlashCrowd {
        t: f64,
        lam_max: f64,
        peak_ratio: f64,
    },
}

impl Iterator for ArrivalStream<'_> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        let end = self.end as f64;
        let next = match &mut self.state {
            Process::Done => None,
            Process::Even { i, ops } => (*i < *ops).then(|| {
                let t = SimTime(self.start + (self.span * (*i as f64 + 0.5) / *ops as f64) as u64);
                *i += 1;
                t
            }),
            Process::Poisson { t, rate } => {
                *t += exp_gap(self.rng, *rate);
                if *t >= end {
                    None
                } else {
                    Some(SimTime(*t as u64))
                }
            }
            Process::FlashCrowd { t, lam_max, peak_ratio } => loop {
                *t += exp_gap(self.rng, *lam_max);
                if *t >= end {
                    break None;
                }
                let x = (*t - self.start as f64) / self.span;
                let accept = (1.0 + (*peak_ratio - 1.0) * x) / *peak_ratio;
                if self.rng.gen_range(0.0..1.0) < accept {
                    break Some(SimTime(*t as u64));
                }
            },
        };
        if next.is_none() {
            self.state = Process::Done;
        }
        next
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.state {
            Process::Done => (0, Some(0)),
            Process::Even { i, ops } => {
                let left = (ops - i) as usize;
                (left, Some(left))
            }
            Process::Poisson { .. } | Process::FlashCrowd { .. } => (0, None),
        }
    }
}

/// One exponential inter-arrival gap at `rate` events per time unit
/// (shared by every Poisson-flavored generator in the crate).
pub(crate) fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Which object each operation touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// All objects equally likely.
    Uniform,
    /// Zipf-distributed object popularity: object of rank `r` (0-based)
    /// is drawn with weight `1/(r+1)^exponent` — the skew web and P2P
    /// traces exhibit.
    Zipf {
        /// Skew exponent `s` (≈ 0.8–1.2 for real traces).
        exponent: f64,
    },
    /// One hot object absorbs `weight` of all requests (a flash crowd's
    /// focal point); the rest are uniform over the whole catalog.
    Hotspot {
        /// Index of the hot object.
        hot: usize,
        /// Fraction of requests hitting it (0 ≤ weight ≤ 1).
        weight: f64,
    },
}

/// A sampler over a catalog of `n` objects, precomputed from a
/// [`Popularity`] for O(log n) draws.
#[derive(Debug, Clone)]
pub struct PopularitySampler {
    cdf: Vec<f64>,
}

impl PopularitySampler {
    /// Build the cumulative distribution for a catalog of `n` objects.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn new(pop: Popularity, n: usize) -> Self {
        assert!(n > 0, "catalog must be non-empty");
        let weights: Vec<f64> = match pop {
            Popularity::Uniform => vec![1.0; n],
            Popularity::Zipf { exponent } => {
                (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(exponent)).collect()
            }
            Popularity::Hotspot { hot, weight } => {
                let w = weight.clamp(0.0, 1.0);
                let hot = hot.min(n - 1);
                let rest = (1.0 - w) / n as f64;
                (0..n).map(|i| if i == hot { w + rest } else { rest }).collect()
            }
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        PopularitySampler { cdf }
    }

    /// Draw one object index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// The issue times as whole-window loops drew them before
    /// [`Arrival::stream`] existed: the reference the stream must match
    /// draw for draw.
    fn looped_times(a: Arrival, start: SimTime, end: SimTime, rng: &mut StdRng) -> Vec<SimTime> {
        let span = (end.0.saturating_sub(start.0)) as f64;
        if span <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        match a {
            Arrival::None => {}
            Arrival::Even { ops } => {
                for i in 0..ops {
                    out.push(SimTime(start.0 + (span * (i as f64 + 0.5) / ops as f64) as u64));
                }
            }
            Arrival::Poisson { ops: 0 } | Arrival::FlashCrowd { ops: 0, .. } => {}
            Arrival::Poisson { ops } => {
                let rate = ops as f64 / span;
                let mut t = start.0 as f64;
                loop {
                    t += exp_gap(rng, rate);
                    if t >= end.0 as f64 {
                        break;
                    }
                    out.push(SimTime(t as u64));
                }
            }
            Arrival::FlashCrowd { ops, peak_ratio } => {
                let peak_ratio = peak_ratio.max(1.0);
                let lam0 = 2.0 * ops as f64 / (span * (1.0 + peak_ratio));
                let lam_max = lam0 * peak_ratio;
                let mut t = start.0 as f64;
                loop {
                    t += exp_gap(rng, lam_max);
                    if t >= end.0 as f64 {
                        break;
                    }
                    let x = (t - start.0 as f64) / span;
                    let accept = (1.0 + (peak_ratio - 1.0) * x) / peak_ratio;
                    if rng.gen_range(0.0..1.0) < accept {
                        out.push(SimTime(t as u64));
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every variant streams the times the loops drew and leaves the
        /// rng where they left it, also when polled past its end: over
        /// empty and inverted windows, windows away from 0, and (about
        /// one case in eight) no operations at all.
        #[test]
        fn stream_draws_what_the_loops_drew(
            kind in 0u8..4,
            ops in 0u64..400,
            peak in 0.5f64..12.0,
            start in 0u64..50_000,
            len in 1u64..200_000,
            window in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let ops = ops.saturating_sub(50);
            let arrival = match kind {
                0 => Arrival::None,
                1 => Arrival::Even { ops },
                2 => Arrival::Poisson { ops },
                _ => Arrival::FlashCrowd { ops, peak_ratio: peak },
            };
            let (start, end) = match window {
                0 => (SimTime(start), SimTime(start)),
                1 => (SimTime(start + len), SimTime(start)),
                _ => (SimTime(start), SimTime(start + len)),
            };
            let mut looped = StdRng::seed_from_u64(seed);
            let mut streamed = looped.clone();
            let mut collected = looped.clone();
            let want = looped_times(arrival, start, end, &mut looped);
            let mut stream = arrival.stream(start, end, &mut streamed);
            let got: Vec<SimTime> = stream.by_ref().collect();
            prop_assert_eq!(stream.next(), None);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(arrival.times(start, end, &mut collected), want);
            let next = looped.gen::<u64>();
            prop_assert_eq!(streamed.gen::<u64>(), next);
            prop_assert_eq!(collected.gen::<u64>(), next);
        }
    }

    #[test]
    fn even_times_are_exact_and_in_window() {
        let ts = Arrival::Even { ops: 10 }.times(SimTime(100), SimTime(1100), &mut rng());
        assert_eq!(ts.len(), 10);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert!(ts.iter().all(|t| t.0 >= 100 && t.0 < 1100));
    }

    #[test]
    fn poisson_count_near_expectation() {
        let ts = Arrival::Poisson { ops: 500 }.times(SimTime(0), SimTime(1_000_000), &mut rng());
        assert!(ts.len() > 350 && ts.len() < 650, "got {}", ts.len());
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn flash_crowd_ramps_toward_the_end() {
        let ts = Arrival::FlashCrowd { ops: 2000, peak_ratio: 9.0 }.times(
            SimTime(0),
            SimTime(1_000_000),
            &mut rng(),
        );
        let first_half = ts.iter().filter(|t| t.0 < 500_000).count();
        let second_half = ts.len() - first_half;
        assert!(
            second_half > first_half * 2,
            "ramp must back-load arrivals: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn arrival_streams_are_deterministic() {
        let a = Arrival::Poisson { ops: 200 }.times(SimTime(0), SimTime(100_000), &mut rng());
        let b = Arrival::Poisson { ops: 200 }.times(SimTime(0), SimTime(100_000), &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let s = PopularitySampler::new(Popularity::Zipf { exponent: 1.1 }, 100);
        let mut r = rng();
        let mut top10 = 0;
        for _ in 0..2000 {
            if s.sample(&mut r) < 10 {
                top10 += 1;
            }
        }
        assert!(top10 > 1000, "zipf(1.1) should put >50% of draws in the top decile: {top10}");
    }

    #[test]
    fn hotspot_concentrates_on_the_hot_object() {
        let s = PopularitySampler::new(Popularity::Hotspot { hot: 3, weight: 0.8 }, 50);
        let mut r = rng();
        let hot = (0..2000).filter(|_| s.sample(&mut r) == 3).count();
        assert!(hot > 1400, "hot object should absorb ~80% of draws: {hot}");
    }

    #[test]
    fn uniform_covers_the_catalog() {
        let s = PopularitySampler::new(Popularity::Uniform, 8);
        let mut r = rng();
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[s.sample(&mut r)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}

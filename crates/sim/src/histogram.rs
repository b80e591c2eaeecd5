/// Number of sub-buckets per power of two; values below `2^LINEAR_BITS`
/// are counted exactly.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32 sub-buckets per octave
const LINEAR_BITS: u32 = SUB_BITS + 1;
const LINEAR: u64 = 1 << LINEAR_BITS; // values < 64 are exact

/// A log-bucketed histogram of `u64` samples (latencies, hop counts,
/// distances in integer units).
///
/// Values below 64 are recorded exactly; larger values fall into one of
/// 32 sub-buckets per power of two, bounding the relative quantile error
/// at 1/32 ≈ 3%. `buckets[bucket_of(v)]` counts the samples of `v`'s
/// bucket, ascending by value, so recording is an indexed add and a
/// percentile walks the buckets in value order. The [`BUCKETS`] counts
/// (15 KB) are allocated at the first sample and never move: growing the
/// list to the highest bucket as samples arrived reallocated it a few
/// times per histogram, and that raised `churn-repair`'s peak RSS by
/// 0.8 MB.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// `bucket_of(u64::MAX) + 1`: 64 exact values and 32 sub-buckets for each
/// of the 58 octaves above them.
const BUCKETS: usize = 1_920;

fn bucket_of(v: u64) -> u32 {
    if v < LINEAR {
        return v as u32;
    }
    let exp = 63 - v.leading_zeros(); // ≥ LINEAR_BITS
    let sub = ((v >> (exp - SUB_BITS)) & (SUB - 1)) as u32;
    LINEAR as u32 + (exp - LINEAR_BITS) * SUB as u32 + sub
}

/// Lower bound of a bucket (the deterministic representative value).
fn bucket_low(idx: u32) -> u64 {
    if (idx as u64) < LINEAR {
        return idx as u64;
    }
    let rel = idx - LINEAR as u32;
    let exp = LINEAR_BITS + rel / SUB as u32;
    let sub = (rel % SUB as u32) as u64;
    (1u64 << exp) | (sub << (exp - SUB_BITS))
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.allocate();
        self.buckets[bucket_of(v) as usize] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
    }

    /// The bucket counts, allocated before the first sample lands.
    fn allocate(&mut self) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean of the exact samples (0 for empty input).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-th percentile (0 ≤ q ≤ 100) as the lower bound of the
    /// bucket holding the nearest-rank sample. Exact for values < 64,
    /// within 1/32 relative error above. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the true extremes so p0/p100 are exact.
                return bucket_low(idx as u32).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// p90.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// p99.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// p99.9.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.allocate();
        self.buckets.iter_mut().zip(&other.buckets).for_each(|(mine, &c)| *mine += c);
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.percentile(50.0), 31);
        assert_eq!(h.percentile(100.0), 63);
    }

    #[test]
    fn large_values_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in [1_000u64, 10_000, 100_000, 1_000_000] {
            h.record(v);
            let b = bucket_low(bucket_of(v));
            assert!(b <= v, "bucket lower bound exceeds value");
            assert!((v - b) as f64 / v as f64 <= 1.0 / 32.0 + 1e-12, "error too large for {v}");
        }
        assert_eq!(bucket_of(u64::MAX) as usize + 1, BUCKETS, "the largest sample has a bucket");
    }

    #[test]
    fn percentiles_monotone_and_clamped() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record(i * 97 + 5);
        }
        let ps: Vec<u64> =
            [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0].iter().map(|&q| h.percentile(q)).collect();
        for w in ps.windows(2) {
            assert!(w[0] <= w[1], "percentiles must be monotone: {ps:?}");
        }
        assert_eq!(h.percentile(0.0), h.min());
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero_at_every_quantile() {
        // The metrics emitter prints p50/p90/p99/p999 for histograms that
        // may never have recorded (e.g. found-live latency in a scenario
        // where every locate failed) — all must read 0, including the
        // clamped endpoints.
        let h = Histogram::new();
        for q in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(q), 0, "percentile({q}) on empty");
        }
        assert_eq!(h.p90(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.p999(), 0);
        // Merging an empty histogram into an empty one stays empty.
        let mut a = Histogram::new();
        a.merge(&h);
        assert_eq!(a.count(), 0);
        assert_eq!(a.p999(), 0);
    }

    #[test]
    fn merge_matches_recording_directly() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for i in 0..500u64 {
            let v = i * 13 + 7;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(q), all.percentile(q));
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(90);
        assert!((h.mean() - 40.0).abs() < 1e-12);
    }

    /// SplitMix64: any seed, 0 included, gives a full-period stream.
    fn mix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// One sample: the bucket edges 0, 63 and 64 (and `u64::MAX` when
    /// `wide`) a quarter of the time, else log-uniform below 2^64 (below
    /// 2^10 when not `wide`).
    fn draw(next: &mut impl FnMut() -> u64, wide: bool) -> u64 {
        let edges: &[u64] = if wide { &[0, 63, 64, u64::MAX] } else { &[0, 63, 64] };
        if next().is_multiple_of(4) {
            return edges[(next() % edges.len() as u64) as usize];
        }
        let bits = if wide { 64 } else { 10 };
        (next() >> (64 - bits)) >> (next() % bits)
    }

    /// `h` against the sorted samples: the nearest-rank sample's bucket
    /// floor, clamped to the extremes, and the largest sample at the top
    /// rank; exact count, extremes and mean.
    fn assert_matches(h: &Histogram, samples: &[u64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        assert_eq!(h.count(), n);
        assert_eq!(h.min(), sorted.first().copied().unwrap_or(0));
        assert_eq!(h.max(), sorted.last().copied().unwrap_or(0));
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        assert_eq!(h.mean().to_bits(), mean.to_bits());
        for q in [0.0, 0.1, 1.0, 10.0, 25.0, 33.3, 50.0, 66.7, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = (((q / 100.0) * n as f64).ceil().max(1.0) as u64).min(n);
            let want = match (sorted.first(), sorted.last()) {
                (Some(&lo), Some(&hi)) if rank < n => {
                    bucket_low(bucket_of(sorted[rank as usize - 1])).clamp(lo, hi)
                }
                (_, hi) => hi.copied().unwrap_or(0),
            };
            assert_eq!(h.percentile(q), want, "p{q} of {n} samples");
        }
    }

    proptest::proptest! {
        /// Recording and merging — a few narrow samples into many wide
        /// ones, the other way round, and empty either way — read the same
        /// as the sorted samples.
        #[test]
        fn prop_matches_the_sorted_samples(
            salt in 0u64..u64::MAX,
            short_n in 0usize..40,
            long_n in 0usize..300,
        ) {
            let mut next = mix(salt);
            let short: Vec<u64> = (0..short_n).map(|_| draw(&mut next, false)).collect();
            let long: Vec<u64> = (0..long_n).map(|_| draw(&mut next, true)).collect();
            let of = |samples: &[u64]| {
                let mut h = Histogram::new();
                samples.iter().for_each(|&v| h.record(v));
                h
            };
            let (a, b, empty) = (of(&short), of(&long), Histogram::new());
            assert_matches(&a, &short);
            assert_matches(&b, &long);
            let both: Vec<u64> = short.iter().chain(&long).copied().collect();
            for (mut into, from, want) in [
                (a.clone(), &b, &both),
                (b.clone(), &a, &both),
                (empty.clone(), &a, &short),
                (empty.clone(), &b, &long),
                (a.clone(), &empty, &short),
                (b.clone(), &empty, &long),
            ] {
                into.merge(from);
                assert_matches(&into, want);
            }
        }
    }
}

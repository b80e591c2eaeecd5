//! The arithmetic the ledger's verdicts rest on: the best-of-n rule, the
//! median and within-set spread printed beside it, and the report digest.

/// The value a set of repetitions reports for a host-time metric: the
/// best one. Interference on a shared box only ever adds time, and it
/// comes in bursts longer than one repetition (27 consecutive
/// repetitions of `locate-steady`: 25 within 2.3 % of each other, then
/// two adjacent ones 17 % and 24 % slower), so two of three repetitions
/// are regularly hit together and the median moves with the burst while
/// the minimum does not.
pub fn best(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    let pick = if lower_is_better { f64::min } else { f64::max };
    values.iter().copied().reduce(pick).expect("non-empty")
}

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Within-set spread `(max − min) / median`; 0 when the median is 0
/// (every sample is then 0 too for the non-negative metrics used here).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// 64-bit FNV-1a over `bytes` — the digest of `ScenarioReport::to_json()`
/// that must repeat across repetitions of one (workload, seed).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

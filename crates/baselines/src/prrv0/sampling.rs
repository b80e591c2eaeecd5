#![expect(
    clippy::needless_range_loop,
    reason = "the S_{i,j} double-index notation of §7 is clearest as explicit index loops"
)]
use tapestry_id::splitmix64;
use tapestry_metric::PointIdx;

/// Shape of the §7 sampling structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingParams {
    /// Number of density levels, `⌈log₂ n⌉` (level `i ∈ [1, levels]`
    /// samples with probability `2^i / 2^levels`).
    pub levels: usize,
    /// Independent repetitions per level, the paper's `c·log n` columns.
    pub cols: usize,
}

impl SamplingParams {
    /// Paper defaults for an `n`-node network: `log₂ n` levels and
    /// `c·log₂ n` columns.
    pub fn for_n(n: usize, c: usize) -> Self {
        let lg = (n.max(2) as f64).log2().ceil() as usize;
        SamplingParams { levels: lg.max(1), cols: (c * lg).max(1) }
    }
}

/// Build the nested sample sets `S_{i,j}` over `members`.
///
/// Returned as `sets[i][j]`, `i ∈ [0, levels]`: `sets[0][j]` holds the
/// single `S_{0,0}` node (identical across `j` for simplicity), and
/// membership is nested — `sets[i][j] ⊆ sets[i+1][j]` — via the standard
/// rank trick: node `m` enters `S_{i,j}` iff `rank_j(m) < 2^i / 2^levels`,
/// so the probability of being in `S_{i,j}` is `2^i / n` exactly as §7
/// prescribes.
pub fn sample_sets(
    members: &[PointIdx],
    params: SamplingParams,
    seed: u64,
) -> Vec<Vec<Vec<PointIdx>>> {
    let denom = 1u64 << params.levels;
    let mut sets = vec![vec![Vec::new(); params.cols]; params.levels + 1];
    for j in 0..params.cols {
        for &m in members {
            // rank_j(m) ∈ [0, 1) as a 52-bit fraction, stable per (m, j).
            let h = splitmix64(splitmix64(m as u64 ^ seed) ^ (j as u64).wrapping_mul(0xA5A5_A5A5));
            let frac = (h >> 12) as f64 / (1u64 << 52) as f64;
            for i in 1..=params.levels {
                let p = (1u64 << i) as f64 / denom as f64;
                if frac < p {
                    sets[i][j].push(m);
                }
            }
        }
    }
    // S_{0,0}: one node chosen at random; replicate across columns so the
    // query loop can treat level 0 uniformly.
    let chosen = members[(splitmix64(seed ^ 0xD1CE) % members.len() as u64) as usize];
    for j in 0..params.cols {
        sets[0][j].push(chosen);
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_scale_with_n() {
        let p = SamplingParams::for_n(1024, 2);
        assert_eq!(p.levels, 10);
        assert_eq!(p.cols, 20);
    }

    #[test]
    fn sets_are_nested_in_density() {
        let members: Vec<usize> = (0..256).collect();
        let params = SamplingParams::for_n(256, 2);
        let sets = sample_sets(&members, params, 9);
        for j in 0..params.cols {
            for i in 1..params.levels {
                let lo: std::collections::BTreeSet<_> = sets[i][j].iter().collect();
                let hi: std::collections::BTreeSet<_> = sets[i + 1][j].iter().collect();
                assert!(lo.is_subset(&hi), "S_{{{i},{j}}} ⊄ S_{{{},{j}}}", i + 1);
            }
        }
    }

    #[test]
    fn densest_level_is_everyone() {
        let members: Vec<usize> = (0..128).collect();
        let params = SamplingParams::for_n(128, 1);
        let sets = sample_sets(&members, params, 3);
        for j in 0..params.cols {
            assert_eq!(sets[params.levels][j].len(), 128, "p = 1 at the top level");
        }
    }

    #[test]
    fn sizes_follow_geometric_growth() {
        let members: Vec<usize> = (0..1024).collect();
        let params = SamplingParams::for_n(1024, 2);
        let sets = sample_sets(&members, params, 4);
        // E|S_{i,j}| = 2^i; check the middle level within generous bounds.
        let i = 6;
        let avg: f64 =
            (0..params.cols).map(|j| sets[i][j].len() as f64).sum::<f64>() / params.cols as f64;
        assert!(avg > 32.0 && avg < 128.0, "E|S_6| = 64, got {avg}");
    }

    #[test]
    fn level_zero_is_single_and_consistent() {
        let members: Vec<usize> = (0..64).collect();
        let params = SamplingParams::for_n(64, 2);
        let sets = sample_sets(&members, params, 5);
        let first = sets[0][0][0];
        for j in 0..params.cols {
            assert_eq!(sets[0][j], vec![first]);
        }
    }
}

//! Coordinate-aware nearest-neighbor indexes over member sets.
//!
//! Every quantity the simulation derives from a metric space — nearest
//! member, closest-`k` candidate lists, ball sizes `|B_A(r)|` — has a
//! brute-force O(members) definition in [`crate::space`]. That is fine at
//! 64 nodes and ruinous at 10 000, where bootstrap alone issues millions
//! of such queries. A [`NearestIndex`] is a one-time O(members) structure
//! answering those queries in (near) output-sensitive time by exploiting
//! the space's coordinates: grid buckets for the planar spaces (torus,
//! grid, transit-stub). Every other space, the 1-D ring included, takes
//! the [`BruteForceIndex`] default.
//!
//! **Contract**: an index query returns *exactly* what the brute-force
//! path returns, including tie-breaking — ties in distance resolve to the
//! lower [`PointIdx`]. Debug builds cross-check every query against the
//! brute-force path (`debug_assertions`), so any divergence fails loudly
//! in tests; release builds pay only for the indexed path.

use crate::space::{closest_k as brute_closest_k, MetricSpace, PointIdx};
use crate::{GridSpace, TorusSpace, TransitStubSpace};
use std::ops::Range;

/// A snapshot index over a fixed member set of one [`MetricSpace`].
///
/// Queries may originate at *any* point of the space (member or not);
/// results are always drawn from the indexed member set. The query point
/// itself is excluded from `nearest`/`closest_k` (matching
/// [`crate::nearest`] / [`crate::closest_k`]) but counted by `ball_size`
/// when it is a member (matching [`MetricSpace::ball_size`]).
///
/// Indexes are immutable snapshots, so they are `Send + Sync` by
/// construction — the parallel bootstrap shares one index per
/// `(prefix, digit)` group across `std::thread::scope` workers.
pub trait NearestIndex: Send + Sync {
    /// The indexed members, deduplicated and sorted ascending.
    fn members(&self) -> &[PointIdx];

    /// The member nearest to `from` (excluding `from`), with its
    /// distance. Ties resolve to the lower index.
    fn nearest(&self, from: PointIdx) -> Option<(PointIdx, f64)>;

    /// The `k` members closest to `from` (excluding `from`), sorted by
    /// `(distance, index)` ascending.
    fn closest_k(&self, from: PointIdx, k: usize) -> Vec<(PointIdx, f64)>;

    /// Number of members within distance `r` of `from` (the paper's
    /// `|B_A(r)|` restricted to the member set).
    fn ball_size(&self, from: PointIdx, r: f64) -> usize;

    /// The nearest member treating an indexed query point as its own
    /// nearest (distance 0) — the "representative" query shape, where
    /// `from` may itself belong to the set `nearest` would exclude it
    /// from. `None` only for an empty index.
    fn nearest_or_self(&self, from: PointIdx) -> Option<PointIdx> {
        if self.members().binary_search(&from).is_ok() {
            Some(from)
        } else {
            self.nearest(from).map(|(p, _)| p)
        }
    }

    /// [`NearestIndex::closest_k`] written into a caller-owned buffer
    /// (cleared first), so a query loop allocates once, not per query.
    fn closest_k_into(&self, from: PointIdx, k: usize, out: &mut Vec<(PointIdx, f64)>) {
        out.clear();
        out.extend(self.closest_k(from, k));
    }
}

/// Strict `(distance, index)` order — the tie-break rule every index
/// implementation must honor: is candidate `p` at distance `d` ahead of
/// candidate `q` at distance `e`?
fn closer((d, p): (f64, PointIdx), (e, q): (f64, PointIdx)) -> bool {
    d < e || (d == e && p < q)
}

/// Sorted, deduplicated copy of a member list (canonical index order).
fn canonical_members(mut members: Vec<PointIdx>) -> Vec<PointIdx> {
    members.sort_unstable();
    members.dedup();
    members
}

/// What a candidate scan feeds: the best candidates seen so far under
/// the `(distance, index)` order, and the distance beyond which a
/// candidate can no longer matter.
trait Best {
    /// Distance of the worst candidate held once the accumulator is full
    /// (`None` until then: every candidate still matters).
    fn bound(&self) -> Option<f64>;

    fn offer(&mut self, d: f64, p: PointIdx);
}

/// The single best candidate: `nearest` without a buffer.
struct Top1(Option<(PointIdx, f64)>);

impl Best for Top1 {
    fn bound(&self) -> Option<f64> {
        self.0.map(|(_, d)| d)
    }

    fn offer(&mut self, d: f64, p: PointIdx) {
        if self.0.is_none_or(|(bp, bd)| closer((d, p), (bd, bp))) {
            self.0 = Some((p, d));
        }
    }
}

/// The best `k` candidates, kept sorted in a caller-owned buffer.
struct TopK<'a> {
    k: usize,
    best: &'a mut Vec<(PointIdx, f64)>,
}

impl<'a> TopK<'a> {
    fn new(k: usize, best: &'a mut Vec<(PointIdx, f64)>) -> Self {
        best.clear();
        TopK { k, best }
    }
}

impl Best for TopK<'_> {
    fn bound(&self) -> Option<f64> {
        if self.best.len() < self.k {
            return None;
        }
        self.best.last().map(|&(_, d)| d)
    }

    fn offer(&mut self, d: f64, p: PointIdx) {
        if self.best.len() == self.k {
            // Full (or k = 0): the candidate must beat the worst held.
            match self.best.last() {
                Some(&(lp, ld)) if closer((d, p), (ld, lp)) => self.best.pop(),
                _ => return,
            };
        }
        // Sift in from the back; for the small `k` of table slots that
        // is a compare or two, not a binary search plus a shift.
        self.best.push((p, d));
        let mut at = self.best.len() - 1;
        while at > 0 && closer((d, p), (self.best[at - 1].1, self.best[at - 1].0)) {
            self.best.swap(at, at - 1);
            at -= 1;
        }
    }
}

/// Verify an indexed result against the brute-force ground truth
/// (debug builds only — this is the `debug_assertions` cross-check the
/// scale refactor keeps alive).
fn debug_cross_check<S: MetricSpace + ?Sized>(
    space: &S,
    members: &[PointIdx],
    from: PointIdx,
    k: usize,
    got: &[(PointIdx, f64)],
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let want = brute_closest_k(space, from, members, k);
    let got_idx: Vec<PointIdx> = got.iter().map(|&(p, _)| p).collect();
    debug_assert_eq!(
        got_idx,
        want,
        "index closest_k({from}, {k}) diverged from brute force over {} members",
        members.len()
    );
}

// ---------------------------------------------------------------------------
// Brute-force fallback
// ---------------------------------------------------------------------------

/// O(members)-per-query fallback index; the default for metric spaces
/// without a coordinate-aware implementation, and the ground truth the
/// coordinate indexes are checked against.
pub struct BruteForceIndex<'a, S: MetricSpace + ?Sized> {
    space: &'a S,
    members: Vec<PointIdx>,
}

impl<'a, S: MetricSpace + ?Sized> BruteForceIndex<'a, S> {
    /// Index `members` of `space` (copied, sorted, deduplicated).
    pub fn new(space: &'a S, members: Vec<PointIdx>) -> Self {
        BruteForceIndex { space, members: canonical_members(members) }
    }
}

impl<S: MetricSpace + ?Sized> NearestIndex for BruteForceIndex<'_, S> {
    fn members(&self) -> &[PointIdx] {
        &self.members
    }

    fn nearest(&self, from: PointIdx) -> Option<(PointIdx, f64)> {
        self.closest_k(from, 1).into_iter().next()
    }

    fn closest_k(&self, from: PointIdx, k: usize) -> Vec<(PointIdx, f64)> {
        let mut got = Vec::new();
        let mut top = TopK::new(k, &mut got);
        for &m in &self.members {
            if m != from {
                top.offer(self.space.distance(from, m), m);
            }
        }
        debug_cross_check(self.space, &self.members, from, k, &got);
        got
    }

    fn ball_size(&self, from: PointIdx, r: f64) -> usize {
        self.space.ball_size(from, r, &self.members)
    }
}

// ---------------------------------------------------------------------------
// Planar grid-bucket index (torus / grid / transit-stub)
// ---------------------------------------------------------------------------

/// Access to a 2-D embedding whose metric is bounded below by the
/// coordinate-wise (possibly wrapped) L∞ gap — true for Euclidean,
/// torus-Euclidean and L1 distances alike. This is what lets grid buckets
/// prune: a point in a cell ring at (wrapped) Chebyshev cell-distance `c`
/// is at metric distance at least `(c - 1) · cell`.
pub(crate) trait Planar: MetricSpace {
    /// Coordinates of point `p`.
    fn xy(&self, p: PointIdx) -> (f64, f64);
    /// Both axes wrap with this period (torus); `None` for flat spaces.
    fn wrap_side(&self) -> Option<f64> {
        None
    }
    /// `distance(a, b)` for a caller that already holds both points'
    /// [`Planar::xy`] — bit-equal to [`MetricSpace::distance`]. A space
    /// whose metric is computed from exactly those coordinates overrides
    /// this to skip its own point lookups; the default ignores them.
    fn distance_xy(&self, a: PointIdx, _a_xy: (f64, f64), b: PointIdx, _b_xy: (f64, f64)) -> f64 {
        self.distance(a, b)
    }
}

impl Planar for TorusSpace {
    fn xy(&self, p: PointIdx) -> (f64, f64) {
        self.point(p)
    }
    fn wrap_side(&self) -> Option<f64> {
        Some(self.side())
    }
    fn distance_xy(&self, _a: PointIdx, a_xy: (f64, f64), _b: PointIdx, b_xy: (f64, f64)) -> f64 {
        self.between(a_xy, b_xy)
    }
}

impl Planar for GridSpace {
    fn xy(&self, p: PointIdx) -> (f64, f64) {
        let (x, y) = self.coords(p);
        (x as f64 * self.spacing(), y as f64 * self.spacing())
    }
}

impl Planar for TransitStubSpace {
    fn xy(&self, p: PointIdx) -> (f64, f64) {
        self.point(p)
    }
}

/// Largest member set answered by a plain scan of every member; above
/// it the members are bucketed into a grid.
///
/// Chosen from ns per query on a 25 000-point torus (200 000 queries from
/// scattered points, best of five passes), scan | grid over the same `m`
/// members: `closest_k(q, 3)` — m = 8: 127 | 161, 12: 167 | 173,
/// 16: 209 | 183, 24: 259 | 206, 32: 315 | 212; `nearest(q)` — m = 8:
/// 68 | 107, 16: 96 | 109, 24: 125 | 123, 32: 149 | 118. The scan wins
/// up to about 12 members for closest-3 and about 24 for nearest; 16 sits
/// between, and covers nearly every group from the third level of a mesh
/// down (mean size 6 there at 25 000 nodes), whose indexes also cost
/// 150 ns to build instead of 300–800.
const LINEAR_MAX: usize = 16;

/// One indexed member with its coordinates beside it, so a scan reads one
/// contiguous array instead of going back to the space per candidate.
#[derive(Clone, Copy)]
struct Placed {
    p: PointIdx,
    xy: (f64, f64),
}

/// Uniform buckets over the members' bounding box (the whole torus when
/// the space wraps), as offsets into the cell-ordered member array.
struct Grid {
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
    ox: f64,
    oy: f64,
    wrap: bool,
    /// CSR offsets, row-major (`cy * nx + cx`): cell `c` holds
    /// `placed[start[c]..start[c + 1]]`, so a run of cells along a row is
    /// one contiguous slice of `placed`.
    start: Vec<u32>,
}

impl Grid {
    /// Bucket `by_member` (at least one member, ascending): the grid and
    /// the members in its cell order. About one member per cell keeps
    /// both the bucket scan and the ring walk O(1) expected for
    /// uniform-ish point sets.
    fn bucket(by_member: &[Placed], wrap_side: Option<f64>) -> (Self, Vec<Placed>) {
        let n_axis = ((by_member.len() as f64).sqrt().ceil() as usize).max(1);
        let (ox, oy, w, h) = match wrap_side {
            Some(s) => (0.0, 0.0, s, s),
            None => {
                let (mut lo_x, mut lo_y) = (f64::INFINITY, f64::INFINITY);
                let (mut hi_x, mut hi_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for &Placed { xy: (x, y), .. } in by_member {
                    lo_x = lo_x.min(x);
                    lo_y = lo_y.min(y);
                    hi_x = hi_x.max(x);
                    hi_y = hi_y.max(y);
                }
                (lo_x, lo_y, (hi_x - lo_x).max(1e-12), (hi_y - lo_y).max(1e-12))
            }
        };
        let mut grid = Grid {
            nx: n_axis,
            ny: n_axis,
            cell_w: w / n_axis as f64,
            cell_h: h / n_axis as f64,
            ox,
            oy,
            wrap: wrap_side.is_some(),
            start: vec![0; n_axis * n_axis + 1],
        };
        // Counting sort by cell; stable, so each cell keeps member order.
        let cell: Vec<usize> = by_member
            .iter()
            .map(|m| {
                let (cx, cy) = grid.cell_of(m.xy);
                cy * grid.nx + cx
            })
            .collect();
        for &c in &cell {
            grid.start[c + 1] += 1;
        }
        for c in 1..grid.start.len() {
            grid.start[c] += grid.start[c - 1];
        }
        let mut next = grid.start.clone();
        let mut placed = by_member.to_vec();
        for (m, &c) in by_member.iter().zip(&cell) {
            placed[next[c] as usize] = *m;
            next[c] += 1;
        }
        (grid, placed)
    }

    /// Row-major cell number of a coordinate pair. A wrapped coordinate
    /// lies in `[0, side)`, so only the division's rounding can push it
    /// to cell `n`, which is cell 0 again; a flat one (a query point
    /// outside the members' bounding box) clamps to the border cell.
    fn cell_of(&self, (x, y): (f64, f64)) -> (usize, usize) {
        let cx = ((x - self.ox) / self.cell_w) as isize;
        let cy = ((y - self.oy) / self.cell_h) as isize;
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        if self.wrap {
            (
                (if cx >= nx { cx - nx } else { cx }) as usize,
                (if cy >= ny { cy - ny } else { cy }) as usize,
            )
        } else {
            (cx.clamp(0, nx - 1) as usize, cy.clamp(0, ny - 1) as usize)
        }
    }

    /// Smallest cell dimension — the unit of the ring lower bound.
    fn min_cell(&self) -> f64 {
        self.cell_w.min(self.cell_h)
    }

    /// Smallest per-axis gap between `xy` and the border of its cell
    /// `(cx, cy)`; zero for a point `cell_of` moved into a border cell.
    fn inset(&self, (x, y): (f64, f64), (cx, cy): (usize, usize)) -> f64 {
        let right = x - (self.ox + cx as f64 * self.cell_w);
        let up = y - (self.oy + cy as f64 * self.cell_h);
        right.min(self.cell_w - right).min(up).min(self.cell_h - up).max(0.0)
    }

    /// Metric lower bound for members in cells at (wrapped) Chebyshev
    /// cell-distance `ring` ≥ 1 of a query point `inset` inside its own
    /// cell: `ring - 1` whole cells lie between, plus the way out of the
    /// query's. A small slack absorbs f64 rounding.
    fn ring_lower_bound(&self, ring: usize, inset: f64) -> f64 {
        let lb = (ring - 1) as f64 * self.min_cell() + inset;
        lb - (1e-9 * (1.0 + lb))
    }

    /// The slice of `placed` holding cells `x0..=x1` of row `y`.
    fn cells(&self, y: isize, x0: isize, x1: isize) -> Range<usize> {
        let row = y as usize * self.nx;
        self.start[row + x0 as usize] as usize..self.start[row + x1 as usize + 1] as usize
    }

    /// Hand `f` the slices of `placed` that make up the cells at exactly
    /// Chebyshev cell-distance `ring` from `(cx, cy)`.
    fn for_ring(&self, cx: usize, cy: usize, ring: usize, f: &mut impl FnMut(Range<usize>)) {
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        let (cx, cy, r) = (cx as isize, cy as isize, ring as isize);
        if self.wrap && ring > 0 && (2 * r + 1 >= nx || 2 * r + 1 >= ny) {
            // A wrapped ring this wide would revisit cells through the
            // seam; enumerate by wrapped Chebyshev distance instead (at
            // most a few outermost rings per query take this path).
            let wdist = |d: isize, n: isize| d.abs().min(n - d.abs());
            for y in 0..ny {
                for x in 0..nx {
                    if wdist(x - cx, nx).max(wdist(y - cy, ny)) == r {
                        f(self.cells(y, x, x));
                    }
                }
            }
            return;
        }
        // Cells `x0..=x1` of row `y`, each possibly off the grid by at
        // most `r` < n/2 cells: one compare-and-add brings a wrapped
        // coordinate back (a span left crossing the seam splits in two),
        // a flat one is cut at the border.
        let back = |v: isize, n: isize| {
            if v < 0 {
                v + n
            } else if v >= n {
                v - n
            } else {
                v
            }
        };
        let mut row = |y: isize, x0: isize, x1: isize| {
            if self.wrap {
                let (y, x0, x1) = (back(y, ny), back(x0, nx), back(x1, nx));
                if x0 <= x1 {
                    f(self.cells(y, x0, x1));
                } else {
                    f(self.cells(y, x0, nx - 1));
                    f(self.cells(y, 0, x1));
                }
            } else if (0..ny).contains(&y) {
                let (x0, x1) = (x0.max(0), x1.min(nx - 1));
                if x0 <= x1 {
                    f(self.cells(y, x0, x1));
                }
            }
        };
        row(cy - r, cx - r, cx + r);
        if r > 0 {
            row(cy + r, cx - r, cx + r);
            for y in cy - r + 1..cy + r {
                row(y, cx - r, cx - r);
                row(y, cx + r, cx + r);
            }
        }
    }

    /// Largest ring that can contain unvisited cells.
    fn max_ring(&self) -> usize {
        if self.wrap {
            self.nx.max(self.ny) / 2 + 1
        } else {
            // Query cells are clamped into the box, so every cell is
            // within nx+ny rings of any query.
            self.nx + self.ny
        }
    }
}

/// Index over the members of a [`Planar`] space: grid buckets, or for a
/// member set of at most [`LINEAR_MAX`] a plain scan with no grid at all.
pub(crate) struct PlanarIndex<'a, S: Planar + ?Sized> {
    space: &'a S,
    members: Vec<PointIdx>,
    /// The members with their coordinates: in cell order (ascending
    /// member within a cell) under a grid, in member order without one.
    placed: Vec<Placed>,
    grid: Option<Grid>,
}

impl<'a, S: Planar + ?Sized> PlanarIndex<'a, S> {
    pub(crate) fn new(space: &'a S, members: Vec<PointIdx>) -> Self {
        let members = canonical_members(members);
        let by_member: Vec<Placed> =
            members.iter().map(|&p| Placed { p, xy: space.xy(p) }).collect();
        if members.len() <= LINEAR_MAX {
            return PlanarIndex { space, members, placed: by_member, grid: None };
        }
        let (grid, placed) = Grid::bucket(&by_member, space.wrap_side());
        PlanarIndex { space, members, placed, grid: Some(grid) }
    }

    /// Offer `best` every member that can still improve it, nearest cells
    /// first; `from` itself is never offered.
    fn search<B: Best>(&self, from: PointIdx, best: &mut B) {
        let from_xy = self.space.xy(from);
        let scan = |span: Range<usize>, best: &mut B| {
            for m in &self.placed[span] {
                if m.p != from {
                    best.offer(self.space.distance_xy(from, from_xy, m.p, m.xy), m.p);
                }
            }
        };
        let Some(grid) = &self.grid else {
            return scan(0..self.placed.len(), best);
        };
        let (cx, cy) = grid.cell_of(from_xy);
        let inset = grid.inset(from_xy, (cx, cy));
        grid.for_ring(cx, cy, 0, &mut |span| scan(span, best));
        for ring in 1..=grid.max_ring() {
            if best.bound().is_some_and(|b| grid.ring_lower_bound(ring, inset) > b) {
                break;
            }
            grid.for_ring(cx, cy, ring, &mut |span| scan(span, best));
        }
    }
}

impl<S: Planar + ?Sized> NearestIndex for PlanarIndex<'_, S> {
    fn members(&self) -> &[PointIdx] {
        &self.members
    }

    fn nearest(&self, from: PointIdx) -> Option<(PointIdx, f64)> {
        let mut top = Top1(None);
        self.search(from, &mut top);
        debug_cross_check(self.space, &self.members, from, 1, top.0.as_slice());
        top.0
    }

    fn closest_k(&self, from: PointIdx, k: usize) -> Vec<(PointIdx, f64)> {
        let mut got = Vec::new();
        self.closest_k_into(from, k, &mut got);
        got
    }

    fn closest_k_into(&self, from: PointIdx, k: usize, out: &mut Vec<(PointIdx, f64)>) {
        let mut top = TopK::new(k, out);
        if k > 0 {
            self.search(from, &mut top);
        }
        debug_cross_check(self.space, &self.members, from, k, out);
    }

    fn ball_size(&self, from: PointIdx, r: f64) -> usize {
        if r < 0.0 {
            return 0;
        }
        let from_xy = self.space.xy(from);
        let within = |span: Range<usize>| {
            self.placed[span]
                .iter()
                .filter(|m| self.space.distance_xy(from, from_xy, m.p, m.xy) <= r)
                .count()
        };
        let n = match &self.grid {
            None => within(0..self.placed.len()),
            Some(grid) => {
                let (cx, cy) = grid.cell_of(from_xy);
                // Cells beyond this ring are all strictly farther than r.
                let reach = ((r / grid.min_cell()) as usize + 2).min(grid.max_ring());
                let mut n = 0usize;
                for ring in 0..=reach {
                    grid.for_ring(cx, cy, ring, &mut |span| n += within(span));
                }
                n
            }
        };
        debug_assert_eq!(n, self.space.ball_size(from, r, &self.members));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{nearest as brute_nearest, MetricSpace};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Every query kind from `from` against the brute-force definitions:
    /// `closest_k` at each `k` (indices, order and bit-exact distances),
    /// `nearest` against both `closest_k(1)` and the brute scan, and
    /// `ball_size` at each radius. Debug builds also self-check inside
    /// the indexes; this keeps the guarantee alive in release runs, the
    /// profile the benchmark measures.
    fn assert_queries_match<S: MetricSpace>(
        space: &S,
        index: &dyn NearestIndex,
        members: &[PointIdx],
        from: PointIdx,
        ks: &[usize],
        radii: &[f64],
    ) {
        let what = format!("from {from} over {} members of {}", members.len(), space.name());
        for &k in ks {
            let got = index.closest_k(from, k);
            let want = brute_closest_k(space, from, members, k);
            let got_idx: Vec<PointIdx> = got.iter().map(|&(p, _)| p).collect();
            assert_eq!(got_idx, want, "closest_k({k}) {what}");
            for &(p, d) in &got {
                assert_eq!(
                    d.to_bits(),
                    space.distance(from, p).to_bits(),
                    "exact distance, {what}"
                );
            }
            let mut buf = vec![(usize::MAX, f64::NAN)];
            index.closest_k_into(from, k, &mut buf);
            assert_eq!(buf, got, "closest_k_into({k}) {what}");
        }
        let nearest = index.nearest(from);
        assert_eq!(
            nearest,
            index.closest_k(from, 1).first().copied(),
            "nearest vs closest_k(1) {what}"
        );
        assert_eq!(nearest.map(|(p, _)| p), brute_nearest(space, from, members), "nearest {what}");
        for &r in radii {
            assert_eq!(
                index.ball_size(from, r),
                space.ball_size(from, r, members),
                "ball_size({r}) {what}"
            );
        }
    }

    /// Exercise one space: member subsets at six densities and at the
    /// sizes around the scan/grid switch, random query points (members
    /// and non-members), all query kinds vs brute force.
    fn check_space<S: MetricSpace>(space: &S, seed: u64) {
        let n = space.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut member_sets: Vec<Vec<PointIdx>> = [0.1, 0.3, 0.5, 0.8, 1.0, 0.05]
            .iter()
            .map(|&density| (0..n).filter(|_| rng.gen_range(0.0..1.0) < density).collect())
            .collect();
        for count in [0, 1, 2, LINEAR_MAX - 1, LINEAR_MAX, LINEAR_MAX + 1, 300] {
            let mut all: Vec<PointIdx> = (0..n).collect();
            all.shuffle(&mut rng);
            all.truncate(count);
            all.sort_unstable();
            member_sets.push(all);
        }
        for members in member_sets {
            let index = space.build_index(members.clone());
            assert_eq!(index.members(), &members[..], "members are already sorted+unique");
            for _ in 0..12 {
                let from = rng.gen_range(0..n);
                let k = rng.gen_range(0..8);
                let r = rng.gen_range(-1.0..1.0) * 0.02 * rng.gen_range(1.0..100.0);
                assert_queries_match(space, &*index, &members, from, &[k], &[r]);
            }
        }
    }

    #[test]
    fn torus_index_agrees_with_brute_force() {
        check_space(&TorusSpace::random(300, 1000.0, 11), 1);
        check_space(&TorusSpace::random(40, 10.0, 12), 2);
    }

    #[test]
    fn grid_index_agrees_with_brute_force() {
        // The lattice is dense with exact distance ties — the tie-break
        // rule (lower index wins) gets a real workout here.
        check_space(&GridSpace::new(20, 15, 2.0), 3);
        check_space(&GridSpace::new(5, 40, 1.0), 4);
    }

    #[test]
    fn transit_stub_index_agrees_with_brute_force() {
        check_space(&TransitStubSpace::new(3, 4, 25, 14), 7);
    }

    /// A torus grid of 5 or 6 cells a side: from ring 2 or 3 on, a ring
    /// is as wide as the grid and is enumerated by wrapped distance
    /// (`2r + 1 ≥ nx`). Asking for every member walks every ring.
    #[test]
    fn small_torus_grid_walks_the_wrapped_seam() {
        for (n, seed) in [(LINEAR_MAX + 1, 21), (25, 22), (30, 23), (36, 24)] {
            let space = TorusSpace::random(n + 4, 100.0, seed);
            let members: Vec<PointIdx> = (0..n).collect();
            let index = space.build_index(members.clone());
            for from in 0..n + 4 {
                assert_queries_match(
                    &space,
                    &*index,
                    &members,
                    from,
                    &[1, 3, n],
                    &[10.0, 45.0, 80.0],
                );
            }
        }
    }

    /// On the full lattice an interior point has four members at distance
    /// exactly one spacing; the order among them is by index alone.
    #[test]
    fn lattice_ties_resolve_to_the_lower_index() {
        let space = GridSpace::new(9, 9, 2.5);
        let members: Vec<PointIdx> = (0..81).collect();
        let index = space.build_index(members.clone());
        let at = |x: usize, y: usize| y * 9 + x;
        let centre = at(4, 4);
        assert_eq!(index.nearest(centre), Some((at(4, 3), 2.5)));
        assert_eq!(
            index.closest_k(centre, 4),
            [at(4, 3), at(3, 4), at(5, 4), at(4, 5)].map(|p| (p, 2.5)).to_vec()
        );
        for from in 0..81 {
            assert_queries_match(&space, &*index, &members, from, &[1, 4, 5, 9], &[2.5, 5.0]);
        }
    }

    /// A flat grid covers only the members' bounding box; a query point
    /// outside it is clamped to the border cell, and must still get the
    /// brute-force answers.
    #[test]
    fn queries_from_outside_the_bounding_box_are_clamped() {
        let grid = GridSpace::new(20, 20, 1.0);
        let block: Vec<PointIdx> = (0..400)
            .filter(|p| (5..12).contains(&(p % 20)) && (5..12).contains(&(p / 20)))
            .collect();
        let index = grid.build_index(block.clone());
        let at = |x: usize, y: usize| y * 20 + x;
        // One step outside each side and corner, and the far corners.
        let near = [at(12, 8), at(4, 8), at(8, 12), at(8, 4), at(12, 12), at(4, 4), at(12, 4)];
        for from in near.into_iter().chain([at(0, 0), at(19, 0), at(0, 19), at(19, 19)]) {
            assert_queries_match(&grid, &*index, &block, from, &[1, 3, 8, 49], &[1.0, 4.0, 30.0]);
        }

        let stubs = TransitStubSpace::new(3, 4, 10, 31);
        let first_transit: Vec<PointIdx> = (0..40).collect();
        let index = stubs.build_index(first_transit.clone());
        for from in 40..120 {
            assert_queries_match(
                &stubs,
                &*index,
                &first_transit,
                from,
                &[1, 3, 40],
                &[500.0, 5000.0],
            );
        }
    }

    #[test]
    fn brute_force_fallback_is_the_default() {
        /// A space with no coordinate structure (distance by index gap).
        struct Opaque(usize);
        impl MetricSpace for Opaque {
            fn len(&self) -> usize {
                self.0
            }
            fn distance(&self, a: PointIdx, b: PointIdx) -> f64 {
                (a.abs_diff(b)) as f64
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        let s = Opaque(50);
        check_space(&s, 8);
    }

    #[test]
    fn empty_and_tiny_member_sets() {
        let s = TorusSpace::random(16, 100.0, 15);
        let empty = s.build_index(Vec::new());
        assert!(empty.closest_k(3, 4).is_empty());
        assert_eq!(empty.nearest(3), None);
        assert_eq!(empty.ball_size(3, 50.0), 0);
        let solo = s.build_index(vec![7]);
        assert_eq!(solo.nearest(7), None, "query point excluded");
        assert_eq!(solo.ball_size(7, 0.0), 1, "ball includes the center member");
        let (p, d) = solo.nearest(0).expect("one candidate");
        assert_eq!(p, 7);
        assert_eq!(d, s.distance(0, 7));
    }

    #[test]
    fn duplicate_members_are_deduplicated() {
        let s = crate::RingSpace::even(8, 80.0);
        let idx = s.build_index(vec![3, 1, 3, 1, 5]);
        assert_eq!(idx.members(), &[1, 3, 5]);
        assert_eq!(idx.closest_k(1, 10).len(), 2);
    }

    #[test]
    fn closest_k_beyond_membership_returns_all() {
        let s = GridSpace::new(6, 6, 1.0);
        let members: Vec<PointIdx> = (0..36).step_by(3).collect();
        let idx = s.build_index(members.clone());
        let got = idx.closest_k(0, 100);
        assert_eq!(got.len(), members.len() - 1, "all members except the query point");
    }
}

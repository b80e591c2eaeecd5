//! CAN [Ratnasamy et al., SIGCOMM 2001]: a content-addressable network
//! over a `d`-dimensional virtual coordinate space.
//!
//! Each node owns an axis-aligned zone of the unit square (`d = 2` here,
//! the paper's `r`); joins split the zone containing a random point, and
//! lookups route greedily through face-adjacent neighbor zones —
//! `O(r·n^{1/r})` hops, again with no stretch guarantee (virtual
//! coordinates ignore network distance), matching CAN's Table 1 row.

use crate::common::{LocatorSystem, LookupPath, SpaceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use tapestry_id::splitmix64;
use tapestry_metric::PointIdx;

#[derive(Debug, Clone, Copy)]
struct Zone {
    lo: [f64; 2],
    hi: [f64; 2],
    owner: PointIdx,
}

impl Zone {
    fn contains(&self, p: [f64; 2]) -> bool {
        (0..2).all(|d| p[d] >= self.lo[d] && p[d] < self.hi[d])
    }

    /// Distance from a point to this rectangle (0 when inside).
    #[expect(
        clippy::needless_range_loop,
        reason = "d is a coordinate axis, not an iterator position"
    )]
    fn dist_to(&self, p: [f64; 2]) -> f64 {
        let mut s = 0.0;
        for d in 0..2 {
            let v = if p[d] < self.lo[d] {
                self.lo[d] - p[d]
            } else if p[d] > self.hi[d] {
                p[d] - self.hi[d]
            } else {
                0.0
            };
            s += v * v;
        }
        s.sqrt()
    }

    /// Do two zones share a face (touch along one axis, overlap on the
    /// other)?
    fn adjacent(&self, o: &Zone) -> bool {
        let touch_x = (self.hi[0] - o.lo[0]).abs() < 1e-12 || (o.hi[0] - self.lo[0]).abs() < 1e-12;
        let touch_y = (self.hi[1] - o.lo[1]).abs() < 1e-12 || (o.hi[1] - self.lo[1]).abs() < 1e-12;
        let overlap_x = self.lo[0] < o.hi[0] - 1e-12 && o.lo[0] < self.hi[0] - 1e-12;
        let overlap_y = self.lo[1] < o.hi[1] - 1e-12 && o.lo[1] < self.hi[1] - 1e-12;
        (touch_x && overlap_y) || (touch_y && overlap_x)
    }
}

/// One CAN deployment over the unit square.
pub struct Can {
    zones: Vec<Zone>,
    zone_of: BTreeMap<PointIdx, usize>,
    neighbors: Vec<Vec<usize>>,
    directory: BTreeMap<u64, Vec<PointIdx>>,
    seed: u64,
    join_msgs: u64,
    rng: StdRng,
}

impl Can {
    /// An empty virtual space.
    pub fn new(seed: u64) -> Self {
        Can {
            zones: Vec::new(),
            zone_of: BTreeMap::new(),
            neighbors: Vec::new(),
            directory: BTreeMap::new(),
            seed,
            join_msgs: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn key_point(&self, key: u64) -> [f64; 2] {
        let h = splitmix64(key ^ self.seed);
        let x = (h >> 32) as f64 / (u32::MAX as f64 + 1.0);
        let y = (h & 0xFFFF_FFFF) as f64 / (u32::MAX as f64 + 1.0);
        [x, y]
    }

    fn zone_containing(&self, p: [f64; 2]) -> usize {
        self.zones.iter().position(|z| z.contains(p)).expect("zones tile the unit square")
    }

    /// Greedy zone routing from `from_zone` to the zone containing `p`.
    /// Returns owner points along the way.
    fn route(&self, from_zone: usize, p: [f64; 2]) -> Vec<PointIdx> {
        let mut cur = from_zone;
        let mut path = vec![self.zones[cur].owner];
        for _ in 0..self.zones.len() + 1 {
            if self.zones[cur].contains(p) {
                return path;
            }
            let mut best = cur;
            let mut best_d = self.zones[cur].dist_to(p);
            for &nb in &self.neighbors[cur] {
                let d = self.zones[nb].dist_to(p);
                if d < best_d - 1e-15 {
                    best_d = d;
                    best = nb;
                }
            }
            if best == cur {
                return path; // numerically wedged; treat as terminal
            }
            cur = best;
            path.push(self.zones[cur].owner);
        }
        path
    }

    fn rebuild_neighbors(&mut self) {
        let n = self.zones.len();
        let mut nb = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if self.zones[i].adjacent(&self.zones[j]) {
                    nb[i].push(j);
                    nb[j].push(i);
                }
            }
        }
        self.neighbors = nb;
    }

    /// Join `point`: route to a random virtual position, split the zone
    /// there, and adopt half of it.
    pub fn join(&mut self, point: PointIdx) -> u64 {
        let mut spent = 0u64;
        if self.zones.is_empty() {
            self.zones.push(Zone { lo: [0.0, 0.0], hi: [1.0, 1.0], owner: point });
            self.zone_of.insert(point, 0);
            self.rebuild_neighbors();
            return 0;
        }
        let p = [self.rng.gen::<f64>(), self.rng.gen::<f64>()];
        let gw = self.rng.gen_range(0..self.zones.len());
        let path = self.route(gw, p);
        spent += path.len() as u64 - 1;
        let victim = self.zone_containing(p);
        // Split along the longer side; the new node takes the upper half.
        let z = self.zones[victim];
        let dim = usize::from(z.hi[1] - z.lo[1] > z.hi[0] - z.lo[0]);
        let mid = (z.lo[dim] + z.hi[dim]) / 2.0;
        let mut lower = z;
        lower.hi[dim] = mid;
        let mut upper = z;
        upper.lo[dim] = mid;
        upper.owner = point;
        self.zones[victim] = lower;
        self.zones.push(upper);
        self.zone_of.insert(point, self.zones.len() - 1);
        self.rebuild_neighbors();
        // Neighbor-update messages for both affected zones (the CAN join
        // protocol notifies every adjacent zone).
        spent += self.neighbors[victim].len() as u64;
        spent += self.neighbors[self.zones.len() - 1].len() as u64;
        // Directory entries in the split region migrate with the zone.
        self.join_msgs += spent;
        spent
    }

    /// The owner of `key`'s virtual coordinates.
    pub fn key_owner(&self, key: u64) -> PointIdx {
        self.zones[self.zone_containing(self.key_point(key))].owner
    }
}

impl LocatorSystem for Can {
    fn name(&self) -> &'static str {
        "can"
    }

    fn len(&self) -> usize {
        self.zones.len()
    }

    fn join_messages(&self) -> u64 {
        self.join_msgs
    }

    fn publish(&mut self, server: PointIdx, key: u64) -> u64 {
        let from = self.zone_of[&server];
        let path = self.route(from, self.key_point(key));
        self.directory.entry(key).or_default().push(server);
        path.len() as u64 - 1
    }

    fn locate(&self, origin: PointIdx, key: u64) -> Option<LookupPath> {
        let servers = self.directory.get(&key)?;
        let server = *servers.first()?;
        let mut nodes = self.route(self.zone_of[&origin], self.key_point(key));
        if *nodes.last().unwrap() != server {
            nodes.push(server);
        }
        Some(LookupPath { nodes })
    }

    fn space(&self) -> SpaceStats {
        let (mut tot, mut max) = (0usize, 0usize);
        for nb in &self.neighbors {
            tot += nb.len();
            max = max.max(nb.len());
        }
        let mut dir: BTreeMap<PointIdx, usize> = BTreeMap::new();
        for (&key, servers) in &self.directory {
            *dir.entry(self.key_owner(key)).or_insert(0) += servers.len();
        }
        let n = self.zones.len().max(1);
        SpaceStats {
            avg_routing_entries: tot as f64 / n as f64,
            max_routing_entries: max,
            avg_directory_entries: dir.values().sum::<usize>() as f64 / n as f64,
            max_directory_entries: dir.values().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, seed: u64) -> Can {
        let mut c = Can::new(seed);
        for p in 0..n {
            c.join(p);
        }
        c
    }

    #[test]
    fn zones_tile_the_square() {
        let c = grid(64, 1);
        let area: f64 = c.zones.iter().map(|z| (z.hi[0] - z.lo[0]) * (z.hi[1] - z.lo[1])).sum();
        assert!((area - 1.0).abs() < 1e-9, "zones partition the space, area={area}");
    }

    #[test]
    fn routing_reaches_the_right_zone() {
        let c = grid(64, 2);
        for key in 0..40u64 {
            let p = c.key_point(key);
            let owner = c.key_owner(key);
            let path = c.route(0, p);
            assert_eq!(*path.last().unwrap(), owner);
        }
    }

    #[test]
    fn hops_scale_as_sqrt_n() {
        let c = grid(256, 3);
        let mut tot = 0usize;
        for key in 0..64u64 {
            let path = c.route(key as usize % 256, c.key_point(key));
            tot += path.len() - 1;
        }
        let avg = tot as f64 / 64.0;
        // O(√n) = 16 for n=256; allow generous slack but reject log-like
        // numbers being exceeded catastrophically.
        assert!(avg < 40.0, "CAN hops should be O(√n), got {avg}");
        assert!(avg > 2.0, "suspiciously short CAN routes: {avg}");
    }

    #[test]
    fn publish_locate_roundtrip() {
        let mut c = grid(32, 4);
        c.publish(9, 1234);
        let p = c.locate(20, 1234).expect("published");
        assert_eq!(p.nodes[0], 20);
        assert_eq!(*p.nodes.last().unwrap(), 9);
        assert!(c.locate(20, 4321).is_none());
    }

    #[test]
    fn neighbor_counts_are_small() {
        let c = grid(128, 5);
        let s = c.space();
        assert!(s.avg_routing_entries < 12.0, "2-D zones have O(1) neighbors on average");
    }
}

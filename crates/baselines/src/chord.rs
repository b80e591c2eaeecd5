//! Chord [Stoica et al., SIGCOMM 2001]: a ring DHT with finger tables.
//!
//! Nodes sit on a 64-bit identifier ring; each keeps a successor pointer
//! and `m ≈ log₂ n` fingers at power-of-two strides. Lookups route
//! greedily through the closest preceding finger — `O(log n)` hops in
//! identifier space with **no relation to network distance**, which is
//! exactly why Table 1 leaves Chord's stretch column blank.
//!
//! Joins are charged their textbook cost: the joining node resolves each
//! finger with a lookup through the existing overlay (`Θ(log² n)`
//! messages). Finger tables of existing members are refreshed from ground
//! truth afterwards (the paper's stabilization protocol does this with
//! the same asymptotic cost; modeling it message-by-message would only
//! add noise to the Insert Cost column).

use crate::common::{LocatorSystem, LookupPath, SpaceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use tapestry_id::splitmix64;
use tapestry_metric::PointIdx;

/// One Chord deployment.
pub struct Chord {
    /// ring id → point, sorted (the ground-truth ring).
    ring: BTreeMap<u64, PointIdx>,
    /// point → ring id.
    ids: BTreeMap<PointIdx, u64>,
    /// point → finger targets (distinct successor points, largest strides).
    fingers: BTreeMap<PointIdx, Vec<PointIdx>>,
    /// key → servers (directory entries live at `successor(hash(key))`).
    directory: BTreeMap<u64, Vec<PointIdx>>,
    m: u32,
    seed: u64,
    join_msgs: u64,
    rng: StdRng,
}

impl Chord {
    /// An empty ring. `m` fingers per node are kept (use
    /// `(log₂ expected_n) + 3`; [`Chord::for_size`] picks this for you).
    pub fn new(m: u32, seed: u64) -> Self {
        assert!((1..=63).contains(&m));
        Chord {
            ring: BTreeMap::new(),
            ids: BTreeMap::new(),
            fingers: BTreeMap::new(),
            directory: BTreeMap::new(),
            m,
            seed,
            join_msgs: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A ring sized for about `n` nodes.
    pub fn for_size(n: usize, seed: u64) -> Self {
        let m = ((n.max(2) as f64).log2().ceil() as u32 + 3).min(63);
        Chord::new(m, seed)
    }

    fn ring_id(&self, point: PointIdx) -> u64 {
        splitmix64(point as u64 ^ self.seed.rotate_left(17))
    }

    fn key_id(&self, key: u64) -> u64 {
        splitmix64(key ^ self.seed)
    }

    /// Ground-truth successor of ring position `t`.
    fn successor(&self, t: u64) -> PointIdx {
        self.ring
            .range(t..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, &p)| p)
            .expect("non-empty ring")
    }

    /// Is `x` in the half-open ring interval `(a, b]`?
    fn in_interval(a: u64, x: u64, b: u64) -> bool {
        if a < b {
            x > a && x <= b
        } else {
            x > a || x <= b
        }
    }

    /// Greedy lookup of ring position `t` from `from`; returns the path of
    /// points ending at `successor(t)`.
    fn route(&self, from: PointIdx, t: u64) -> Vec<PointIdx> {
        let mut path = vec![from];
        let mut cur = from;
        for _ in 0..self.ring.len() + 1 {
            let cur_id = self.ids[&cur];
            let succ = self.fingers[&cur].first().copied().unwrap_or(cur);
            if Self::in_interval(cur_id, t, self.ids[&succ]) {
                if succ != cur {
                    path.push(succ);
                }
                return path;
            }
            // Closest preceding finger of t.
            let mut next = cur;
            for &f in &self.fingers[&cur] {
                let fid = self.ids[&f];
                if Self::in_interval(cur_id, fid, t.wrapping_sub(1)) {
                    // Among fingers in (cur, t), keep the ring-farthest.
                    if next == cur || Self::in_interval(self.ids[&next], fid, t.wrapping_sub(1)) {
                        next = f;
                    }
                }
            }
            if next == cur {
                // No finger improves: fall through to the successor.
                if succ == cur {
                    return path;
                }
                path.push(succ);
                cur = succ;
            } else {
                path.push(next);
                cur = next;
            }
        }
        path
    }

    /// Rebuild a node's fingers from ground truth: successor first, then
    /// the distinct successors of the largest power-of-two strides.
    fn refresh_fingers(&mut self, point: PointIdx) {
        let id = self.ids[&point];
        let mut f = Vec::with_capacity(self.m as usize);
        let succ = self.successor(id.wrapping_add(1));
        if succ != point {
            f.push(succ);
        }
        for i in (64 - self.m)..64 {
            let target = id.wrapping_add(1u64 << i);
            let s = self.successor(target);
            if s != point && !f.contains(&s) {
                f.push(s);
            }
        }
        self.fingers.insert(point, f);
    }

    /// Join `point`; returns the overlay messages spent.
    pub fn join(&mut self, point: PointIdx) -> u64 {
        let id = self.ring_id(point);
        assert!(self.ring.insert(id, point).is_none(), "ring id collision");
        self.ids.insert(point, id);
        let mut spent = 0u64;
        if self.ring.len() > 1 {
            // Resolve each finger through the existing overlay.
            let others: Vec<PointIdx> = self.ids.keys().copied().filter(|&p| p != point).collect();
            let gw = others[self.rng.gen_range(0..others.len())];
            spent += self.route(gw, id.wrapping_add(1)).len() as u64 - 1;
            for i in (64 - self.m)..64 {
                let target = id.wrapping_add(1u64 << i);
                spent += self.route(gw, target).len() as u64 - 1;
            }
        }
        // Ground-truth refresh of all affected finger tables (textbook
        // stabilization, not individually charged — see module docs).
        let all: Vec<PointIdx> = self.ids.keys().copied().collect();
        for p in all {
            self.refresh_fingers(p);
        }
        self.join_msgs += spent;
        spent
    }

    /// The point currently responsible for `key`.
    pub fn key_owner(&self, key: u64) -> PointIdx {
        self.successor(self.key_id(key))
    }
}

impl LocatorSystem for Chord {
    fn name(&self) -> &'static str {
        "chord"
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn join_messages(&self) -> u64 {
        self.join_msgs
    }

    fn publish(&mut self, server: PointIdx, key: u64) -> u64 {
        let t = self.key_id(key);
        let path = self.route(server, t);
        self.directory.entry(key).or_default().push(server);
        path.len() as u64 - 1
    }

    fn locate(&self, origin: PointIdx, key: u64) -> Option<LookupPath> {
        let servers = self.directory.get(&key)?;
        let server = *servers.first()?;
        let mut nodes = self.route(origin, self.key_id(key));
        if *nodes.last().unwrap() != server {
            nodes.push(server);
        }
        Some(LookupPath { nodes })
    }

    fn space(&self) -> SpaceStats {
        let (mut tot, mut max) = (0usize, 0usize);
        for f in self.fingers.values() {
            tot += f.len();
            max = max.max(f.len());
        }
        let mut dir: BTreeMap<PointIdx, usize> = BTreeMap::new();
        for (&key, servers) in &self.directory {
            *dir.entry(self.key_owner(key)).or_insert(0) += servers.len();
        }
        let n = self.ring.len().max(1);
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

    fn ring(n: usize, seed: u64) -> Chord {
        let mut c = Chord::for_size(n, seed);
        for p in 0..n {
            c.join(p);
        }
        c
    }

    #[test]
    fn routes_reach_the_successor() {
        let c = ring(64, 1);
        for key in 0..50u64 {
            let owner = c.key_owner(key);
            let path = c.route(5, c.key_id(key));
            assert_eq!(*path.last().unwrap(), owner, "route ends at successor");
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let c = ring(256, 2);
        let mut total = 0usize;
        for key in 0..100u64 {
            let path = c.route(key as usize % 256, c.key_id(key));
            total += path.len() - 1;
            assert!(path.len() - 1 <= 20, "hop count blew up: {}", path.len() - 1);
        }
        let avg = total as f64 / 100.0;
        assert!(avg <= 10.0, "expected ~½·log₂ 256 = 4 hops, got {avg}");
    }

    #[test]
    fn publish_then_locate() {
        let mut c = ring(64, 3);
        c.publish(7, 999);
        let p = c.locate(33, 999).expect("published");
        assert_eq!(p.nodes[0], 33);
        assert_eq!(*p.nodes.last().unwrap(), 7);
        assert!(c.locate(33, 1000).is_none());
    }

    #[test]
    fn join_cost_grows_slowly() {
        let mut small = Chord::for_size(32, 4);
        for p in 0..32 {
            small.join(p);
        }
        let mut large = Chord::for_size(512, 4);
        for p in 0..512 {
            large.join(p);
        }
        let per_small = small.join_messages() as f64 / 32.0;
        let per_large = large.join_messages() as f64 / 512.0;
        assert!(
            per_large / per_small.max(1.0) < 8.0,
            "per-join cost should grow ~log²: {per_small} → {per_large}"
        );
    }

    #[test]
    fn joins_at_one_seed_cost_the_same_in_every_ring() {
        // Table 1's insert column: the seeded gateway draw must not lean
        // on a map's per-process iteration order.
        let join_costs = || {
            let mut c = Chord::for_size(128, 7);
            (0..128).map(|p| c.join(p)).collect::<Vec<u64>>()
        };
        let first = join_costs();
        for _ in 0..3 {
            assert_eq!(join_costs(), first);
        }
    }

    #[test]
    fn space_is_logarithmic() {
        let c = ring(256, 5);
        let s = c.space();
        assert!(s.avg_routing_entries <= 2.0 * (c.m as f64));
        assert!(s.avg_routing_entries >= 2.0, "fingers exist");
    }
}

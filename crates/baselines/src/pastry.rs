//! Pastry [Rowstron & Druschel, Middleware 2001]: prefix routing with a
//! leaf set, *without* the PRR locality guarantee.
//!
//! Pastry's routing table is filled with "a node with the right prefix"
//! rather than "the closest node with the right prefix" (its heuristic
//! proximity optimization carries no stretch bound — the paper's related
//! work section makes exactly this point, and Table 1 leaves its stretch
//! blank). We model that by choosing table entries in hash order,
//! deliberately proximity-blind; hops stay `O(log n)` while stretch is
//! unbounded.

use crate::common::{LocatorSystem, LookupPath, SpaceStats};
use std::collections::BTreeMap;
use tapestry_id::{splitmix64, Id, IdSpace};
use tapestry_metric::PointIdx;

const LEAF_SET: usize = 8;

struct PNode {
    id: Id,
    /// `levels × base` slots; `None` = hole. Entries chosen in hash order
    /// (proximity-blind).
    table: Vec<Option<PointIdx>>,
    /// Numerically nearest members, `LEAF_SET/2` on either side.
    leaves: Vec<PointIdx>,
}

/// One Pastry deployment.
pub struct Pastry {
    space_cfg: IdSpace,
    nodes: BTreeMap<PointIdx, PNode>,
    /// Sorted (id value, point) — ground truth for leaf sets.
    order: Vec<(u64, PointIdx)>,
    directory: BTreeMap<u64, Vec<PointIdx>>,
    seed: u64,
    join_msgs: u64,
}

impl Pastry {
    /// An empty Pastry ring over base-16, 8-digit identifiers.
    pub fn new(seed: u64) -> Self {
        Pastry {
            space_cfg: IdSpace::base16(),
            nodes: BTreeMap::new(),
            order: Vec::new(),
            directory: BTreeMap::new(),
            seed,
            join_msgs: 0,
        }
    }

    fn node_id(&self, point: PointIdx) -> Id {
        let v = splitmix64(point as u64 ^ self.seed.rotate_left(31)) % self.space_cfg.cardinality();
        Id::from_u64(self.space_cfg, v)
    }

    fn key_id(&self, key: u64) -> Id {
        Id::from_u64(self.space_cfg, splitmix64(key ^ self.seed) % self.space_cfg.cardinality())
    }

    /// Ground truth: the member numerically closest to `target` (used by
    /// tests to sanity-check routing terminals).
    pub fn numeric_root(&self, target: &Id) -> PointIdx {
        let t = target.to_u64();
        self.order.iter().min_by_key(|&&(v, _)| v.abs_diff(t)).map(|&(_, p)| p).expect("non-empty")
    }

    fn base(&self) -> usize {
        self.space_cfg.base as usize
    }

    fn levels(&self) -> usize {
        self.space_cfg.levels()
    }

    /// Routing progress metric: longer shared prefix wins, numeric
    /// distance breaks ties. Each hop strictly improves this pair, which
    /// both terminates the route and makes the destination unique
    /// (Pastry's prefix hop / rare-case numeric hop, folded into one
    /// monotone rule).
    fn score(&self, p: PointIdx, target: &Id) -> (usize, u64) {
        let id = self.nodes[&p].id;
        (id.shared_prefix_len(target), id.to_u64().abs_diff(target.to_u64()))
    }

    fn better(a: (usize, u64), b: (usize, u64)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    /// One routing step from `cur` toward `target`.
    fn step(&self, cur: PointIdx, target: &Id) -> Option<PointIdx> {
        let node = &self.nodes[&cur];
        let mut best = cur;
        let mut best_score = self.score(cur, target);
        let candidates = node.leaves.iter().copied().chain(node.table.iter().flatten().copied());
        for c in candidates {
            let s = self.score(c, target);
            if Self::better(s, best_score) {
                best_score = s;
                best = c;
            }
        }
        (best != cur).then_some(best)
    }

    /// Route from `from` toward `target`; the path ends at this overlay's
    /// root for the target. Termination is guaranteed by the strictly
    /// improving score.
    fn route(&self, from: PointIdx, target: &Id) -> Vec<PointIdx> {
        let mut path = vec![from];
        let mut cur = from;
        while let Some(next) = self.step(cur, target) {
            path.push(next);
            cur = next;
        }
        path
    }

    fn rebuild_node(&mut self, point: PointIdx) {
        let id = self.nodes[&point].id;
        let b = self.base();
        let levels = self.levels();
        let mut table = vec![None; levels * b];
        // Hash-ordered candidates: deliberately proximity-blind.
        let mut cands: Vec<(u64, PointIdx, Id)> = self
            .nodes
            .iter()
            .filter(|(&p, _)| p != point)
            .map(|(&p, n)| (splitmix64(p as u64 ^ 0xBEEF), p, n.id))
            .collect();
        cands.sort_unstable_by_key(|&(h, _, _)| h);
        for &(_, p, pid) in &cands {
            let l = id.shared_prefix_len(&pid);
            if l < levels {
                let slot = &mut table[l * b + pid.digit(l) as usize];
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
        }
        // Leaf set: LEAF_SET/2 ring neighbors on either side.
        let pos = self.order.iter().position(|&(_, p)| p == point).expect("member");
        let n = self.order.len();
        let mut leaves = Vec::new();
        for d in 1..=(LEAF_SET / 2).min(n.saturating_sub(1)) {
            leaves.push(self.order[(pos + d) % n].1);
            leaves.push(self.order[(pos + n - d) % n].1);
        }
        leaves.sort_unstable();
        leaves.dedup();
        let node = self.nodes.get_mut(&point).expect("member");
        node.table = table;
        node.leaves = leaves;
    }

    /// Join `point`; returns messages spent (route to the new ID's root
    /// plus one table-row fetch per level of the route).
    pub fn join(&mut self, point: PointIdx) -> u64 {
        let id = self.node_id(point);
        self.nodes.insert(
            point,
            PNode { id, table: vec![None; self.levels() * self.base()], leaves: Vec::new() },
        );
        let mut spent = 0u64;
        if !self.order.is_empty() {
            let gw = self.order[0].1;
            let path = self.route(gw, &id);
            // Route hops + one state-fetch message per node on the path
            // (Pastry's join collects a row from each).
            spent = 2 * (path.len() as u64 - 1) + 1;
        }
        self.order.push((id.to_u64(), point));
        self.order.sort_unstable();
        // Ground-truth refresh (the O(log² n) join-state exchange).
        let all: Vec<PointIdx> = self.nodes.keys().copied().collect();
        for p in all {
            self.rebuild_node(p);
        }
        self.join_msgs += spent;
        spent
    }

    /// The member responsible for `key` (the unique routing terminal).
    pub fn key_owner(&self, key: u64) -> PointIdx {
        let start = self.order.first().expect("non-empty").1;
        *self.route(start, &self.key_id(key)).last().expect("path has origin")
    }
}

impl LocatorSystem for Pastry {
    fn name(&self) -> &'static str {
        "pastry"
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn join_messages(&self) -> u64 {
        self.join_msgs
    }

    fn publish(&mut self, server: PointIdx, key: u64) -> u64 {
        let target = self.key_id(key);
        let path = self.route(server, &target);
        self.directory.entry(key).or_default().push(server);
        path.len() as u64 - 1
    }

    fn locate(&self, origin: PointIdx, key: u64) -> Option<LookupPath> {
        let servers = self.directory.get(&key)?;
        let server = *servers.first()?;
        let mut nodes = self.route(origin, &self.key_id(key));
        if *nodes.last().unwrap() != server {
            nodes.push(server);
        }
        Some(LookupPath { nodes })
    }

    fn space(&self) -> SpaceStats {
        let (mut tot, mut max) = (0usize, 0usize);
        for n in self.nodes.values() {
            let e = n.table.iter().filter(|s| s.is_some()).count() + n.leaves.len();
            tot += e;
            max = max.max(e);
        }
        let mut dir: BTreeMap<PointIdx, usize> = BTreeMap::new();
        for (&key, servers) in &self.directory {
            *dir.entry(self.key_owner(key)).or_insert(0) += servers.len();
        }
        let n = self.nodes.len().max(1);
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

    fn ring(n: usize, seed: u64) -> Pastry {
        let mut p = Pastry::new(seed);
        for i in 0..n {
            p.join(i);
        }
        p
    }

    #[test]
    fn routes_terminate_near_the_numeric_root() {
        let p = ring(128, 1);
        for key in 0..40u64 {
            let target = p.key_id(key);
            let root = p.numeric_root(&target);
            let terminal = *p.route(7, &target).last().unwrap();
            // The terminal maximizes (prefix, -numeric diff); it is the
            // numeric root in the typical case, and never has a shorter
            // shared prefix than the numeric root.
            let (tp, _) = p.score(terminal, &target);
            let (rp, _) = p.score(root, &target);
            assert!(tp >= rp, "key {key}: terminal prefix {tp} < root prefix {rp}");
        }
    }

    #[test]
    fn unique_root_from_everywhere() {
        let p = ring(96, 2);
        for key in 0..10u64 {
            let target = p.key_id(key);
            let roots: std::collections::BTreeSet<PointIdx> =
                (0..96).map(|o| *p.route(o, &target).last().unwrap()).collect();
            assert_eq!(roots.len(), 1, "key {key} resolved to {roots:?}");
        }
    }

    #[test]
    fn hops_logarithmic() {
        let p = ring(256, 3);
        let mut tot = 0;
        for key in 0..64u64 {
            tot += p.route(key as usize % 256, &p.key_id(key)).len() - 1;
        }
        let avg = tot as f64 / 64.0;
        assert!(avg <= 8.0, "Pastry hops should be ~log₁₆ n ≈ 2, got {avg}");
    }

    #[test]
    fn publish_locate_roundtrip() {
        let mut p = ring(64, 4);
        p.publish(5, 42);
        let path = p.locate(60, 42).expect("published");
        assert_eq!(path.nodes[0], 60);
        assert_eq!(*path.nodes.last().unwrap(), 5);
        assert!(p.locate(60, 43).is_none());
    }
}

//! The other strawman from the paper's introduction: broadcast every
//! object's location to every node. Queries become optimal (go straight
//! to the nearest replica, stretch exactly 1) but publication costs `n`
//! messages and every node stores every directory entry — the resource
//! blow-up the paper cites as the reason this approach does not scale.

use crate::common::{LocatorSystem, LookupPath, SpaceStats};
use std::collections::BTreeMap;
use tapestry_metric::{MetricSpace, PointIdx};

/// Full-knowledge broadcast location.
pub struct Broadcast {
    space: Box<dyn MetricSpace>,
    members: Vec<PointIdx>,
    directory: BTreeMap<u64, Vec<PointIdx>>,
    join_msgs: u64,
}

impl Broadcast {
    /// A broadcast system over `space` (needed to pick nearest replicas —
    /// with full knowledge, clients route optimally).
    pub fn new(space: Box<dyn MetricSpace>) -> Self {
        Broadcast { space, members: Vec::new(), directory: BTreeMap::new(), join_msgs: 0 }
    }

    /// Join: announce to every existing member (maintaining the global
    /// membership list the paper points out is itself "a significant
    /// problem" in a dynamic network).
    pub fn join(&mut self, point: PointIdx) -> u64 {
        let cost = self.members.len() as u64;
        self.members.push(point);
        self.join_msgs += cost;
        cost
    }
}

impl LocatorSystem for Broadcast {
    fn name(&self) -> &'static str {
        "broadcast"
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn join_messages(&self) -> u64 {
        self.join_msgs
    }

    fn publish(&mut self, server: PointIdx, key: u64) -> u64 {
        self.directory.entry(key).or_default().push(server);
        self.members.len() as u64 - 1
    }

    fn locate(&self, origin: PointIdx, key: u64) -> Option<LookupPath> {
        let servers = self.directory.get(&key)?;
        // Every node knows all replicas: go straight to the nearest. A
        // single top-1 query over an ad-hoc candidate list is exactly
        // where a linear scan is optimal — an index build is O(m log m)
        // before its first answer, and nothing persists between locates
        // to amortize it against (the indexed port of this tie-break
        // contract lives where sets *are* reused: `PrrV0::build`). The
        // `(distance, index)` order matches `NearestIndex` exactly, and
        // an origin that is itself a replica wins at distance 0.
        #[expect(
            clippy::disallowed_methods,
            reason = "the comparator breaks distance ties by index"
        )]
        let server = servers.iter().copied().min_by(|&a, &b| {
            let (da, db) = (self.space.distance(origin, a), self.space.distance(origin, b));
            da.partial_cmp(&db).expect("distances are finite").then(a.cmp(&b))
        })?;
        let nodes = if server == origin { vec![origin] } else { vec![origin, server] };
        Some(LookupPath { nodes })
    }

    fn space(&self) -> SpaceStats {
        let per_node: usize = self.directory.values().map(Vec::len).sum();
        SpaceStats {
            avg_routing_entries: self.members.len() as f64 - 1.0,
            max_routing_entries: self.members.len().saturating_sub(1),
            avg_directory_entries: per_node as f64,
            max_directory_entries: per_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_metric::RingSpace;

    fn sys(n: usize) -> Broadcast {
        let mut b = Broadcast::new(Box::new(RingSpace::even(n, 100.0)));
        for p in 0..n {
            b.join(p);
        }
        b
    }

    #[test]
    fn locate_goes_to_nearest_replica() {
        let mut b = sys(10);
        b.publish(1, 5);
        b.publish(6, 5);
        // Point 0 is distance 10 from point 1, 40 from point 6.
        let path = b.locate(0, 5).expect("published");
        assert_eq!(path.nodes, vec![0, 1]);
        // Point 5 is adjacent to 6.
        let path = b.locate(5, 5).expect("published");
        assert_eq!(path.nodes, vec![5, 6]);
    }

    #[test]
    fn publish_costs_n_messages() {
        let mut b = sys(16);
        assert_eq!(b.publish(0, 1), 15);
        assert_eq!(b.join_messages(), (0..16).sum::<u64>());
    }

    #[test]
    fn stretch_is_exactly_one() {
        let mut b = sys(12);
        b.publish(4, 9);
        let path = b.locate(2, 9).expect("published");
        assert_eq!(path.hops(), 1, "direct hop to the replica");
    }
}

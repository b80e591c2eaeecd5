//! The strawman the paper's introduction opens with: a single central
//! directory server. Publishes and queries are cheap in hops (1 and 2)
//! but every query pays a round trip to the directory regardless of how
//! close the object is — average latency proportional to the network
//! diameter, stretch unbounded for nearby objects, and all load and all
//! failure risk concentrated on one node.

use crate::common::{LocatorSystem, LookupPath, SpaceStats};
use std::collections::BTreeMap;
use tapestry_metric::PointIdx;

/// A centralized object directory.
pub struct CentralizedDirectory {
    directory_node: PointIdx,
    members: Vec<PointIdx>,
    directory: BTreeMap<u64, Vec<PointIdx>>,
    join_msgs: u64,
}

impl CentralizedDirectory {
    /// A directory hosted on `directory_node`.
    pub fn new(directory_node: PointIdx) -> Self {
        CentralizedDirectory {
            directory_node,
            members: Vec::new(),
            directory: BTreeMap::new(),
            join_msgs: 0,
        }
    }

    /// Join: one registration message to the directory.
    pub fn join(&mut self, point: PointIdx) -> u64 {
        self.members.push(point);
        let cost = u64::from(point != self.directory_node);
        self.join_msgs += cost;
        cost
    }

    /// The directory host.
    pub fn directory_node(&self) -> PointIdx {
        self.directory_node
    }
}

impl LocatorSystem for CentralizedDirectory {
    fn name(&self) -> &'static str {
        "central-dir"
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn join_messages(&self) -> u64 {
        self.join_msgs
    }

    fn publish(&mut self, server: PointIdx, key: u64) -> u64 {
        self.directory.entry(key).or_default().push(server);
        u64::from(server != self.directory_node)
    }

    fn locate(&self, origin: PointIdx, key: u64) -> Option<LookupPath> {
        let server = *self.directory.get(&key)?.first()?;
        let mut nodes = vec![origin];
        if origin != self.directory_node {
            nodes.push(self.directory_node);
        }
        if *nodes.last().unwrap() != server {
            nodes.push(server);
        }
        Some(LookupPath { nodes })
    }

    fn space(&self) -> SpaceStats {
        let dir_entries: usize = self.directory.values().map(Vec::len).sum();
        let n = self.members.len().max(1);
        SpaceStats {
            avg_routing_entries: 1.0, // everyone knows the directory address
            max_routing_entries: 1,
            avg_directory_entries: dir_entries as f64 / n as f64,
            max_directory_entries: dir_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_two_hops_via_directory() {
        let mut c = CentralizedDirectory::new(0);
        for p in 0..8 {
            c.join(p);
        }
        c.publish(5, 77);
        let path = c.locate(3, 77).expect("published");
        assert_eq!(path.nodes, vec![3, 0, 5]);
        assert_eq!(path.hops(), 2);
    }

    #[test]
    fn origin_at_directory_short_circuits() {
        let mut c = CentralizedDirectory::new(0);
        c.join(0);
        c.join(1);
        c.publish(1, 9);
        let path = c.locate(0, 9).expect("published");
        assert_eq!(path.nodes, vec![0, 1]);
    }

    #[test]
    fn all_directory_load_on_one_node() {
        let mut c = CentralizedDirectory::new(2);
        for p in 0..16 {
            c.join(p);
        }
        for k in 0..32 {
            c.publish((k % 16) as usize, k);
        }
        let s = c.space();
        assert_eq!(s.max_directory_entries, 32, "unbalanced by design");
    }
}

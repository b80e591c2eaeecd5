//! The §6.3 locality enhancement: stub-local publication and location.
//!
//! The paper proposes that on transit-stub topologies, publish and locate
//! operations spawn a *local branch* that treats the stub as its entire
//! domain: surrogate routing restricted to neighbors within a latency
//! threshold. A query for an object replicated inside the stub then never
//! pays an inter-stub hop; queries for remote objects pay at most a couple
//! of cheap intra-stub surrogate hops before resuming wide-area routing.

use crate::node::TapestryNode;
use crate::refs::NodeRef;
use tapestry_id::Id;

impl TapestryNode {
    /// Stub-restricted surrogate routing: like
    /// [`RoutingTable::next_hop`](crate::RoutingTable::next_hop), but only
    /// neighbors within the configured latency threshold qualify, per the
    /// paper's practical suggestion of "setting a local latency threshold
    /// and marking nodes further than the threshold as outside the stub".
    ///
    /// Returns the next in-stub hop and the new resolved level, or `None`
    /// when this node is the stub-local root.
    pub(crate) fn next_hop_local(&self, target: &Id, mut level: usize) -> Option<(NodeRef, usize)> {
        let thresh = self.cfg.stub_latency_threshold;
        let base = self.table.base();
        while level < self.table.levels() {
            let want = target.digit(level) as usize;
            let mut chosen: Option<NodeRef> = None;
            'digits: for off in 0..base {
                let j = ((want + off) % base) as u8;
                for (r, d) in self.table.slot(level, j).iter_with_dist() {
                    // Self entries have distance 0 and always qualify.
                    if d <= thresh {
                        chosen = Some(r);
                        break 'digits;
                    }
                }
            }
            match chosen {
                None => return None, // nothing in-stub at this level: local root
                Some(r) if r.idx == self.me.idx => level += 1,
                Some(r) => return Some((r, level + 1)),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing_table::line;
    use crate::{Names, TapestryConfig, TapestryNode};
    use tapestry_id::IdSpace;

    const S: IdSpace = IdSpace::base16();

    /// Point 0 (4227…, the node under test), a digit-5 point 5111… 100
    /// away and a digit-9 point 9ABC… 2 away.
    fn names() -> Names {
        Names::new([0x4227_0000, 0x5111_1111, 0x9ABC_0000].map(|v| Id::from_u64(S, v)).to_vec())
    }

    fn node(cfg: TapestryConfig) -> TapestryNode {
        TapestryNode::new_active(cfg, names(), line(&[0.0, 100.0, 2.0]), 0, 7)
    }

    #[test]
    fn local_routing_ignores_far_neighbors() {
        let cfg = TapestryConfig { stub_latency_threshold: 10.0, ..Default::default() };
        let mut n = node(cfg);
        // A far (distance 100) digit-5 neighbor and a near (distance 2)
        // digit-9 neighbor.
        let (far, near) = (names().nref(1), names().nref(2));
        n.table_mut().add_if_closer(far, 3);
        n.table_mut().add_if_closer(near, 3);
        let target = Id::from_u64(S, 0x5000_0000);
        // Global routing would pick the far digit-5 node; local routing
        // skips it and surrogate-routes to the near digit-9 node.
        let (hop, lvl) = n.next_hop_local(&target, 0).unwrap();
        assert_eq!(hop.idx, 2);
        assert_eq!(lvl, 1);
    }

    #[test]
    fn local_root_when_alone_in_stub() {
        let cfg = TapestryConfig { stub_latency_threshold: 10.0, ..Default::default() };
        let mut n = node(cfg);
        n.table_mut().add_if_closer(names().nref(1), 3);
        // Only far neighbors: every level resolves through self entries and
        // the walk ends at the local root (None).
        let target = Id::from_u64(S, 0x5000_0000);
        assert!(n.next_hop_local(&target, 0).is_none());
    }
}

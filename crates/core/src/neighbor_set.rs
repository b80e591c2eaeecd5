use crate::refs::{idx32, NodeRef};
use std::cmp::Ordering;
use tapestry_id::Id;
use tapestry_sim::NodeIdx;

/// Result of offering a node to one slot of a [`crate::RoutingTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// The node was inserted. `evicted` is the neighbor displaced beyond
    /// capacity (its backpointer must be dropped); `filled_hole` is true
    /// when the set was previously empty — the Property 1 event that
    /// insertion multicasts exist to propagate.
    Added {
        /// Displaced neighbor, if capacity was exceeded.
        evicted: Option<NodeRef>,
        /// Was this set empty before (a routing-table hole)?
        filled_hole: bool,
    },
    /// The node was already present (its distance entry was refreshed).
    AlreadyPresent,
    /// The set is full of closer, unevictable entries.
    Rejected,
}

/// One table entry, packed to 24 bytes: the node's index is narrowed to
/// `u32` on the way in ([`idx32`]); what leaves the table is a full
/// [`NodeRef`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub dist: f64,
    idx: u32,
    id: Id,
    pub pinned: bool,
}

impl Entry {
    pub fn new(nref: NodeRef, dist: f64, pinned: bool) -> Self {
        Entry { dist, idx: idx32(nref.idx), id: nref.id, pinned }
    }

    #[inline]
    pub fn nref(&self) -> NodeRef {
        NodeRef::new(self.idx as NodeIdx, self.id)
    }

    #[inline]
    pub fn is(&self, idx: NodeIdx) -> bool {
        self.idx as NodeIdx == idx
    }

    /// The order every slot is kept in: `(dist, idx)`.
    pub fn order(a: &Entry, b: &Entry) -> Ordering {
        a.dist.partial_cmp(&b.dist).unwrap().then(a.idx.cmp(&b.idx))
    }
}

/// One slot `N_{α,j}` of the routing mesh, borrowed from its
/// [`crate::RoutingTable`]: the closest `R` known `(α, j)` nodes, sorted
/// by network distance (Property 2).
///
/// The first entry is the **primary neighbor**, the rest are
/// **secondary neighbors** (§2.1). Entries can be *pinned* during
/// simultaneous insertions (§4.4): pinned entries are never evicted and
/// multicasts forward to all of them, because — as the paper puts it —
/// pinned pointers "are not well-enough connected to be reachable via
/// multicast" through the regular tree.
#[derive(Debug, Clone, Copy)]
pub struct Slot<'a> {
    pub(crate) entries: &'a [Entry],
}

impl<'a> Slot<'a> {
    /// Number of neighbors currently held.
    pub fn len(self) -> usize {
        self.entries.len()
    }

    /// Is the slot a hole (no known `(α, j)` nodes)?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.entries.is_empty()
    }

    /// The closest neighbor, skipping `exclude` (a node being routed
    /// around, §5.1). Inlined: `next_hop` calls this per candidate digit
    /// on every routing hop.
    #[inline]
    pub fn primary(self, exclude: Option<NodeIdx>) -> Option<NodeRef> {
        self.entries.iter().find(|e| Some(e.idx as NodeIdx) != exclude).map(Entry::nref)
    }

    /// All neighbors, closest first.
    pub fn iter(self) -> impl Iterator<Item = NodeRef> + 'a {
        self.entries.iter().map(Entry::nref)
    }

    /// Neighbors with their recorded distances, closest first.
    pub fn iter_with_dist(self) -> impl Iterator<Item = (NodeRef, f64)> + 'a {
        self.entries.iter().map(|e| (e.nref(), e.dist))
    }

    /// Does the slot contain `idx`?
    pub fn contains(self, idx: NodeIdx) -> bool {
        self.entries.iter().any(|e| e.is(idx))
    }

    /// Currently pinned neighbors.
    pub fn pinned(self) -> impl Iterator<Item = NodeRef> + 'a {
        self.entries.iter().filter(|e| e.pinned).map(Entry::nref)
    }

    /// The closest unpinned neighbor — the multicast forwards through one
    /// unpinned pointer plus every pinned pointer (§4.4: "X must keep at
    /// least one unpinned pointer and all pinned pointers").
    pub fn first_unpinned(self) -> Option<NodeRef> {
        self.entries.iter().find(|e| !e.pinned).map(Entry::nref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingTable;
    use tapestry_id::IdSpace;

    fn nref(i: usize) -> NodeRef {
        NodeRef::new(i, Id::from_u64(IdSpace::base16(), i as u64))
    }

    /// A one-level table whose owner's first digit is F: every `nref(i)`
    /// (first digit 0) belongs to slot (0, 0), which starts as a hole.
    fn one_slot() -> RoutingTable {
        RoutingTable::new(NodeRef::new(999, Id::from_u64(IdSpace::base16(), 0xF000_0000)), 16, 1)
    }

    #[test]
    fn entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn keeps_closest_r_sorted() {
        let mut t = one_slot();
        assert!(matches!(
            t.offer(0, nref(1), 10.0, 2),
            AddOutcome::Added { evicted: None, filled_hole: true }
        ));
        assert!(matches!(
            t.offer(0, nref(2), 5.0, 2),
            AddOutcome::Added { evicted: None, filled_hole: false }
        ));
        // Full; farther node rejected.
        assert_eq!(t.offer(0, nref(3), 20.0, 2), AddOutcome::Rejected);
        // Closer node evicts the farthest.
        match t.offer(0, nref(4), 1.0, 2) {
            AddOutcome::Added { evicted: Some(e), .. } => assert_eq!(e.idx, 1),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(t.slot(0, 0).primary(None).unwrap().idx, 4);
        assert_eq!(t.slot(0, 0).len(), 2);
    }

    #[test]
    fn duplicate_refreshes_distance() {
        let mut t = one_slot();
        t.offer(0, nref(1), 10.0, 3);
        t.offer(0, nref(2), 4.0, 3);
        assert_eq!(t.offer(0, nref(1), 1.0, 3), AddOutcome::AlreadyPresent);
        assert_eq!(t.slot(0, 0).primary(None).unwrap().idx, 1, "refresh re-sorts");
        let refreshed = t.slot(0, 0).iter_with_dist().find(|(r, _)| r.idx == 1);
        assert_eq!(refreshed.map(|(_, d)| d), Some(1.0));
    }

    #[test]
    fn primary_respects_exclusion() {
        let mut t = one_slot();
        t.offer(0, nref(1), 1.0, 3);
        t.offer(0, nref(2), 2.0, 3);
        assert_eq!(t.slot(0, 0).primary(Some(1)).unwrap().idx, 2);
        assert_eq!(t.slot(0, 0).primary(None).unwrap().idx, 1);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let mut t = one_slot();
        t.add_pinned(nref(9), 100.0);
        t.offer(0, nref(1), 1.0, 1);
        t.offer(0, nref(2), 0.5, 1);
        assert!(t.slot(0, 0).contains(9), "pinned entry never evicted");
        assert_eq!(t.slot(0, 0).pinned().count(), 1);
        assert_eq!(t.slot(0, 0).first_unpinned().unwrap().idx, 2);
        t.unpin(&nref(9));
        assert_eq!(t.slot(0, 0).pinned().count(), 0);
        // Unpinned now; next closer offer can push capacity handling at it.
        assert!(t.slot(0, 0).contains(9), "unpin keeps the entry itself");
    }

    #[test]
    fn remove_reports_presence() {
        let mut t = one_slot();
        t.offer(0, nref(1), 1.0, 2);
        assert_eq!(t.remove_node(1), vec![(0, 0)]);
        assert!(t.remove_node(1).is_empty());
        assert!(t.slot(0, 0).is_empty());
    }
}

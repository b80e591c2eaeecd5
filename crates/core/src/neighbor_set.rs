use crate::refs::NodeRef;
use tapestry_sim::NodeIdx;

/// Result of offering a node to a [`NeighborSet`].
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

/// One slot `N_{α,j}` of the routing mesh: the closest `R` known
/// `(α, j)` nodes, sorted by network distance (Property 2).
///
/// The first entry is the **primary neighbor**, the rest are
/// **secondary neighbors** (§2.1). Entries can be *pinned* during
/// simultaneous insertions (§4.4): pinned entries are never evicted and
/// multicasts forward to all of them, because — as the paper puts it —
/// pinned pointers "are not well-enough connected to be reachable via
/// multicast" through the regular tree.
#[derive(Debug, Clone, Default)]
pub struct NeighborSet {
    entries: Vec<Entry>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    nref: NodeRef,
    dist: f64,
    pinned: bool,
}

impl NeighborSet {
    /// An empty slot.
    pub fn new() -> Self {
        NeighborSet { entries: Vec::new() }
    }

    /// Number of neighbors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the slot a hole (no known `(α, j)` nodes)?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The closest neighbor, skipping `exclude` (a node being routed
    /// around, §5.1). Inlined: `next_hop` calls this per candidate digit
    /// on every routing hop.
    #[inline]
    pub fn primary(&self, exclude: Option<NodeIdx>) -> Option<NodeRef> {
        self.entries.iter().find(|e| Some(e.nref.idx) != exclude).map(|e| e.nref)
    }

    /// All neighbors, closest first.
    pub fn iter(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.entries.iter().map(|e| e.nref)
    }

    /// Neighbors with their recorded distances, closest first.
    pub fn iter_with_dist(&self) -> impl Iterator<Item = (NodeRef, f64)> + '_ {
        self.entries.iter().map(|e| (e.nref, e.dist))
    }

    /// Secondary neighbors (everything but the primary).
    pub fn secondaries(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.entries.iter().skip(1).map(|e| e.nref)
    }

    /// Does the slot contain `idx`?
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.entries.iter().any(|e| e.nref.idx == idx)
    }

    /// Distance recorded for `idx`, if present.
    pub fn distance_of(&self, idx: NodeIdx) -> Option<f64> {
        self.entries.iter().find(|e| e.nref.idx == idx).map(|e| e.dist)
    }

    /// Offer a node at the given distance; keep the closest `capacity`
    /// entries (`AddToTableIfCloser`). Pinned entries never count against
    /// eviction and are never evicted.
    pub fn add_if_closer(&mut self, nref: NodeRef, dist: f64, capacity: usize) -> AddOutcome {
        if let Some(e) = self.entries.iter_mut().find(|e| e.nref.idx == nref.idx) {
            e.dist = dist;
            self.sort();
            return AddOutcome::AlreadyPresent;
        }
        let filled_hole = self.entries.is_empty();
        let unpinned = self.entries.iter().filter(|e| !e.pinned).count();
        if unpinned >= capacity {
            // Full: admit only if closer than the farthest unpinned entry.
            let farthest = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.pinned)
                // entries is kept sorted by (dist, idx) (see sort below)
                // and max_by keeps the last of equals, so the evicted
                // entry is always the highest (dist, idx) — deterministic
                // without a .then.
                // tapestry-lint: allow(float-tiebreak)
                .max_by(|a, b| a.1.dist.partial_cmp(&b.1.dist).unwrap())
                .map(|(i, _)| i)
                .expect("unpinned >= capacity >= 1");
            if self.entries[farthest].dist <= dist {
                return AddOutcome::Rejected;
            }
            let evicted = self.entries.remove(farthest).nref;
            self.entries.push(Entry { nref, dist, pinned: false });
            self.sort();
            return AddOutcome::Added { evicted: Some(evicted), filled_hole: false };
        }
        self.entries.push(Entry { nref, dist, pinned: false });
        self.sort();
        AddOutcome::Added { evicted: None, filled_hole }
    }

    /// Add `closest` — nodes not yet in the set — with no capacity bound:
    /// what offering each in turn to [`NeighborSet::add_if_closer`] with
    /// unbounded capacity leaves. The static builder knows a slot's whole
    /// content at once, so it allocates for exactly that and sorts once.
    pub(crate) fn extend_unbounded(
        &mut self,
        closest: impl ExactSizeIterator<Item = (NodeRef, f64)>,
    ) {
        self.entries.reserve_exact(closest.len());
        for (nref, dist) in closest {
            debug_assert!(!self.contains(nref.idx), "extend_unbounded takes new nodes only");
            self.entries.push(Entry { nref, dist, pinned: false });
        }
        self.sort();
    }

    /// Insert a node as *pinned* (simultaneous-insertion protection). If
    /// already present it becomes pinned in place.
    pub fn add_pinned(&mut self, nref: NodeRef, dist: f64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.nref.idx == nref.idx) {
            e.pinned = true;
            return;
        }
        self.entries.push(Entry { nref, dist, pinned: true });
        self.sort();
    }

    /// Unpin a node (its introducing multicast was acknowledged). The
    /// entry remains as a regular neighbor; a later `add_if_closer` may
    /// evict it normally.
    pub fn unpin(&mut self, idx: NodeIdx) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.nref.idx == idx) {
            e.pinned = false;
        }
    }

    /// Currently pinned neighbors.
    pub fn pinned(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.entries.iter().filter(|e| e.pinned).map(|e| e.nref)
    }

    /// The closest unpinned neighbor — the multicast forwards through one
    /// unpinned pointer plus every pinned pointer (§4.4: "X must keep at
    /// least one unpinned pointer and all pinned pointers").
    pub fn first_unpinned(&self) -> Option<NodeRef> {
        self.entries.iter().find(|e| !e.pinned).map(|e| e.nref)
    }

    /// Remove a node (departure). Returns true when it was present.
    pub fn remove(&mut self, idx: NodeIdx) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.nref.idx != idx);
        self.entries.len() != before
    }

    fn sort(&mut self) {
        self.entries
            .sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.nref.idx.cmp(&b.nref.idx)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_id::{Id, IdSpace};

    fn nref(i: usize) -> NodeRef {
        NodeRef::new(i, Id::from_u64(IdSpace::base16(), i as u64))
    }

    #[test]
    fn keeps_closest_r_sorted() {
        let mut s = NeighborSet::new();
        assert!(matches!(
            s.add_if_closer(nref(1), 10.0, 2),
            AddOutcome::Added { evicted: None, filled_hole: true }
        ));
        assert!(matches!(
            s.add_if_closer(nref(2), 5.0, 2),
            AddOutcome::Added { evicted: None, filled_hole: false }
        ));
        // Full; farther node rejected.
        assert_eq!(s.add_if_closer(nref(3), 20.0, 2), AddOutcome::Rejected);
        // Closer node evicts the farthest.
        match s.add_if_closer(nref(4), 1.0, 2) {
            AddOutcome::Added { evicted: Some(e), .. } => assert_eq!(e.idx, 1),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(s.primary(None).unwrap().idx, 4);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duplicate_refreshes_distance() {
        let mut s = NeighborSet::new();
        s.add_if_closer(nref(1), 10.0, 3);
        s.add_if_closer(nref(2), 4.0, 3);
        assert_eq!(s.add_if_closer(nref(1), 1.0, 3), AddOutcome::AlreadyPresent);
        assert_eq!(s.primary(None).unwrap().idx, 1, "refresh re-sorts");
    }

    #[test]
    fn primary_respects_exclusion() {
        let mut s = NeighborSet::new();
        s.add_if_closer(nref(1), 1.0, 3);
        s.add_if_closer(nref(2), 2.0, 3);
        assert_eq!(s.primary(Some(1)).unwrap().idx, 2);
        assert_eq!(s.primary(None).unwrap().idx, 1);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let mut s = NeighborSet::new();
        s.add_pinned(nref(9), 100.0);
        s.add_if_closer(nref(1), 1.0, 1);
        s.add_if_closer(nref(2), 0.5, 1);
        assert!(s.contains(9), "pinned entry never evicted");
        assert_eq!(s.pinned().count(), 1);
        s.unpin(9);
        assert_eq!(s.pinned().count(), 0);
        // Unpinned now; next closer offer can push capacity handling at it.
        assert!(s.contains(9), "unpin keeps the entry itself");
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = NeighborSet::new();
        s.add_if_closer(nref(1), 1.0, 2);
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert!(s.is_empty());
    }

    #[test]
    fn secondaries_skip_primary() {
        let mut s = NeighborSet::new();
        s.add_if_closer(nref(1), 1.0, 3);
        s.add_if_closer(nref(2), 2.0, 3);
        s.add_if_closer(nref(3), 3.0, 3);
        let sec: Vec<_> = s.secondaries().map(|r| r.idx).collect();
        assert_eq!(sec, vec![2, 3]);
    }
}

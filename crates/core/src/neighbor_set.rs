use crate::refs::{Names, NodeRef};
use tapestry_metric::MetricSpace;
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
    /// The node was already present; the slot is unchanged.
    AlreadyPresent,
    /// The set is full of closer, unevictable entries.
    Rejected,
}

/// The pin flag's bit; the address takes the 31 below it.
const PINNED: u32 = 1 << 31;

/// One table entry, packed into a `u32`: the node's address (31 bits,
/// narrowed on the way in by [`Names::check`]) and the pin flag in the
/// top bit. No name and no distance: what leaves the table is a full
/// [`NodeRef`], its name read from the table's [`Names`], and a
/// distance is read from the metric ([`Ruler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry(u32);

impl Entry {
    /// An entry for `nref`, whose name must be the directory's.
    pub fn new(nref: NodeRef, pinned: bool, names: &Names) -> Self {
        Entry(names.check(nref) | if pinned { PINNED } else { 0 })
    }

    #[inline]
    pub fn idx(self) -> NodeIdx {
        (self.0 & !PINNED) as NodeIdx
    }

    #[inline]
    pub fn pinned(self) -> bool {
        self.0 & PINNED != 0
    }

    pub fn set_pinned(&mut self, pinned: bool) {
        self.0 = if pinned { self.0 | PINNED } else { self.0 & !PINNED };
    }

    #[inline]
    pub fn nref(self, names: &Names) -> NodeRef {
        names.nref(self.idx())
    }

    #[inline]
    pub fn is(self, idx: NodeIdx) -> bool {
        self.idx() == idx
    }
}

/// Distances from one table's owner, read from the metric whenever a
/// slot needs one — in a deployment, the owner's cached RTT measurements.
/// The owner's self entries sit at distance 0.
#[derive(Clone, Copy)]
pub(crate) struct Ruler<'a> {
    pub metric: &'a dyn MetricSpace,
    pub owner: NodeIdx,
}

impl std::fmt::Debug for Ruler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ruler({} from {})", self.metric.name(), self.owner)
    }
}

impl Ruler<'_> {
    #[inline]
    pub fn dist(self, e: Entry) -> f64 {
        if e.is(self.owner) {
            0.0
        } else {
            self.metric.distance(self.owner, e.idx())
        }
    }

    /// The order every slot is kept in: `(distance from the owner, idx)`.
    /// Distances are finite, so keys compare totally.
    #[inline]
    pub fn key(self, e: Entry) -> (f64, NodeIdx) {
        (self.dist(e), e.idx())
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
    pub(crate) names: &'a Names,
    pub(crate) ruler: Ruler<'a>,
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

    /// The closest neighbor's address, skipping `exclude`. Inlined:
    /// `next_hop` calls this per candidate digit on every routing hop.
    #[inline]
    pub(crate) fn primary_idx(self, exclude: Option<NodeIdx>) -> Option<NodeIdx> {
        self.entries.iter().map(|e| e.idx()).find(|&idx| Some(idx) != exclude)
    }

    /// The closest neighbor, skipping `exclude` (a node being routed
    /// around, §5.1).
    #[inline]
    pub fn primary(self, exclude: Option<NodeIdx>) -> Option<NodeRef> {
        self.primary_idx(exclude).map(|idx| self.names.nref(idx))
    }

    /// All neighbors, closest first.
    pub fn iter(self) -> impl Iterator<Item = NodeRef> + 'a {
        self.entries.iter().map(|e| e.nref(self.names))
    }

    /// Neighbors with their distances from the owner, closest first.
    pub fn iter_with_dist(self) -> impl Iterator<Item = (NodeRef, f64)> + 'a {
        self.entries.iter().map(move |&e| (e.nref(self.names), self.ruler.dist(e)))
    }

    /// Does the slot contain `idx`?
    pub fn contains(self, idx: NodeIdx) -> bool {
        self.entries.iter().any(|e| e.is(idx))
    }

    /// Currently pinned neighbors.
    pub fn pinned(self) -> impl Iterator<Item = NodeRef> + 'a {
        self.entries.iter().filter(|e| e.pinned()).map(|e| e.nref(self.names))
    }

    /// The closest unpinned neighbor — the multicast forwards through one
    /// unpinned pointer plus every pinned pointer (§4.4: "X must keep at
    /// least one unpinned pointer and all pinned pointers").
    pub fn first_unpinned(self) -> Option<NodeRef> {
        self.entries.iter().find(|e| !e.pinned()).map(|e| e.nref(self.names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing_table::line;
    use crate::RoutingTable;
    use tapestry_id::{Id, IdSpace};

    /// Point 0 is named F000…, point `i > 0` is named `i` (first digit 0).
    fn names() -> Names {
        let name = |i: u64| if i == 0 { 0xF000_0000 } else { i };
        Names::new((0..16).map(|i| Id::from_u64(IdSpace::base16(), name(i))).collect())
    }

    fn nref(i: usize) -> NodeRef {
        names().nref(i)
    }

    /// A one-level table owned by point 0, with point `i` at distance
    /// `at[i]` from it (points past `at` at 1000 and on): every `nref(i)`
    /// belongs to slot (0, 0), which starts as a hole.
    fn one_slot(at: &[f64]) -> RoutingTable {
        let place =
            |i: usize| if i == 0 { 0.0 } else { at.get(i).copied().unwrap_or(1000.0 + i as f64) };
        RoutingTable::new(names(), line(&(0..16).map(place).collect::<Vec<_>>()), 0, 16, 1)
    }

    /// Offer point `i` to slot (0, 0) of `t`.
    fn offer(t: &mut RoutingTable, i: usize, cap: usize) -> AddOutcome {
        let new = Entry::new(nref(i), false, t.names());
        t.offer(0, new, t.ruler().dist(new), cap)
    }

    #[test]
    fn entry_is_4_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 4);
    }

    #[test]
    fn an_entry_keeps_its_address_apart_from_its_pin() {
        let names = Names::new(vec![Id::from_u64(IdSpace::base16(), 0); 3]);
        let mut e = Entry::new(names.nref(2), true, &names);
        assert!(e.pinned() && e.is(2));
        e.set_pinned(false);
        assert!(!e.pinned() && e.is(2));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_NODES")]
    fn an_address_past_31_bits_is_refused() {
        // The directory is never this large; the width check comes first.
        let names = names();
        Entry::new(NodeRef::new(1 << 31, names[1]), false, &names);
    }

    #[test]
    fn keeps_closest_r_sorted() {
        let mut t = one_slot(&[0.0, 10.0, 5.0, 20.0, 1.0]);
        assert!(matches!(
            offer(&mut t, 1, 2),
            AddOutcome::Added { evicted: None, filled_hole: true }
        ));
        assert!(matches!(
            offer(&mut t, 2, 2),
            AddOutcome::Added { evicted: None, filled_hole: false }
        ));
        // Full; farther node rejected.
        assert_eq!(offer(&mut t, 3, 2), AddOutcome::Rejected);
        // Closer node evicts the farthest.
        match offer(&mut t, 4, 2) {
            AddOutcome::Added { evicted: Some(e), .. } => assert_eq!(e.idx, 1),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(t.slot(0, 0).primary(None).unwrap().idx, 4);
        assert_eq!(t.slot(0, 0).len(), 2);
        let dists: Vec<f64> = t.slot(0, 0).iter_with_dist().map(|(_, d)| d).collect();
        assert_eq!(dists, [1.0, 5.0], "distances are the metric's");
    }

    #[test]
    fn a_reoffer_is_already_present_and_changes_nothing() {
        let mut t = one_slot(&[0.0, 10.0, 4.0]);
        offer(&mut t, 1, 3);
        offer(&mut t, 2, 3);
        let before: Vec<(NodeRef, f64)> = t.slot(0, 0).iter_with_dist().collect();
        assert_eq!(offer(&mut t, 1, 3), AddOutcome::AlreadyPresent);
        assert_eq!(offer(&mut t, 1, 1), AddOutcome::AlreadyPresent, "even past capacity");
        assert_eq!(t.slot(0, 0).iter_with_dist().collect::<Vec<_>>(), before);
        assert_eq!(before, [(nref(2), 4.0), (nref(1), 10.0)]);
    }

    #[test]
    fn primary_respects_exclusion() {
        let mut t = one_slot(&[0.0, 1.0, 2.0]);
        offer(&mut t, 1, 3);
        offer(&mut t, 2, 3);
        assert_eq!(t.slot(0, 0).primary(Some(1)).unwrap().idx, 2);
        assert_eq!(t.slot(0, 0).primary(None).unwrap().idx, 1);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let mut t = one_slot(&[0.0, 1.0, 0.5]);
        t.add_pinned(nref(9));
        offer(&mut t, 1, 1);
        offer(&mut t, 2, 1);
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
        let mut t = one_slot(&[0.0, 1.0]);
        offer(&mut t, 1, 2);
        assert_eq!(t.remove_node(1), vec![(0, 0)]);
        assert!(t.remove_node(1).is_empty());
        assert!(t.slot(0, 0).is_empty());
    }
}

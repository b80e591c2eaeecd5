use crate::neighbor_set::{AddOutcome, Entry, Slot};
use crate::refs::{NodeRef, GROW_STEP};
use std::mem::size_of;
use std::ops::Range;
use tapestry_id::Id;
use tapestry_sim::NodeIdx;

/// Where surrogate routing goes next from a given node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hop {
    /// Forward to this neighbor; the message's resolved level becomes the
    /// contained value.
    Forward(NodeRef, usize),
    /// The current node is the root (surrogate) of the target.
    Root,
}

/// Aggregate result of offering a node to every slot it qualifies for.
#[derive(Debug, Clone, Default)]
pub struct TableAddOutcome {
    /// Added to at least one slot it was absent from.
    pub newly_added: bool,
    /// Entries displaced by capacity eviction (they may survive in other
    /// slots — callers deciding on backpointer removal must re-check
    /// [`RoutingTable::contains`]).
    pub evicted: Vec<NodeRef>,
}

/// The per-node routing mesh state: `levels × base` neighbor sets.
///
/// Level `l` (0-based here; the paper's level `l+1`) holds, in slot `j`,
/// the closest nodes whose IDs share exactly the owner's first `l` digits
/// and continue with digit `j` (the paper's `N_{α,j}` with `|α| = l`).
/// The owner appears in its own-digit slot of every level at distance 0,
/// which makes surrogate routing's "self step" (resolving a digit without
/// leaving the node) fall out naturally.
///
/// All slots share one allocation: `entries` holds them back to back,
/// slot `s = level · base + digit` being `entries[ends[s-1]..ends[s]]`
/// (from 0 for `s = 0`), each sorted by `(dist, idx)`. A hole costs its
/// two bytes of `ends` and nothing else.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    owner: NodeRef,
    base: u8,
    levels: u8,
    entries: Vec<Entry>,
    ends: Box<[u16]>,
}

impl RoutingTable {
    /// A fresh table containing only the owner's self entries.
    pub fn new(owner: NodeRef, base: usize, levels: usize) -> Self {
        let mut table = RoutingTable {
            owner,
            base: u8::try_from(base).expect("a digit is a u8, so base <= 255"),
            levels: u8::try_from(levels).expect("an Id has at most 16 digits"),
            entries: Vec::with_capacity(levels),
            ends: vec![0; base * levels].into(),
        };
        for l in 0..levels {
            table.insert_sorted(table.index(l, owner.id.digit(l)), Entry::new(owner, 0.0, false));
        }
        table
    }

    /// The owner of this table.
    pub fn owner(&self) -> NodeRef {
        self.owner
    }

    /// Digit radix.
    pub fn base(&self) -> usize {
        self.base as usize
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels as usize
    }

    /// Bytes one entry of a slot occupies.
    pub const ENTRY_BYTES: usize = size_of::<Entry>();

    /// Bytes of heap the table holds (capacity, not length).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * Self::ENTRY_BYTES + self.ends.len() * size_of::<u16>()
    }

    /// Slot `(level, digit)`'s place in `ends`.
    #[inline]
    fn index(&self, level: usize, digit: u8) -> usize {
        level * self.base() + digit as usize
    }

    /// Where slots `from..to` lie in `entries`.
    #[inline]
    fn span(&self, from: usize, to: usize) -> Range<usize> {
        let lo = if from == 0 { 0 } else { self.ends[from - 1] as usize };
        lo..self.ends[to - 1] as usize
    }

    /// Slot access.
    #[inline]
    pub fn slot(&self, level: usize, digit: u8) -> Slot<'_> {
        let s = self.index(level, digit);
        Slot { entries: &self.entries[self.span(s, s + 1)] }
    }

    fn slot_entries(&mut self, s: usize) -> &mut [Entry] {
        let span = self.span(s, s + 1);
        &mut self.entries[span]
    }

    /// Room for `additional` more entries, refusing what `u16` offsets
    /// cannot address. A full table grows by [`GROW_STEP`], not by
    /// doubling; a larger request — the static builder knows what a table
    /// will hold before it fills it — is met exactly.
    pub(crate) fn make_room(&mut self, additional: usize) {
        let len = self.entries.len() + additional;
        assert!(len <= MAX_ENTRIES, "a routing table holds at most {MAX_ENTRIES} entries");
        if len > self.entries.capacity() {
            self.entries.reserve_exact(additional.max(GROW_STEP));
        }
    }

    /// Put `new` into slot `s` at its `(dist, idx)` place.
    fn insert_sorted(&mut self, s: usize, new: Entry) {
        self.make_room(1);
        let span = self.span(s, s + 1);
        let at = self.entries[span.clone()].partition_point(|e| Entry::order(e, &new).is_lt());
        self.entries.insert(span.start + at, new);
        self.ends[s..].iter_mut().for_each(|end| *end += 1);
    }

    /// The slot (level, digit) where `other` belongs in this table:
    /// level = length of the shared prefix, digit = `other`'s digit there.
    /// `None` for the owner itself or an ID identical to the owner's.
    pub fn slot_for(&self, other: &Id) -> Option<(usize, u8)> {
        let p = self.owner.id.shared_prefix_len(other);
        (p < self.levels()).then(|| (p, other.digit(p)))
    }

    /// Offer `other` to every slot it qualifies for (`AddToTableIfCloser`
    /// over the paper's *nested* neighbor sets). Self-offers are ignored.
    ///
    /// `N_{α,j}` holds the closest nodes whose IDs extend prefix `α` with
    /// digit `j` — a node sharing `p` digits with the owner therefore
    /// belongs not only at its divergence slot `(p, digit_p)` but also in
    /// the owner's own-digit slot of every level `ℓ < p` (§2.1; the
    /// nearest-neighbor observation and Theorem 3's list build both rely
    /// on `∪_j N_{ε,j}` containing the closest same-first-digit nodes,
    /// not just the owner's self entry). Only own-digit slots gain
    /// entries, and the owner (distance 0) stays their primary, so
    /// routing decisions and hole patterns are unaffected.
    pub fn add_if_closer(&mut self, other: NodeRef, dist: f64, capacity: usize) -> TableAddOutcome {
        let mut outcome = TableAddOutcome::default();
        let Some((p, _)) = self.slot_for(&other.id) else {
            return outcome;
        };
        for l in 0..=p {
            let s = self.index(l, other.id.digit(l));
            if let AddOutcome::Added { evicted, .. } = self.offer(s, other, dist, capacity) {
                outcome.newly_added = true;
                outcome.evicted.extend(evicted);
            }
        }
        outcome
    }

    /// Offer `nref` to slot `s` alone; keep the closest `cap` entries
    /// (`AddToTableIfCloser`). Pinned entries never count against
    /// eviction and are never evicted.
    pub(crate) fn offer(&mut self, s: usize, nref: NodeRef, dist: f64, cap: usize) -> AddOutcome {
        let slot = self.slot_entries(s);
        if let Some(e) = slot.iter_mut().find(|e| e.is(nref.idx)) {
            e.dist = dist;
            slot.sort_by(Entry::order);
            return AddOutcome::AlreadyPresent;
        }
        let new = Entry::new(nref, dist, false);
        if slot.iter().filter(|e| !e.pinned).count() >= cap {
            // Full: admit only if closer than the farthest unpinned
            // entry — the last one, the slot being sorted by (dist, idx).
            let far = slot.iter().rposition(|e| !e.pinned).expect("unpinned >= capacity >= 1");
            if slot[far].dist <= dist {
                return AddOutcome::Rejected;
            }
            let evicted = std::mem::replace(&mut slot[far], new).nref();
            slot.sort_by(Entry::order);
            return AddOutcome::Added { evicted: Some(evicted), filled_hole: false };
        }
        let filled_hole = slot.is_empty();
        self.insert_sorted(s, new);
        AddOutcome::Added { evicted: None, filled_hole }
    }

    /// Add `closest` — nodes not yet in slot `(level, digit)` — with no
    /// capacity bound: what offering each in turn with unbounded capacity
    /// leaves. The static builder fills slots in ascending order, so this
    /// is an append but for the owner's deeper self entries.
    pub(crate) fn extend_unbounded(
        &mut self,
        level: usize,
        digit: u8,
        closest: impl ExactSizeIterator<Item = (NodeRef, f64)>,
    ) {
        let s = self.index(level, digit);
        self.make_room(closest.len());
        for (nref, dist) in closest {
            debug_assert!(!self.slot(level, digit).contains(nref.idx), "new nodes only");
            self.insert_sorted(s, Entry::new(nref, dist, false));
        }
    }

    /// Insert `other` pinned (multicast in progress, §4.4). If already
    /// present it becomes pinned in place.
    pub fn add_pinned(&mut self, other: NodeRef, dist: f64) {
        let Some((l, j)) = self.slot_for(&other.id) else { return };
        let s = self.index(l, j);
        match self.slot_entries(s).iter_mut().find(|e| e.is(other.idx)) {
            Some(e) => e.pinned = true,
            None => self.insert_sorted(s, Entry::new(other, dist, true)),
        }
    }

    /// Unpin `other` (its introducing multicast was acknowledged). The
    /// entry remains as a regular neighbor; a later `add_if_closer` may
    /// evict it normally.
    pub fn unpin(&mut self, other: &NodeRef) {
        let Some((l, j)) = self.slot_for(&other.id) else { return };
        let s = self.index(l, j);
        if let Some(e) = self.slot_entries(s).iter_mut().find(|e| e.is(other.idx)) {
            e.pinned = false;
        }
    }

    /// Remove a departed node from every slot. Returns the slots that
    /// became holes — each is a potential Property 1 violation the caller
    /// must repair or justify (no matching nodes remain anywhere).
    pub fn remove_node(&mut self, idx: NodeIdx) -> Vec<(usize, u8)> {
        let mut new_holes = Vec::new();
        let mut at = 0;
        // One scan; a node sits in a slot at most once and in at most
        // `levels` slots, so the tail moves a handful of times.
        while let Some(found) = self.entries[at..].iter().position(|e| e.is(idx)) {
            at += found;
            let s = self.ends.partition_point(|&end| end as usize <= at);
            if self.span(s, s + 1).len() == 1 {
                new_holes.push((s / self.base(), (s % self.base()) as u8));
            }
            self.entries.remove(at);
            self.ends[s..].iter_mut().for_each(|end| *end -= 1);
        }
        new_holes
    }

    /// Does any slot reference `idx`?
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.entries.iter().any(|e| e.is(idx))
    }

    /// Number of slots referencing `idx` — removal's backup-promotion
    /// accounting (slots occupied minus holes created = slots where a
    /// backup entry was promoted to primary, §3 redundancy).
    pub fn occupancy(&self, idx: NodeIdx) -> usize {
        self.entries.iter().filter(|e| e.is(idx)).count()
    }

    /// The entries of `span` other than the owner's self entries.
    fn others(&self, span: Range<usize>) -> impl Iterator<Item = NodeRef> + '_ {
        self.entries[span].iter().filter(|e| !e.is(self.owner.idx)).map(Entry::nref)
    }

    /// Every slot entry other than the owner's self entries, slot by slot
    /// (a node in several slots is yielded once per slot).
    pub fn refs(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.others(0..self.entries.len())
    }

    /// Every distinct node referenced by the table (excluding the owner),
    /// ascending by index.
    pub fn all_refs(&self) -> Vec<NodeRef> {
        distinct_by_idx(self.refs().collect())
    }

    /// Neighbors at one level (the forward pointers `GetNextList` asks
    /// for), excluding the owner, ascending by index.
    pub fn level_refs(&self, level: usize) -> Vec<NodeRef> {
        let span = self.span(level * self.base(), (level + 1) * self.base());
        distinct_by_idx(self.others(span).collect())
    }

    /// Total number of neighbor entries (the paper's space measure),
    /// excluding self entries.
    pub fn entry_count(&self) -> usize {
        self.refs().count()
    }

    /// Slots at `level` that are empty — candidate holes for the watch
    /// list of Fig. 11.
    pub fn holes_at(&self, level: usize) -> Vec<u8> {
        (0..self.base() as u8).filter(|&j| self.slot(level, j).is_empty()).collect()
    }

    /// Tapestry-native surrogate routing (§2.3): starting with `level`
    /// digits resolved, try the target's next digit; if that slot is a
    /// hole, scan upward (wrapping) to the next filled slot. Choosing the
    /// owner's own slot resolves a digit without leaving the node; the
    /// scan then continues one level deeper. Returns `Root` when every
    /// remaining digit resolves to the owner.
    ///
    /// `exclude` routes around a departing node (§5.1).
    pub fn next_hop(&self, target: &Id, mut level: usize, exclude: Option<NodeIdx>) -> Hop {
        while level < self.levels() {
            let want = target.digit(level) as usize;
            let mut chosen = None;
            for off in 0..self.base() {
                let j = ((want + off) % self.base()) as u8;
                if let Some(p) = self.slot(level, j).primary(exclude) {
                    chosen = Some(p);
                    break;
                }
            }
            match chosen {
                // With self entries present, some slot is always filled
                // unless `exclude` emptied the whole level *and* the owner
                // is excluded — the excluded owner handles that case by
                // scanning as if it were absent, so `None` means the owner
                // itself is the only remaining candidate: treat as root.
                None => return Hop::Root,
                Some(p) if p.idx == self.owner.idx => {
                    // Self step: the owner is the closest (α, j) node.
                    level += 1;
                }
                Some(p) => return Hop::Forward(p, level + 1),
            }
        }
        Hop::Root
    }

    /// Distributed PRR-like routing (§2.3 variant 2): exact digits until
    /// the first hole; at the first hole, the filled digit sharing the
    /// most significant bits with the desired digit (ties to the higher
    /// digit); after the first hole, always the numerically highest
    /// filled digit. `past_hole` carries the "have we hit a hole yet"
    /// state between hops; the updated flag is returned with the hop.
    pub fn next_hop_prr(
        &self,
        target: &Id,
        mut level: usize,
        exclude: Option<NodeIdx>,
        mut past_hole: bool,
    ) -> (Hop, bool) {
        while level < self.levels() {
            let choice = if past_hole {
                // Numerically highest filled digit.
                (0..self.base() as u8)
                    .rev()
                    .find_map(|j| self.slot(level, j).primary(exclude).map(|p| (j, p)))
            } else {
                let want = target.digit(level);
                match self.slot(level, want).primary(exclude) {
                    Some(p) => Some((want, p)),
                    None => {
                        // First hole: most significant matching bits, ties
                        // to the numerically higher digit.
                        past_hole = true;
                        (0..self.base() as u8)
                            .filter_map(|j| self.slot(level, j).primary(exclude).map(|p| (j, p)))
                            .max_by_key(|&(j, _)| (digit_match_bits(want, j, self.base()), j))
                    }
                }
            };
            match choice {
                None => return (Hop::Root, past_hole),
                Some((_, p)) if p.idx == self.owner.idx => level += 1,
                Some((_, p)) => return (Hop::Forward(p, level + 1), past_hole),
            }
        }
        (Hop::Root, past_hole)
    }
}

/// Most entries one table can hold: slot boundaries are `u16` offsets.
const MAX_ENTRIES: usize = u16::MAX as usize;

/// Sort by node index and drop repeats. The index alone identifies a
/// node, so the `Id` never enters a comparison.
fn distinct_by_idx(mut refs: Vec<NodeRef>) -> Vec<NodeRef> {
    refs.sort_unstable_by_key(|r| r.idx);
    refs.dedup_by_key(|r| r.idx);
    refs
}

/// Number of leading bits (within the digit width of `base`) on which two
/// digits agree — the PRR-like tiebreak ("matches the desired digit in as
/// many significant bits as possible").
fn digit_match_bits(want: u8, have: u8, base: usize) -> u32 {
    // Digit width in bits: 4 for base 16, ⌈log₂ base⌉ in general.
    let width = u32::BITS - ((base - 1) as u32).leading_zeros();
    let diff = (want ^ have) as u32;
    if diff == 0 {
        width
    } else {
        width - (u32::BITS - diff.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_id::IdSpace;

    const S: IdSpace = IdSpace::base16();

    fn nref(idx: usize, v: u64) -> NodeRef {
        NodeRef::new(idx, Id::from_u64(S, v))
    }

    fn table(v: u64) -> RoutingTable {
        RoutingTable::new(nref(0, v), 16, 8)
    }

    #[test]
    fn self_entries_present() {
        let t = table(0x4227_0000);
        for l in 0..8 {
            let j = t.owner().id.digit(l);
            assert!(t.slot(l, j).contains(0), "self entry at level {l}");
        }
        assert_eq!(t.entry_count(), 0, "self entries do not count as space");
    }

    #[test]
    fn slot_for_places_by_shared_prefix() {
        let t = table(0x4227_0000);
        // 42A2... shares "42", diverges with digit A at level 2 (paper Fig. 1).
        assert_eq!(t.slot_for(&Id::from_u64(S, 0x42A2_0000)), Some((2, 0xA)));
        assert_eq!(t.slot_for(&Id::from_u64(S, 0x27AB_0000)), Some((0, 2)));
        assert_eq!(t.slot_for(&Id::from_u64(S, 0x4227_0000)), None, "own id");
    }

    #[test]
    fn next_hop_exact_match_descends_self() {
        let t = table(0x4227_0000);
        // Routing toward own ID: all self steps → Root.
        assert_eq!(t.next_hop(&Id::from_u64(S, 0x4227_0000), 0, None), Hop::Root);
    }

    #[test]
    fn next_hop_prefers_exact_digit() {
        let mut t = table(0x4227_0000);
        let a = nref(1, 0x1111_1111);
        let b = nref(2, 0x2222_2222);
        t.add_if_closer(a, 5.0, 3);
        t.add_if_closer(b, 5.0, 3);
        match t.next_hop(&Id::from_u64(S, 0x1ABC_0000), 0, None) {
            Hop::Forward(r, lvl) => {
                assert_eq!(r.idx, 1);
                assert_eq!(lvl, 1);
            }
            h => panic!("unexpected {h:?}"),
        }
    }

    #[test]
    fn next_hop_wraps_to_next_filled_slot() {
        let t = table(0x4227_0000);
        // Target digit 5; no 5,6,…,F entries except nothing until wrapping
        // past F to 0..3 also empty — the first filled slot is the owner's
        // own digit 4 → self step, then deeper levels, all self → Root.
        assert_eq!(t.next_hop(&Id::from_u64(S, 0x5000_0000), 0, None), Hop::Root);
    }

    #[test]
    fn next_hop_surrogate_step_wraps_through_other_node() {
        let mut t = table(0x4227_0000);
        let n9 = nref(3, 0x9ABC_0000);
        t.add_if_closer(n9, 1.0, 3);
        // Target digit 5: slots 5..8 empty, slot 9 filled → surrogate hop to 9ABC.
        match t.next_hop(&Id::from_u64(S, 0x5000_0000), 0, None) {
            Hop::Forward(r, 1) => assert_eq!(r.idx, 3),
            h => panic!("unexpected {h:?}"),
        }
    }

    #[test]
    fn next_hop_excludes_departing_node() {
        let mut t = table(0x4227_0000);
        let a = nref(1, 0x5111_1111);
        t.add_if_closer(a, 5.0, 3);
        match t.next_hop(&Id::from_u64(S, 0x5000_0000), 0, Some(1)) {
            // With node 1 excluded, scan wraps around; the next filled slot
            // holds only the owner's own digit 4 → Root.
            Hop::Root => {}
            h => panic!("unexpected {h:?}"),
        }
    }

    #[test]
    fn remove_node_reports_new_holes() {
        let mut t = table(0x4227_0000);
        let a = nref(1, 0x5111_1111);
        let b = nref(2, 0x5222_2222);
        t.add_if_closer(a, 5.0, 3);
        t.add_if_closer(b, 6.0, 3);
        assert!(t.remove_node(1).is_empty(), "slot still has node 2");
        assert_eq!(t.remove_node(2), vec![(0, 5)], "slot (0,5) became a hole");
    }

    #[test]
    fn occupancy_counts_slots_for_promotion_accounting() {
        let mut t = table(0x4227_0000);
        // 4111… sits in its divergence slot (1,1) and nested N_{ε,4}.
        t.add_if_closer(nref(1, 0x4111_0000), 2.0, 3);
        assert_eq!(t.occupancy(1), 2);
        assert_eq!(t.occupancy(9), 0);
        let occupied = t.occupancy(1);
        let holes = t.remove_node(1).len();
        assert_eq!(occupied - holes, 1, "the N_{{ε,4}} slot kept its owner entry");
    }

    #[test]
    fn level_refs_and_all_refs_exclude_owner() {
        let mut t = table(0x4227_0000);
        // 4111… shares digit "4": divergence slot (1, 1) plus the nested
        // own-digit membership N_{ε,4} at level 0 (§2.1).
        t.add_if_closer(nref(1, 0x4111_0000), 2.0, 3);
        t.add_if_closer(nref(2, 0x9999_0000), 3.0, 3);
        assert_eq!(t.level_refs(0).len(), 2, "9999… at (0,9) and 4111… in N_{{ε,4}}");
        assert_eq!(t.level_refs(1).len(), 1);
        assert_eq!(t.all_refs().len(), 2, "all_refs dedups across slots");
        assert_eq!(t.entry_count(), 3, "4111… occupies two slots");
    }

    #[test]
    fn refs_sorted_by_index_match_refs_sorted_whole() {
        // Ordering whole `NodeRef`s (index, then id) and ordering by the
        // index alone give the same list: an index names one node.
        let mut t = table(0x4227_0000);
        let mut v = 0x9E37_79B9u64;
        for idx in 1..400 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Half the ids share the owner's first digit, so nested
            // own-digit slots repeat nodes across levels.
            let id = if idx % 2 == 0 { 0x4000_0000 | (v >> 36) } else { v >> 32 };
            t.add_if_closer(nref(idx, id), (v % 1000) as f64, 3);
        }
        let whole = |mut refs: Vec<NodeRef>| {
            refs.sort();
            refs.dedup();
            refs
        };
        assert!(t.refs().count() > t.all_refs().len(), "some node sits in two slots");
        assert_eq!(t.all_refs(), whole(t.refs().collect()));
        for l in 0..t.levels() {
            let level: Vec<NodeRef> = (0..16u8)
                .flat_map(|j| t.slot(l, j).iter().collect::<Vec<_>>())
                .filter(|r| r.idx != 0)
                .collect();
            assert_eq!(t.level_refs(l), whole(level), "level {l}");
        }
    }

    #[test]
    fn nested_sets_expose_nearest_same_digit_node_at_level0() {
        // §2.1: the closest entry of ∪_j N_{ε,j} must be the true nearest
        // neighbor even when it shares a prefix with the owner.
        let mut t = table(0x4227_0000);
        let near = nref(1, 0x4229_0000); // shares "422", very close
        let far = nref(2, 0x9999_0000);
        t.add_if_closer(near, 1.0, 3);
        t.add_if_closer(far, 50.0, 3);
        let level0: Vec<_> = (0..16u8).flat_map(|j| t.slot(0, j).iter()).collect();
        assert!(level0.contains(&near), "prefix-sharing NN visible at level 0");
        // The owner remains the primary of its own-digit slot, so routing
        // still resolves the self step.
        assert_eq!(t.slot(0, 4).primary(None).unwrap().idx, 0);
    }

    #[test]
    fn holes_at_counts_empty_slots() {
        let t = table(0x4227_0000);
        // Level 0: only the owner's digit-4 slot is filled → 15 holes.
        assert_eq!(t.holes_at(0).len(), 15);
    }

    #[test]
    fn digit_match_bits_counts_leading_agreement() {
        // 4-bit digits: 0b0101 vs 0b0100 agree on the top 3 bits.
        assert_eq!(digit_match_bits(0b0101, 0b0100, 16), 3);
        assert_eq!(digit_match_bits(0xA, 0xA, 16), 4);
        assert_eq!(digit_match_bits(0b0000, 0b1000, 16), 0);
        assert_eq!(digit_match_bits(0b0110, 0b0111, 16), 3);
    }

    #[test]
    fn prr_hop_exact_digit_before_hole() {
        let mut t = table(0x4227_0000);
        let a = nref(1, 0x5111_1111);
        t.add_if_closer(a, 5.0, 3);
        let (hop, past) = t.next_hop_prr(&Id::from_u64(S, 0x5000_0000), 0, None, false);
        assert_eq!(hop, Hop::Forward(a, 1));
        assert!(!past, "exact match does not cross a hole");
    }

    #[test]
    fn prr_hop_first_hole_picks_most_matching_bits() {
        let mut t = table(0x4227_0000);
        // Desired digit 0b1000 (8) is a hole; candidates: digit 9 (0b1001,
        // 3 matching bits) and digit 1 (0b0001, 0 matching bits).
        let d9 = nref(1, 0x9111_1111);
        let d1 = nref(2, 0x1222_2222);
        t.add_if_closer(d9, 5.0, 3);
        t.add_if_closer(d1, 5.0, 3);
        let (hop, past) = t.next_hop_prr(&Id::from_u64(S, 0x8000_0000), 0, None, false);
        assert_eq!(hop, Hop::Forward(d9, 1), "0b1001 shares 3 leading bits with 0b1000");
        assert!(past, "the hole was crossed");
    }

    #[test]
    fn prr_hop_after_hole_takes_highest_digit() {
        let mut t = table(0x4227_0000);
        let d9 = nref(1, 0x9111_1111);
        let dc = nref(2, 0xC222_2222);
        t.add_if_closer(d9, 5.0, 3);
        t.add_if_closer(dc, 5.0, 3);
        // Already past a hole: ignore the target digit entirely, go to the
        // numerically highest filled digit (C > 9 > owner's 4).
        let (hop, past) = t.next_hop_prr(&Id::from_u64(S, 0x0000_0000), 0, None, true);
        assert_eq!(hop, Hop::Forward(dc, 1));
        assert!(past);
    }

    #[test]
    fn prr_hop_terminates_at_root() {
        let t = table(0x4227_0000);
        // Only self entries: every level resolves through the owner.
        let (hop, _) = t.next_hop_prr(&Id::from_u64(S, 0x5000_0000), 0, None, false);
        assert_eq!(hop, Hop::Root);
    }

    #[test]
    #[should_panic(expected = "at most 65535 entries")]
    fn a_table_past_its_offset_width_fails_loudly() {
        // One self entry + 65 535 offered = one more than `ends` can
        // address; refused before anything is stored.
        let mut t = RoutingTable::new(nref(0, 0x4227_0000), 16, 1);
        let many = (1..1 + u16::MAX as usize).map(|i| (nref(i, 0x5000_0000 + i as u64), 1.0));
        t.extend_unbounded(0, 5, many);
    }

    // ---------------- model test: the layout this table replaced ----------------

    #[derive(Debug, Clone, Copy)]
    struct ModelEntry {
        nref: NodeRef,
        dist: f64,
        pinned: bool,
    }

    /// One owned, sorted `Vec` per slot — the previous representation,
    /// with its mutation logic kept verbatim as the reference.
    struct Model {
        owner: NodeRef,
        base: usize,
        levels: usize,
        slots: Vec<Vec<ModelEntry>>,
    }

    fn model_sort(slot: &mut [ModelEntry]) {
        slot.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.nref.idx.cmp(&b.nref.idx)));
    }

    fn model_offer(slot: &mut Vec<ModelEntry>, nref: NodeRef, dist: f64, cap: usize) -> AddOutcome {
        if let Some(e) = slot.iter_mut().find(|e| e.nref.idx == nref.idx) {
            e.dist = dist;
            model_sort(slot);
            return AddOutcome::AlreadyPresent;
        }
        let filled_hole = slot.is_empty();
        if slot.iter().filter(|e| !e.pinned).count() >= cap {
            let farthest = slot
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.pinned)
                // Sorted by (dist, idx) and max_by keeps the last of
                // equals: the highest (dist, idx) without a .then.
                // tapestry-lint: allow(float-tiebreak)
                .max_by(|a, b| a.1.dist.partial_cmp(&b.1.dist).unwrap())
                .map(|(i, _)| i)
                .expect("unpinned >= capacity >= 1");
            if slot[farthest].dist <= dist {
                return AddOutcome::Rejected;
            }
            let evicted = slot.remove(farthest).nref;
            slot.push(ModelEntry { nref, dist, pinned: false });
            model_sort(slot);
            return AddOutcome::Added { evicted: Some(evicted), filled_hole: false };
        }
        slot.push(ModelEntry { nref, dist, pinned: false });
        model_sort(slot);
        AddOutcome::Added { evicted: None, filled_hole }
    }

    impl Model {
        fn new(owner: NodeRef, base: usize, levels: usize) -> Self {
            let mut m = Model { owner, base, levels, slots: vec![Vec::new(); base * levels] };
            for l in 0..levels {
                model_offer(
                    &mut m.slots[l * base + owner.id.digit(l) as usize],
                    owner,
                    0.0,
                    usize::MAX,
                );
            }
            m
        }

        fn slot_of(&mut self, other: &Id) -> Option<&mut Vec<ModelEntry>> {
            let p = self.owner.id.shared_prefix_len(other);
            (p < self.levels).then(|| &mut self.slots[p * self.base + other.digit(p) as usize])
        }

        fn add_if_closer(&mut self, other: NodeRef, dist: f64, cap: usize) -> (bool, Vec<NodeRef>) {
            let p = self.owner.id.shared_prefix_len(&other.id);
            let (mut newly_added, mut evicted) = (false, Vec::new());
            if p >= self.levels {
                return (newly_added, evicted);
            }
            for l in 0..=p {
                let slot = &mut self.slots[l * self.base + other.id.digit(l) as usize];
                if let AddOutcome::Added { evicted: e, .. } = model_offer(slot, other, dist, cap) {
                    newly_added = true;
                    evicted.extend(e);
                }
            }
            (newly_added, evicted)
        }

        fn add_pinned(&mut self, other: NodeRef, dist: f64) {
            let Some(slot) = self.slot_of(&other.id) else { return };
            match slot.iter_mut().find(|e| e.nref.idx == other.idx) {
                Some(e) => e.pinned = true,
                None => {
                    slot.push(ModelEntry { nref: other, dist, pinned: true });
                    model_sort(slot);
                }
            }
        }

        fn unpin(&mut self, other: &NodeRef) {
            if let Some(e) =
                self.slot_of(&other.id).and_then(|s| s.iter_mut().find(|e| e.nref.idx == other.idx))
            {
                e.pinned = false;
            }
        }

        fn remove_node(&mut self, idx: NodeIdx) -> Vec<(usize, u8)> {
            let mut new_holes = Vec::new();
            for (s, slot) in self.slots.iter_mut().enumerate() {
                let before = slot.len();
                slot.retain(|e| e.nref.idx != idx);
                if slot.len() != before && slot.is_empty() {
                    new_holes.push((s / self.base, (s % self.base) as u8));
                }
            }
            new_holes
        }

        fn extend_unbounded(&mut self, level: usize, digit: u8, closest: &[(NodeRef, f64)]) {
            let slot = &mut self.slots[level * self.base + digit as usize];
            slot.extend(closest.iter().map(|&(nref, dist)| ModelEntry {
                nref,
                dist,
                pinned: false,
            }));
            model_sort(slot);
        }

        fn others(&self, slots: std::ops::Range<usize>) -> Vec<NodeRef> {
            let all = self.slots[slots].iter().flatten().map(|e| e.nref);
            all.filter(|r| r.idx != self.owner.idx).collect()
        }

        fn next_hop(&self, target: &Id, mut level: usize, exclude: Option<NodeIdx>) -> Hop {
            while level < self.levels {
                let want = target.digit(level) as usize;
                let primary = (0..self.base).find_map(|off| {
                    let slot = &self.slots[level * self.base + (want + off) % self.base];
                    slot.iter().find(|e| Some(e.nref.idx) != exclude).map(|e| e.nref)
                });
                match primary {
                    None => return Hop::Root,
                    Some(p) if p.idx == self.owner.idx => level += 1,
                    Some(p) => return Hop::Forward(p, level + 1),
                }
            }
            Hop::Root
        }
    }

    /// The flat layout's own invariants.
    fn debug_validate(t: &RoutingTable) {
        assert_eq!(t.ends.len(), t.base() * t.levels());
        assert!(t.ends.windows(2).all(|w| w[0] <= w[1]), "offsets are monotone");
        assert_eq!(
            t.ends.last().map(|&e| e as usize),
            Some(t.entries.len()),
            "and end at the length"
        );
        for l in 0..t.levels() {
            for j in 0..t.base() as u8 {
                let slot = t.slot(l, j).entries;
                assert!(
                    slot.windows(2).all(|w| Entry::order(&w[0], &w[1]).is_lt()),
                    "slot ({l},{j}) is sorted by (dist, idx)"
                );
                for (i, e) in slot.iter().enumerate() {
                    let r = e.nref();
                    assert!(!slot[..i].iter().any(|o| o.is(r.idx)), "{r} twice in slot ({l},{j})");
                    assert!(
                        r.id.shared_prefix_len(&t.owner.id) >= l && r.id.digit(l) == j,
                        "{r} does not belong in slot ({l},{j}) of {}",
                        t.owner
                    );
                }
            }
        }
    }

    fn by_idx(mut refs: Vec<NodeRef>) -> Vec<NodeRef> {
        refs.sort();
        refs.dedup();
        refs
    }

    /// Everything observable about the table equals the model's.
    fn assert_same(t: &RoutingTable, m: &Model, rng: &mut impl rand::Rng, ids: &[NodeRef]) {
        debug_validate(t);
        let (base, levels) = (m.base, m.levels);
        for l in 0..levels {
            for j in 0..base {
                let got: Vec<_> = t
                    .slot(l, j as u8)
                    .entries
                    .iter()
                    .map(|e| (e.nref(), e.dist.to_bits(), e.pinned))
                    .collect();
                let want: Vec<_> = m.slots[l * base + j]
                    .iter()
                    .map(|e| (e.nref, e.dist.to_bits(), e.pinned))
                    .collect();
                assert_eq!(got, want, "slot ({l},{j})");
            }
            assert_eq!(t.level_refs(l), by_idx(m.others(l * base..(l + 1) * base)), "level {l}");
        }
        let all = m.others(0..base * levels);
        assert_eq!(t.entry_count(), all.len());
        assert_eq!(t.refs().collect::<Vec<_>>(), all);
        assert_eq!(t.all_refs(), by_idx(all));
        for r in ids {
            let occupancy =
                m.slots.iter().filter(|s| s.iter().any(|e| e.nref.idx == r.idx)).count();
            assert_eq!(t.occupancy(r.idx), occupancy);
            assert_eq!(t.contains(r.idx), occupancy > 0);
        }
        for _ in 0..16 {
            let target = ids[rng.gen_range(0..ids.len())].id;
            let level = rng.gen_range(0..levels);
            let exclude = rng.gen_bool(0.3).then(|| ids[rng.gen_range(0..ids.len())].idx);
            assert_eq!(t.next_hop(&target, level, exclude), m.next_hop(&target, level, exclude));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random mutation sequences leave the flat table and the
        /// per-slot model in the same state, with the same return values.
        #[test]
        fn flat_table_matches_the_per_slot_model(seed in 0u64..u64::MAX, steps in 20usize..120) {
            use rand::{Rng, SeedableRng};
            // A 4 × 4 mesh over 256 names: prefixes collide often, so
            // the nested own-digit slots and evictions see real traffic.
            let space = IdSpace::new(4, 4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ids: Vec<NodeRef> =
                (0..256usize).map(|v| NodeRef::new(v, Id::from_u64(space, v as u64))).collect();
            let owner = ids[rng.gen_range(0..ids.len())];
            let mut t = RoutingTable::new(owner, 4, 4);
            let mut m = Model::new(owner, 4, 4);
            assert_same(&t, &m, &mut rng, &ids);
            for _ in 0..steps {
                let r = ids[rng.gen_range(0..ids.len())];
                // Few distinct values: equal distances are the common case.
                let dist = [0.0, 1.0, 1.0, 2.0, 2.5, 4.0][rng.gen_range(0..6usize)];
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let cap = rng.gen_range(1..=4);
                        let got = t.add_if_closer(r, dist, cap);
                        assert_eq!((got.newly_added, got.evicted), m.add_if_closer(r, dist, cap));
                    }
                    5 => {
                        t.add_pinned(r, dist);
                        m.add_pinned(r, dist);
                    }
                    6 => {
                        t.unpin(&r);
                        m.unpin(&r);
                    }
                    7 | 8 => assert_eq!(t.remove_node(r.idx), m.remove_node(r.idx)),
                    _ => {
                        // Up to three nodes of one slot that are not in it yet.
                        let (l, j) = (rng.gen_range(0..4usize), rng.gen_range(0..4u8));
                        let mut fresh: Vec<(NodeRef, f64)> = Vec::new();
                        for _ in 0..3 {
                            let c = ids[rng.gen_range(0..ids.len())];
                            let fits = c.idx != owner.idx
                                && c.id.shared_prefix_len(&owner.id) >= l
                                && c.id.digit(l) == j;
                            let held = t.slot(l, j).contains(c.idx) || fresh.iter().any(|f| f.0 == c);
                            if fits && !held {
                                fresh.push((c, dist + fresh.len() as f64 * 0.5));
                            }
                        }
                        t.extend_unbounded(l, j, fresh.iter().copied());
                        m.extend_unbounded(l, j, &fresh);
                    }
                }
                assert_same(&t, &m, &mut rng, &ids);
            }
        }
    }
}

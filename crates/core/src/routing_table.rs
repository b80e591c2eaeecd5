use crate::neighbor_set::{AddOutcome, NeighborSet};
use crate::refs::NodeRef;
use tapestry_id::{Id, Prefix};
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
#[derive(Debug, Clone)]
pub struct RoutingTable {
    owner: NodeRef,
    base: usize,
    levels: usize,
    slots: Vec<NeighborSet>,
}

impl RoutingTable {
    /// A fresh table containing only the owner's self entries.
    pub fn new(owner: NodeRef, base: usize, levels: usize) -> Self {
        let mut slots = Vec::with_capacity(base * levels);
        slots.resize_with(base * levels, NeighborSet::new);
        let mut t = RoutingTable { owner, base, levels, slots };
        for l in 0..levels {
            let j = owner.id.digit(l);
            t.slot_mut(l, j).add_if_closer(owner, 0.0, usize::MAX);
        }
        t
    }

    /// The owner of this table.
    pub fn owner(&self) -> NodeRef {
        self.owner
    }

    /// Digit radix.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Immutable slot access.
    pub fn slot(&self, level: usize, digit: u8) -> &NeighborSet {
        &self.slots[level * self.base + digit as usize]
    }

    /// Mutable slot access.
    pub fn slot_mut(&mut self, level: usize, digit: u8) -> &mut NeighborSet {
        &mut self.slots[level * self.base + digit as usize]
    }

    /// The slot (level, digit) where `other` belongs in this table:
    /// level = length of the shared prefix, digit = `other`'s digit there.
    /// `None` for the owner itself or an ID identical to the owner's.
    pub fn slot_for(&self, other: &Id) -> Option<(usize, u8)> {
        let p = self.owner.id.shared_prefix_len(other);
        if p >= self.levels {
            return None;
        }
        Some((p, other.digit(p)))
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
        let Some((p, j)) = self.slot_for(&other.id) else {
            return outcome;
        };
        let mut offer = |slot: &mut NeighborSet| match slot.add_if_closer(other, dist, capacity) {
            AddOutcome::Added { evicted, .. } => {
                outcome.newly_added = true;
                if let Some(e) = evicted {
                    outcome.evicted.push(e);
                }
            }
            AddOutcome::AlreadyPresent | AddOutcome::Rejected => {}
        };
        for l in 0..p {
            offer(&mut self.slots[l * self.base + other.id.digit(l) as usize]);
        }
        offer(&mut self.slots[p * self.base + j as usize]);
        outcome
    }

    /// Insert `other` pinned (multicast in progress, §4.4).
    pub fn add_pinned(&mut self, other: NodeRef, dist: f64) {
        if let Some((l, j)) = self.slot_for(&other.id) {
            self.slot_mut(l, j).add_pinned(other, dist);
        }
    }

    /// Unpin `other` everywhere it could be pinned.
    pub fn unpin(&mut self, other: &NodeRef) {
        if let Some((l, j)) = self.slot_for(&other.id) {
            self.slot_mut(l, j).unpin(other.idx);
        }
    }

    /// Remove a departed node from every slot. Returns the slots that
    /// became holes — each is a potential Property 1 violation the caller
    /// must repair or justify (no matching nodes remain anywhere).
    pub fn remove_node(&mut self, idx: NodeIdx) -> Vec<(usize, u8)> {
        let mut new_holes = Vec::new();
        for l in 0..self.levels {
            for j in 0..self.base as u8 {
                let s = self.slot_mut(l, j);
                if s.remove(idx) && s.is_empty() {
                    new_holes.push((l, j));
                }
            }
        }
        new_holes
    }

    /// Does any slot reference `idx`?
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.slots.iter().any(|s| s.contains(idx))
    }

    /// Number of slots referencing `idx` — removal's backup-promotion
    /// accounting (slots occupied minus holes created = slots where a
    /// backup entry was promoted to primary, §3 redundancy).
    pub fn occupancy(&self, idx: NodeIdx) -> usize {
        self.slots.iter().filter(|s| s.contains(idx)).count()
    }

    /// Every slot entry other than the owner's self entries, slot by slot
    /// (a node in several slots is yielded once per slot).
    pub fn refs(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.slots.iter().flat_map(|s| s.iter()).filter(|r| r.idx != self.owner.idx)
    }

    /// Every distinct node referenced by the table (excluding the owner),
    /// ascending by index.
    pub fn all_refs(&self) -> Vec<NodeRef> {
        distinct_by_idx(self.refs().collect())
    }

    /// Neighbors at one level (the forward pointers `GetNextList` asks
    /// for), excluding the owner, ascending by index.
    pub fn level_refs(&self, level: usize) -> Vec<NodeRef> {
        distinct_by_idx(
            (0..self.base as u8)
                .flat_map(|j| self.slot(level, j).iter())
                .filter(|r| r.idx != self.owner.idx)
                .collect(),
        )
    }

    /// Total number of neighbor entries (the paper's space measure),
    /// excluding self entries.
    pub fn entry_count(&self) -> usize {
        self.refs().count()
    }

    /// Slots at `level` that are empty — candidate holes for the watch
    /// list of Fig. 11.
    pub fn holes_at(&self, level: usize) -> Vec<u8> {
        (0..self.base as u8).filter(|&j| self.slot(level, j).is_empty()).collect()
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
        // One bounds check up front; per-level digit access is then a
        // plain slice read (the digits were materialized when the Id was
        // built — nothing is unpacked per hop).
        let digits = target.digits();
        while level < self.levels {
            let want = digits[level] as usize;
            let mut chosen = None;
            for off in 0..self.base {
                let j = ((want + off) % self.base) as u8;
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
        let digits = target.digits();
        while level < self.levels {
            let choice = if past_hole {
                // Numerically highest filled digit.
                (0..self.base as u8)
                    .rev()
                    .find_map(|j| self.slot(level, j).primary(exclude).map(|p| (j, p)))
            } else {
                let want = digits[level];
                match self.slot(level, want).primary(exclude) {
                    Some(p) => Some((want, p)),
                    None => {
                        // First hole: most significant matching bits, ties
                        // to the numerically higher digit.
                        past_hole = true;
                        (0..self.base as u8)
                            .filter_map(|j| self.slot(level, j).primary(exclude).map(|p| (j, p)))
                            .max_by_key(|&(j, _)| (digit_match_bits(want, j, self.base), j))
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

    /// Check that this table and `peer`'s table agree on the
    /// empty/non-empty pattern at the level of their common prefix — the
    /// exact condition Theorem 2's proof requires of Property 1.
    pub fn consistent_with(&self, peer: &RoutingTable) -> bool {
        let p = self.owner.id.shared_prefix_len(&peer.owner.id);
        if p >= self.levels {
            return true;
        }
        (0..self.base as u8).all(|j| self.slot(p, j).is_empty() == peer.slot(p, j).is_empty())
    }

    /// The prefix naming slot `(level, digit)`: `owner[0..level] · digit`.
    pub fn slot_prefix(&self, level: usize, digit: u8) -> Prefix {
        self.owner.id.prefix(level).extend(digit)
    }
}

/// Sort by node index and drop repeats. The index alone identifies a
/// node, so the 18-byte `Id` never enters a comparison.
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
    fn consistency_check_compares_hole_patterns() {
        let mut a = RoutingTable::new(nref(0, 0x4227_0000), 16, 8);
        let mut b = RoutingTable::new(nref(1, 0x42A2_0000), 16, 8);
        // Both know a (42, 5) node → same pattern at level 2 once mutual
        // entries are added.
        let c = nref(2, 0x4250_0000);
        a.add_if_closer(c, 1.0, 3);
        b.add_if_closer(c, 1.0, 3);
        a.add_if_closer(b.owner(), 1.0, 3);
        b.add_if_closer(a.owner(), 1.0, 3);
        assert!(a.consistent_with(&b));
        // Now a learns of a (42, 6) node that b does not know: inconsistent.
        a.add_if_closer(nref(3, 0x4260_0000), 1.0, 3);
        assert!(!a.consistent_with(&b));
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
}

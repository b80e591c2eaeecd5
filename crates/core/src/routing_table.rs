use crate::neighbor_set::{AddOutcome, Entry, Ruler, Slot};
use crate::refs::{idx32, Names, NodeRef, GROW_STEP};
use std::fmt;
use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;
use tapestry_id::Id;
use tapestry_metric::MetricSpace;
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
/// (from 0 for `s = 0`), each sorted by the owner's distance to the
/// entry, ties by address. A hole costs its two bytes of `ends` and
/// nothing else. An entry holds an address and a pin flag; the names
/// live once, in the shared [`Names`] directory, and a distance is read
/// from the shared metric when an offer or a caller needs one.
#[derive(Clone)]
pub struct RoutingTable {
    names: Names,
    metric: Arc<dyn MetricSpace>,
    entries: Vec<Entry>,
    ends: Box<[u16]>,
    owner: u32,
    base: u8,
    levels: u8,
}

/// Terse: the directory's size and the metric's name, then the layout.
impl fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutingTable")
            .field("names", &self.names)
            .field("metric", &self.metric.name())
            .field("entries", &self.entries)
            .field("ends", &self.ends)
            .field("owner", &self.owner)
            .finish()
    }
}

impl RoutingTable {
    /// A fresh table for point `owner`, named by `names`, measuring
    /// distances in `metric`, containing only the owner's self entries.
    pub fn new(
        names: Names,
        metric: Arc<dyn MetricSpace>,
        owner: NodeIdx,
        base: usize,
        levels: usize,
    ) -> Self {
        let me = names.nref(owner);
        let mut table = RoutingTable {
            owner: idx32(owner),
            base: u8::try_from(base).expect("a digit is a u8, so base <= 255"),
            levels: u8::try_from(levels).expect("an Id has at most 16 digits"),
            entries: Vec::with_capacity(levels),
            ends: vec![0; base * levels].into(),
            names,
            metric,
        };
        for l in 0..levels {
            let own = Entry::new(me, false, &table.names);
            table.insert_sorted(table.index(l, me.id.digit(l)), own, 0.0);
        }
        table
    }

    /// The owner of this table.
    pub fn owner(&self) -> NodeRef {
        self.names.nref(self.owner_idx())
    }

    #[inline]
    fn owner_idx(&self) -> NodeIdx {
        self.owner as NodeIdx
    }

    /// The directory the table reads its neighbors' names from.
    pub(crate) fn names(&self) -> &Names {
        &self.names
    }

    /// Digit radix.
    pub fn base(&self) -> usize {
        self.base as usize
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels as usize
    }

    /// Distances from the owner.
    #[inline]
    pub(crate) fn ruler(&self) -> Ruler<'_> {
        Ruler { metric: &*self.metric, owner: self.owner_idx() }
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
        Slot {
            entries: &self.entries[self.span(s, s + 1)],
            names: &self.names,
            ruler: self.ruler(),
        }
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

    /// Put `new`, at distance `dist` from the owner, into slot `s` at its
    /// `(dist, idx)` place.
    fn insert_sorted(&mut self, s: usize, new: Entry, dist: f64) {
        self.make_room(1);
        let (span, ruler, key) = (self.span(s, s + 1), self.ruler(), (dist, new.idx()));
        let at = self.entries[span.clone()].partition_point(|&e| ruler.key(e) < key);
        self.entries.insert(span.start + at, new);
        self.ends[s..].iter_mut().for_each(|end| *end += 1);
    }

    /// The slot (level, digit) where `other` belongs in this table:
    /// level = length of the shared prefix, digit = `other`'s digit there.
    /// `None` for the owner itself or an ID identical to the owner's.
    pub fn slot_for(&self, other: &Id) -> Option<(usize, u8)> {
        let p = self.names[self.owner_idx()].shared_prefix_len(other);
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
    ///
    /// `other`'s name must be the directory's; a disagreeing name panics.
    /// Its distance is the metric's, read only where a full slot must
    /// compare it.
    pub fn add_if_closer(&mut self, other: NodeRef, capacity: usize) -> TableAddOutcome {
        let new = Entry::new(other, false, &self.names);
        let mut outcome = TableAddOutcome::default();
        let Some((p, _)) = self.slot_for(&other.id) else {
            return outcome;
        };
        let dist = self.ruler().dist(new);
        for l in 0..=p {
            let s = self.index(l, other.id.digit(l));
            if let AddOutcome::Added { evicted, .. } = self.offer(s, new, dist, capacity) {
                outcome.newly_added = true;
                outcome.evicted.extend(evicted);
            }
        }
        outcome
    }

    /// Offer `new`, at distance `dist` from the owner, to slot `s` alone;
    /// keep the closest `cap` entries (`AddToTableIfCloser`). Pinned
    /// entries never count against eviction and are never evicted.
    pub(crate) fn offer(&mut self, s: usize, new: Entry, dist: f64, cap: usize) -> AddOutcome {
        let span = self.span(s, s + 1);
        let ruler = Ruler { metric: &*self.metric, owner: self.owner_idx() };
        let slot = &mut self.entries[span];
        if slot.iter().any(|e| e.is(new.idx())) {
            return AddOutcome::AlreadyPresent;
        }
        if slot.iter().filter(|e| !e.pinned()).count() >= cap {
            // Full: admit only if closer than the farthest unpinned
            // entry — the last one, the slot being sorted by (dist, idx).
            let far = slot.iter().rposition(|e| !e.pinned()).expect("unpinned >= capacity >= 1");
            if ruler.dist(slot[far]) <= dist {
                return AddOutcome::Rejected;
            }
            // `new` is closer than the evictee, so its place lies at or
            // before the evictee's: shift the entries in between back.
            let evicted = std::mem::replace(&mut slot[far], new).nref(&self.names);
            let at = slot[..far].partition_point(|&e| ruler.key(e) < (dist, new.idx()));
            slot[at..=far].rotate_right(1);
            return AddOutcome::Added { evicted: Some(evicted), filled_hole: false };
        }
        let filled_hole = slot.is_empty();
        self.insert_sorted(s, new, dist);
        AddOutcome::Added { evicted: None, filled_hole }
    }

    /// Append `closest` — nodes not yet in slot `(level, digit)`, each
    /// ordered after what the slot already holds and after the one before
    /// it — with no capacity bound: what offering each in turn with
    /// unbounded capacity leaves. The static builder's fills arrive that
    /// way (slot by slot, digits ascending, each slot's answer in
    /// `(distance, index)` order behind the owner's self entry), so no
    /// distance is read; debug builds check the order.
    pub(crate) fn extend_unbounded(
        &mut self,
        level: usize,
        digit: u8,
        closest: impl ExactSizeIterator<Item = NodeRef>,
    ) {
        let s = self.index(level, digit);
        let n = closest.len();
        self.make_room(n);
        let (end, names) = (self.span(s, s + 1).end, &self.names);
        self.entries.splice(end..end, closest.map(|nref| Entry::new(nref, false, names)));
        let added = u16::try_from(n).expect("make_room bounds the table");
        self.ends[s..].iter_mut().for_each(|end| *end += added);
        #[cfg(debug_assertions)]
        {
            let (slot, ruler) = (self.slot(level, digit).entries, self.ruler());
            assert!(
                slot.windows(2).all(|w| ruler.key(w[0]) < ruler.key(w[1])),
                "slot ({level},{digit}) extended out of (distance, index) order"
            );
        }
    }

    /// Insert `other` pinned (multicast in progress, §4.4). If already
    /// present it becomes pinned in place.
    pub fn add_pinned(&mut self, other: NodeRef) {
        let new = Entry::new(other, true, &self.names);
        let Some((l, j)) = self.slot_for(&other.id) else { return };
        let s = self.index(l, j);
        match self.slot_entries(s).iter_mut().find(|e| e.is(other.idx)) {
            Some(e) => e.set_pinned(true),
            None => self.insert_sorted(s, new, self.ruler().dist(new)),
        }
    }

    /// Unpin `other` (its introducing multicast was acknowledged). The
    /// entry remains as a regular neighbor; a later `add_if_closer` may
    /// evict it normally.
    pub fn unpin(&mut self, other: &NodeRef) {
        self.names.check(*other);
        let Some((l, j)) = self.slot_for(&other.id) else { return };
        let s = self.index(l, j);
        if let Some(e) = self.slot_entries(s).iter_mut().find(|e| e.is(other.idx)) {
            e.set_pinned(false);
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
        let owner = self.owner_idx();
        self.entries[span].iter().filter(move |e| !e.is(owner)).map(|e| e.nref(&self.names))
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
    /// Before scanning a level, the entries of that level and every deeper
    /// one (the tail of `entries` from the level's first slot) are checked:
    /// when they are all the owner's, or there are none, every remaining
    /// digit resolves to the owner — or to nothing — whatever the target
    /// and `exclude`, so `Root` is returned at once. The owner sits at most
    /// once per level, so a tail longer than the levels left is skipped
    /// unread. At a message's root, where the deep levels hold only the
    /// owner, this replaces up to `base` probes per level.
    ///
    /// `exclude` routes around a departing node (§5.1). Slots are scanned
    /// by address; the one name read is the returned neighbor's.
    pub fn next_hop(&self, target: &Id, mut level: usize, exclude: Option<NodeIdx>) -> Hop {
        let (base, owner) = (self.base(), self.owner_idx());
        while level < self.levels() {
            let first = level * base;
            let lo = if first == 0 { 0 } else { self.ends[first - 1] as usize };
            let tail = &self.entries[lo..];
            if tail.len() <= self.levels() - level && tail.iter().all(|e| e.is(owner)) {
                return Hop::Root;
            }
            // Probe the level's slots from the target's digit, wrapping;
            // slot `j` is `entries[start..ends[first + j]]`.
            let mut j = target.digit(level) as usize;
            let mut start = if j == 0 { lo } else { self.ends[first + j - 1] as usize };
            let mut chosen = None;
            for _ in 0..base {
                let end = self.ends[first + j] as usize;
                let slot = &self.entries[start..end];
                chosen = slot.iter().map(|e| e.idx()).find(|&p| Some(p) != exclude);
                if chosen.is_some() {
                    break;
                }
                (j, start) = if j + 1 == base { (0, lo) } else { (j + 1, end) };
            }
            match chosen {
                // With self entries present, some slot is always filled
                // unless `exclude` emptied the whole level *and* the owner
                // is excluded — the excluded owner handles that case by
                // scanning as if it were absent, so `None` means the owner
                // itself is the only remaining candidate: treat as root.
                None => return Hop::Root,
                Some(p) if p == owner => {
                    // Self step: the owner is the closest (α, j) node.
                    level += 1;
                }
                Some(p) => return Hop::Forward(self.names.nref(p), level + 1),
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
                    .find_map(|j| self.slot(level, j).primary_idx(exclude).map(|p| (j, p)))
            } else {
                let want = target.digit(level);
                match self.slot(level, want).primary_idx(exclude) {
                    Some(p) => Some((want, p)),
                    None => {
                        // First hole: most significant matching bits, ties
                        // to the numerically higher digit.
                        past_hole = true;
                        (0..self.base() as u8)
                            .filter_map(|j| {
                                self.slot(level, j).primary_idx(exclude).map(|p| (j, p))
                            })
                            .max_by_key(|&(j, _)| (digit_match_bits(want, j, self.base()), j))
                    }
                }
            };
            match choice {
                None => return (Hop::Root, past_hole),
                Some((_, p)) if p == self.owner_idx() => level += 1,
                Some((_, p)) => return (Hop::Forward(self.names.nref(p), level + 1), past_hole),
            }
        }
        (Hop::Root, past_hole)
    }
}

/// `at[i]` as point `i`'s place on a line: a real metric whose
/// distances a test reads off.
#[cfg(test)]
pub(crate) fn line(at: &[f64]) -> Arc<dyn MetricSpace> {
    let on_axis = at.iter().map(|&x| (x, 0.0)).collect();
    Arc::new(tapestry_metric::TorusSpace::from_points(on_axis, 1e9))
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

    /// A directory naming point `i` `vals[i]`.
    fn names(vals: &[u64]) -> Names {
        Names::new(vals.iter().map(|&v| Id::from_u64(S, v)).collect())
    }

    /// Point `i` at distance `i` from point 0, on a line.
    fn spaced(n: usize) -> Arc<dyn MetricSpace> {
        line(&(0..n).map(|i| i as f64).collect::<Vec<_>>())
    }

    /// A 16 × 8 table owned by point 0 of `names(vals)`, point `i` at
    /// distance `i` from it, and every point of that directory.
    fn mesh(vals: &[u64]) -> (RoutingTable, Vec<NodeRef>) {
        let names = names(vals);
        let refs = (0..vals.len()).map(|i| names.nref(i)).collect();
        (RoutingTable::new(names, spaced(vals.len()), 0, 16, 8), refs)
    }

    fn table(v: u64) -> RoutingTable {
        mesh(&[v]).0
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
        let (mut t, r) = mesh(&[0x4227_0000, 0x1111_1111, 0x2222_2222]);
        let (a, b) = (r[1], r[2]);
        t.add_if_closer(a, 3);
        t.add_if_closer(b, 3);
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
        let (mut t, r) = mesh(&[0x4227_0000, 0x9ABC_0000]);
        t.add_if_closer(r[1], 3);
        // Target digit 5: slots 5..8 empty, slot 9 filled → surrogate hop to 9ABC.
        match t.next_hop(&Id::from_u64(S, 0x5000_0000), 0, None) {
            Hop::Forward(hop, 1) => assert_eq!(hop, r[1]),
            h => panic!("unexpected {h:?}"),
        }
    }

    #[test]
    fn next_hop_excludes_departing_node() {
        let (mut t, r) = mesh(&[0x4227_0000, 0x5111_1111]);
        t.add_if_closer(r[1], 3);
        match t.next_hop(&Id::from_u64(S, 0x5000_0000), 0, Some(1)) {
            // With node 1 excluded, scan wraps around; the next filled slot
            // holds only the owner's own digit 4 → Root.
            Hop::Root => {}
            h => panic!("unexpected {h:?}"),
        }
    }

    #[test]
    fn remove_node_reports_new_holes() {
        let (mut t, r) = mesh(&[0x4227_0000, 0x5111_1111, 0x5222_2222]);
        t.add_if_closer(r[1], 3);
        t.add_if_closer(r[2], 3);
        assert!(t.remove_node(1).is_empty(), "slot still has node 2");
        assert_eq!(t.remove_node(2), vec![(0, 5)], "slot (0,5) became a hole");
    }

    #[test]
    fn occupancy_counts_slots_for_promotion_accounting() {
        let (mut t, r) = mesh(&[0x4227_0000, 0x4111_0000]);
        // 4111… sits in its divergence slot (1,1) and nested N_{ε,4}.
        t.add_if_closer(r[1], 3);
        assert_eq!(t.occupancy(1), 2);
        assert_eq!(t.occupancy(9), 0);
        let occupied = t.occupancy(1);
        let holes = t.remove_node(1).len();
        assert_eq!(occupied - holes, 1, "the N_{{ε,4}} slot kept its owner entry");
    }

    #[test]
    fn level_refs_and_all_refs_exclude_owner() {
        let (mut t, r) = mesh(&[0x4227_0000, 0x4111_0000, 0x9999_0000]);
        // 4111… shares digit "4": divergence slot (1, 1) plus the nested
        // own-digit membership N_{ε,4} at level 0 (§2.1).
        t.add_if_closer(r[1], 3);
        t.add_if_closer(r[2], 3);
        assert_eq!(t.level_refs(0).len(), 2, "9999… at (0,9) and 4111… in N_{{ε,4}}");
        assert_eq!(t.level_refs(1).len(), 1);
        assert_eq!(t.all_refs().len(), 2, "all_refs dedups across slots");
        assert_eq!(t.entry_count(), 3, "4111… occupies two slots");
    }

    #[test]
    fn refs_sorted_by_index_match_refs_sorted_whole() {
        // Ordering whole `NodeRef`s (index, then id) and ordering by the
        // index alone give the same list: an index names one node.
        let mut vals = vec![0x4227_0000];
        let mut v = 0x9E37_79B9u64;
        for idx in 1..400 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Half the ids share the owner's first digit, so nested
            // own-digit slots repeat nodes across levels.
            vals.push(if idx % 2 == 0 { 0x4000_0000 | (v >> 36) } else { v >> 32 });
        }
        let (mut t, r) = mesh(&vals);
        for other in &r[1..] {
            t.add_if_closer(*other, 3);
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
        // 4229… shares "422" and is very close; 9999… is far.
        let (mut t, r) = mesh(&[0x4227_0000, 0x4229_0000, 0x9999_0000]);
        let (near, far) = (r[1], r[2]);
        t.add_if_closer(near, 3);
        t.add_if_closer(far, 3);
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
        let (mut t, r) = mesh(&[0x4227_0000, 0x5111_1111]);
        let a = r[1];
        t.add_if_closer(a, 3);
        let (hop, past) = t.next_hop_prr(&Id::from_u64(S, 0x5000_0000), 0, None, false);
        assert_eq!(hop, Hop::Forward(a, 1));
        assert!(!past, "exact match does not cross a hole");
    }

    #[test]
    fn prr_hop_first_hole_picks_most_matching_bits() {
        // Desired digit 0b1000 (8) is a hole; candidates: digit 9 (0b1001,
        // 3 matching bits) and digit 1 (0b0001, 0 matching bits).
        let (mut t, r) = mesh(&[0x4227_0000, 0x9111_1111, 0x1222_2222]);
        let (d9, d1) = (r[1], r[2]);
        t.add_if_closer(d9, 3);
        t.add_if_closer(d1, 3);
        let (hop, past) = t.next_hop_prr(&Id::from_u64(S, 0x8000_0000), 0, None, false);
        assert_eq!(hop, Hop::Forward(d9, 1), "0b1001 shares 3 leading bits with 0b1000");
        assert!(past, "the hole was crossed");
    }

    #[test]
    fn prr_hop_after_hole_takes_highest_digit() {
        let (mut t, r) = mesh(&[0x4227_0000, 0x9111_1111, 0xC222_2222]);
        let (d9, dc) = (r[1], r[2]);
        t.add_if_closer(d9, 3);
        t.add_if_closer(dc, 3);
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
        let vals: Vec<u64> = (0..1 + u16::MAX as u64)
            .map(|i| if i == 0 { 0x4227_0000 } else { 0x5000_0000 + i })
            .collect();
        let names = names(&vals);
        let many = (1..vals.len()).map(|i| names.nref(i));
        let mut t = RoutingTable::new(names.clone(), spaced(vals.len()), 0, 16, 1);
        t.extend_unbounded(0, 5, many);
    }

    #[test]
    #[should_panic(expected = "disagrees with the directory")]
    fn a_name_that_disagrees_with_the_directory_is_refused() {
        let (mut t, r) = mesh(&[0x4227_0000, 0x5111_1111, 0x9ABC_0000]);
        t.add_if_closer(r[1], 3);
        // Point 2's address under point 1's name.
        t.add_if_closer(NodeRef::new(r[2].idx, r[1].id), 3);
    }

    #[test]
    fn a_table_prints_its_directory_tersely() {
        let (t, _) = mesh(&[0x4227_0000, 0x5111_1111]);
        assert!(format!("{t:?}").contains("names: Names(2 ids)"));
    }

    // ---------------- model test: the layouts this table replaced ----------------

    #[derive(Debug, Clone, Copy)]
    struct ModelEntry {
        nref: NodeRef,
        dist: f64,
        pinned: bool,
    }

    /// One owned, sorted `Vec` per slot, each entry carrying its node's
    /// name — the previous representations, with their mutation logic
    /// kept verbatim as the reference.
    struct Model {
        owner: NodeRef,
        base: usize,
        levels: usize,
        slots: Vec<Vec<ModelEntry>>,
    }

    fn model_sort(slot: &mut [ModelEntry]) {
        #[expect(
            clippy::disallowed_methods,
            reason = "the comparator breaks distance ties by index"
        )]
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
            #[expect(
                clippy::disallowed_methods,
                reason = "the slot is sorted by (dist, idx) and max_by keeps the last of equals: \
                          the highest (dist, idx)"
            )]
            let farthest = slot
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.pinned)
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
                let (slot, names) = (t.slot(l, j).entries, t.names());
                assert!(
                    slot.windows(2).all(|w| t.ruler().key(w[0]) < t.ruler().key(w[1])),
                    "slot ({l},{j}) is sorted by (dist, idx)"
                );
                for (i, e) in slot.iter().enumerate() {
                    let r = e.nref(names);
                    assert!(!slot[..i].iter().any(|o| o.is(r.idx)), "{r} twice in slot ({l},{j})");
                    assert!(
                        r.id.shared_prefix_len(&t.owner().id) >= l && r.id.digit(l) == j,
                        "{r} does not belong in slot ({l},{j}) of {}",
                        t.owner()
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

    /// Everything observable about the table equals the model's, every
    /// node as a full `NodeRef`: a name read from the directory must be
    /// the one the model's entry carries.
    fn assert_same(t: &RoutingTable, m: &Model, rng: &mut impl rand::Rng, ids: &[NodeRef]) {
        debug_validate(t);
        assert_eq!(t.owner(), m.owner);
        let (base, levels) = (m.base, m.levels);
        for l in 0..levels {
            for j in 0..base {
                let (slot, want) = (t.slot(l, j as u8), &m.slots[l * base + j]);
                let got: Vec<_> = slot
                    .iter_with_dist()
                    .zip(slot.entries)
                    .map(|((r, dist), e)| (r, dist.to_bits(), e.pinned()))
                    .collect();
                let refs = |keep: fn(&ModelEntry) -> bool| {
                    want.iter().filter(move |e| keep(e)).map(|e| e.nref)
                };
                assert_eq!(
                    got,
                    want.iter().map(|e| (e.nref, e.dist.to_bits(), e.pinned)).collect::<Vec<_>>(),
                    "slot ({l},{j})"
                );
                assert_eq!(slot.iter().collect::<Vec<_>>(), refs(|_| true).collect::<Vec<_>>());
                assert_eq!(slot.primary(None), refs(|_| true).next());
                assert_eq!(slot.first_unpinned(), refs(|e| !e.pinned).next());
                assert_eq!(
                    slot.pinned().collect::<Vec<_>>(),
                    refs(|e| e.pinned).collect::<Vec<_>>()
                );
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
        // Each drawn target from every level, routing around nothing, the
        // owner and a random node in equal shares: a shortcut taken at the
        // wrong level, or one that leans on the owner's self entries
        // (which `remove_node` can take), answers differently somewhere.
        for _ in 0..8 {
            let target = ids[rng.gen_range(0..ids.len())].id;
            for level in 0..levels {
                let other = ids[rng.gen_range(0..ids.len())].idx;
                for exclude in [None, Some(m.owner.idx), Some(other)] {
                    assert_eq!(
                        t.next_hop(&target, level, exclude),
                        m.next_hop(&target, level, exclude),
                        "{target} from level {level}, excluding {exclude:?}"
                    );
                }
            }
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
            let names = Names::new(ids.iter().map(|r| r.id).collect());
            // Few distinct places on a line: equal distances from the
            // owner, 0 included, are the common case.
            let at: Vec<f64> =
                (0..ids.len()).map(|_| [0.0, 1.0, 1.0, 2.0, 2.5, 4.0][rng.gen_range(0..6usize)]).collect();
            let metric = line(&at);
            let owner = ids[rng.gen_range(0..ids.len())];
            let dist = |r: NodeRef| metric.distance(owner.idx, r.idx);
            let mut t = RoutingTable::new(names, metric.clone(), owner.idx, 4, 4);
            let mut m = Model::new(owner, 4, 4);
            assert_same(&t, &m, &mut rng, &ids);
            for _ in 0..steps {
                let r = ids[rng.gen_range(0..ids.len())];
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let cap = rng.gen_range(1..=4);
                        let got = t.add_if_closer(r, cap);
                        assert_eq!((got.newly_added, got.evicted), m.add_if_closer(r, dist(r), cap));
                    }
                    5 => {
                        t.add_pinned(r);
                        m.add_pinned(r, dist(r));
                    }
                    6 => {
                        t.unpin(&r);
                        m.unpin(&r);
                    }
                    7 | 8 => assert_eq!(t.remove_node(r.idx), m.remove_node(r.idx)),
                    _ => {
                        // Up to three nodes of one slot that are not in it
                        // yet and order after what it holds — the static
                        // builder's fills.
                        let (l, j) = (rng.gen_range(0..4usize), rng.gen_range(0..4u8));
                        let key = |r: NodeRef| (dist(r), r.idx);
                        let last = t.slot(l, j).iter().last().map(key);
                        let mut fresh: Vec<(NodeRef, f64)> = ids
                            .iter()
                            .copied()
                            .filter(|c| {
                                c.idx != owner.idx
                                    && c.id.shared_prefix_len(&owner.id) >= l
                                    && c.id.digit(l) == j
                                    && last.is_none_or(|last| key(*c) > last)
                            })
                            .map(|c| (c, dist(c)))
                            .collect();
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the comparator breaks distance ties by index"
                        )]
                        fresh.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.idx.cmp(&b.0.idx)));
                        fresh.truncate(rng.gen_range(0..=3));
                        t.extend_unbounded(l, j, fresh.iter().map(|f| f.0));
                        m.extend_unbounded(l, j, &fresh);
                    }
                }
                assert_same(&t, &m, &mut rng, &ids);
            }
        }
    }
}

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use tapestry_id::Id;
use tapestry_sim::NodeIdx;

/// A remote node as known to its peers: its overlay name plus its network
/// address (here, the index of the metric point it sits at — the analogue
/// of an IP address in the paper's `(Name, IP)` pairs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// Network address (metric point / engine index).
    pub idx: NodeIdx,
    /// Overlay identifier.
    pub id: Id,
}

impl NodeRef {
    /// Pair a name with an address.
    pub fn new(idx: NodeIdx, id: Id) -> Self {
        NodeRef { idx, id }
    }
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.idx)
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Most nodes one network can hold. Routing tables, backpointer sets and
/// a routed message's visited list store a node index in 32 bits
/// ([`idx32`]), and a table entry keeps the top bit for its pin flag, so
/// an index fits in 31; `NodeRef` and every other message field keep the
/// full [`NodeIdx`].
pub const MAX_NODES: usize = (1 << 31) - 1;

/// The one narrowing of a node index into table storage. The network is
/// sized under [`MAX_NODES`] before any node exists, so a failure here is
/// a reference to a point outside the metric space.
pub(crate) fn idx32(idx: NodeIdx) -> u32 {
    match u32::try_from(idx) {
        Ok(narrow) if idx <= MAX_NODES => narrow,
        _ => panic!("node index {idx} exceeds MAX_NODES = {MAX_NODES}"),
    }
}

/// The name of every point, shared read-only by the network and every
/// routing table: entry `i` is point `i`'s overlay identifier. A point
/// keeps its name for the whole run — a point handed out again after a
/// failed join rejoins under the same name — so a table or backpointer
/// set stores only the address and looks the name up here. Cloning is a
/// reference-count bump.
#[derive(Clone)]
pub struct Names(Arc<[Id]>);

impl Names {
    /// Adopt `ids` as the directory: point `i` is named `ids[i]`.
    pub fn new(ids: Vec<Id>) -> Self {
        Names(ids.into())
    }

    /// Point `idx` with its name.
    #[inline]
    pub fn nref(&self, idx: NodeIdx) -> NodeRef {
        NodeRef::new(idx, self.0[idx])
    }

    /// `r`'s address narrowed for table storage, once its name is checked
    /// against the directory. Every write into a table or backpointer set
    /// passes here: a reference whose name disagrees is a bug upstream,
    /// not input, so it panics in release builds too.
    pub(crate) fn check(&self, r: NodeRef) -> u32 {
        let idx = idx32(r.idx);
        match self.0.get(r.idx) {
            Some(id) if *id == r.id => idx,
            Some(id) => panic!("{r} disagrees with the directory, which names it {id}"),
            None => panic!("{r} disagrees with the directory, which has {} points", self.0.len()),
        }
    }

    /// Bytes of heap the directory holds (shared, so once per network).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0)
    }
}

impl Deref for Names {
    type Target = [Id];

    fn deref(&self) -> &[Id] {
        &self.0
    }
}

/// Terse: a table printed with `{:?}` names its directory's size, not
/// every identifier in it.
impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Names({} ids)", self.0.len())
    }
}

/// Entries a full table or backpointer vector grows by. Doubling would
/// leave a bootstrapped node that learns one more neighbor holding twice
/// its table; a fixed step bounds the slack at 256 bytes.
pub(crate) const GROW_STEP: usize = 16;

/// `v.insert(at, row)`, a full `v` growing by `step` rows, not by doubling.
pub(crate) fn insert_growing_by<T>(step: usize, v: &mut Vec<T>, at: usize, row: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(step);
    }
    v.insert(at, row);
}

/// The nodes that keep us in their routing table (§2.1 backpointers):
/// their addresses in one vector, ascending. Names come from the
/// [`Names`] directory on the way out.
#[derive(Debug, Clone, Default)]
pub(crate) struct Backpointers(Vec<u32>);

impl Backpointers {
    /// Bytes one backpointer occupies.
    pub const BYTES: usize = std::mem::size_of::<u32>();

    /// Adopt `sorted`: ascending, no index twice.
    pub fn from_sorted(sorted: Vec<u32>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        Backpointers(sorted)
    }

    fn find(&self, idx: NodeIdx) -> Result<usize, usize> {
        self.0.binary_search_by_key(&idx, |&i| i as NodeIdx)
    }

    /// Add `r`, whose name must be the directory's. Returns true when
    /// `r` was not present.
    pub fn insert(&mut self, r: NodeRef, names: &Names) -> bool {
        let idx = names.check(r);
        let Err(at) = self.find(r.idx) else { return false };
        insert_growing_by(GROW_STEP, &mut self.0, at, idx);
        true
    }

    /// Returns true when `idx` was present.
    pub fn remove(&mut self, idx: NodeIdx) -> bool {
        self.find(idx).map(|at| self.0.remove(at)).is_ok()
    }

    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.find(idx).is_ok()
    }

    /// The holders' addresses, ascending.
    pub fn indices(&self) -> impl Iterator<Item = NodeIdx> + Clone + '_ {
        self.0.iter().map(|&idx| idx as NodeIdx)
    }

    /// Ascending by index.
    pub fn iter<'a>(&'a self, names: &'a Names) -> impl Iterator<Item = NodeRef> + 'a {
        self.0.iter().map(|&idx| names.nref(idx as NodeIdx))
    }

    /// Bytes of heap the vector holds (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.0.capacity() * Self::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_id::IdSpace;

    #[test]
    fn display_shows_name_and_address() {
        let r = NodeRef::new(7, Id::from_u64(IdSpace::base16(), 0x4227_0000));
        assert_eq!(format!("{r}"), "42270000@7");
    }

    #[test]
    fn equality_covers_both_fields() {
        let s = IdSpace::base16();
        let a = NodeRef::new(1, Id::from_u64(s, 5));
        let b = NodeRef::new(2, Id::from_u64(s, 5));
        assert_ne!(a, b);
        assert_eq!(a, NodeRef::new(1, Id::from_u64(s, 5)));
    }

    #[test]
    fn a_ref_is_24_bytes_and_a_backpointer_4() {
        assert_eq!(std::mem::size_of::<NodeRef>(), 24);
        let b = Backpointers::from_sorted(vec![1, 2, 3]);
        assert_eq!(b.heap_bytes(), 3 * 4, "a backpointer is its address alone");
    }

    /// Point `i` named `i · 31`: every index below 97 has a name.
    fn directory() -> Names {
        Names::new((0..97u64).map(|i| Id::from_u64(IdSpace::base16(), i * 31)).collect())
    }

    #[test]
    fn backpointers_match_a_btreemap() {
        use std::collections::BTreeMap;
        // The id-carrying layout this set replaced: one `(index, name)`
        // pair per backpointer.
        let names = directory();
        let mut model: BTreeMap<NodeIdx, Id> = BTreeMap::new();
        let mut got = Backpointers::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (x >> 33) as usize % 97;
            let r = names.nref(idx);
            if (x >> 20).is_multiple_of(3) {
                assert_eq!(got.remove(idx), model.remove(&idx).is_some(), "step {step}");
            } else {
                got.insert(r, &names);
                model.insert(idx, r.id);
            }
            let probe = (x >> 12) as usize % 97;
            assert_eq!(got.contains(probe), model.contains_key(&probe), "step {step}");
            let want: Vec<NodeRef> = model.iter().map(|(&i, &id)| NodeRef::new(i, id)).collect();
            assert_eq!(got.iter(&names).collect::<Vec<_>>(), want, "step {step}: ascends by index");
        }
        assert!(!model.is_empty());
        assert!(!got.contains(usize::MAX) && !got.remove(usize::MAX), "a lookup never narrows");
    }

    #[test]
    #[should_panic(expected = "disagrees with the directory")]
    fn a_name_that_disagrees_with_the_directory_is_refused() {
        let names = directory();
        let mut b = Backpointers::default();
        b.insert(names.nref(5), &names);
        b.insert(NodeRef::new(6, names[7]), &names);
    }

    #[test]
    #[should_panic(expected = "disagrees with the directory")]
    fn an_address_outside_the_directory_is_refused() {
        let names = directory();
        Backpointers::default().insert(NodeRef::new(97, names[0]), &names);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_NODES")]
    fn an_index_past_the_limit_is_refused_not_truncated() {
        idx32(MAX_NODES + 1);
    }
}

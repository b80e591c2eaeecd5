use std::fmt;
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
/// ([`idx32`]); `NodeRef` and every other message field keep the full
/// [`NodeIdx`].
pub const MAX_NODES: usize = u32::MAX as usize;

/// The one narrowing of a node index into table storage. The network is
/// sized under [`MAX_NODES`] before any node exists, so a failure here is
/// a reference to a point outside the metric space.
pub(crate) fn idx32(idx: NodeIdx) -> u32 {
    u32::try_from(idx)
        .unwrap_or_else(|_| panic!("node index {idx} exceeds MAX_NODES = {MAX_NODES}"))
}

/// Entries a full table or backpointer vector grows by. Doubling would
/// leave a bootstrapped node that learns one more neighbor holding twice
/// its table; a fixed step bounds the slack at half a kilobyte.
pub(crate) const GROW_STEP: usize = 16;

/// `v.insert(at, row)`, a full `v` growing by `step` rows, not by doubling.
pub(crate) fn insert_growing_by<T>(step: usize, v: &mut Vec<T>, at: usize, row: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(step);
    }
    v.insert(at, row);
}

/// The nodes that keep us in their routing table (§2.1 backpointers):
/// one vector sorted by node index.
#[derive(Debug, Clone, Default)]
pub(crate) struct Backpointers(Vec<(u32, Id)>);

impl Backpointers {
    /// Adopt `sorted`: ascending by index, no index twice.
    pub fn from_sorted(sorted: Vec<(u32, Id)>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
        Backpointers(sorted)
    }

    fn find(&self, idx: NodeIdx) -> Result<usize, usize> {
        self.0.binary_search_by_key(&idx, |&(i, _)| i as NodeIdx)
    }

    pub fn insert(&mut self, r: NodeRef) {
        match self.find(r.idx) {
            Ok(at) => self.0[at].1 = r.id,
            Err(at) => insert_growing_by(GROW_STEP, &mut self.0, at, (idx32(r.idx), r.id)),
        }
    }

    /// Returns true when `idx` was present.
    pub fn remove(&mut self, idx: NodeIdx) -> bool {
        self.find(idx).map(|at| self.0.remove(at)).is_ok()
    }

    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.find(idx).is_ok()
    }

    /// Ascending by index.
    pub fn iter(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.0.iter().map(|&(idx, id)| NodeRef::new(idx as NodeIdx, id))
    }

    /// Bytes of heap the vector holds (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<(u32, Id)>()
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
    fn a_ref_is_24_bytes_and_a_backpointer_16() {
        assert_eq!(std::mem::size_of::<NodeRef>(), 24);
        assert_eq!(std::mem::size_of::<(u32, Id)>(), 16);
    }

    #[test]
    fn backpointers_match_a_btreemap() {
        use std::collections::BTreeMap;
        let s = IdSpace::base16();
        let mut model: BTreeMap<NodeIdx, Id> = BTreeMap::new();
        let mut got = Backpointers::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (x >> 33) as usize % 97;
            let r = NodeRef::new(idx, Id::from_u64(s, idx as u64 * 31));
            if (x >> 20).is_multiple_of(3) {
                assert_eq!(got.remove(idx), model.remove(&idx).is_some(), "step {step}");
            } else {
                got.insert(r);
                model.insert(idx, r.id);
            }
            let probe = (x >> 12) as usize % 97;
            assert_eq!(got.contains(probe), model.contains_key(&probe), "step {step}");
        }
        let want: Vec<NodeRef> = model.iter().map(|(&i, &id)| NodeRef::new(i, id)).collect();
        assert!(!want.is_empty());
        assert_eq!(got.iter().collect::<Vec<_>>(), want, "iteration ascends by index");
        assert!(!got.contains(usize::MAX) && !got.remove(usize::MAX), "a lookup never narrows");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_NODES")]
    fn an_index_past_the_limit_is_refused_not_truncated() {
        idx32(MAX_NODES + 1);
    }
}

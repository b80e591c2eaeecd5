use crate::refs::{insert_growing_by, NodeRef};
use std::mem::size_of;
use std::ops::Range;
use tapestry_id::Guid;
use tapestry_sim::{NodeIdx, SimTime};

/// One object pointer: "`guid` is stored at `server`" (§2.2).
///
/// Unlike PRR, Tapestry keeps **all** pointers for objects with duplicate
/// names (§2.4), so the store maps a GUID to a *list* of entries. Each
/// entry remembers the previous hop of the publish path (`last_hop`) —
/// the state `DeletePointersBackward` (Fig. 9) walks — and an expiry time
/// (pointers are soft state and vanish unless republished).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtrEntry {
    /// Server storing the replica.
    pub server: NodeRef,
    /// Previous hop of the publish path (`None` at the server itself).
    pub last_hop: Option<NodeIdx>,
    /// When the pointer lapses (soft state, §2.2).
    pub expires: SimTime,
    /// Did the publish path terminate here (is this node the root)?
    pub is_root: bool,
}

/// Per-node object-pointer state plus the set of locally stored replicas.
///
/// Both are one sorted vector each: `ptrs` by GUID, a GUID's pointers
/// side by side in deposit order (the order [`ObjectStore::lookup`]
/// yields and the locate tie rule reads), `local` by GUID. A node holds
/// a handful of pointers, so a full vector grows by `GROW_STEP` rows,
/// never by doubling.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    ptrs: Vec<(Guid, PtrEntry)>,
    local: Vec<Guid>,
}

/// Rows a full vector of the store grows by.
const GROW_STEP: usize = 4;

impl ObjectStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that this node stores a replica of `guid` (it is a storage
    /// server for the object). Returns `false` when already recorded.
    pub fn store_local(&mut self, guid: Guid) -> bool {
        let found = self.local.binary_search(&guid);
        if let Err(at) = found {
            insert_growing_by(GROW_STEP, &mut self.local, at, guid);
        }
        found.is_err()
    }

    /// Drop the local replica.
    pub fn remove_local(&mut self, guid: Guid) -> bool {
        self.local.binary_search(&guid).map(|at| self.local.remove(at)).is_ok()
    }

    /// Does this node store the object itself?
    pub fn has_local(&self, guid: Guid) -> bool {
        self.local.binary_search(&guid).is_ok()
    }

    /// Number of locally stored replicas.
    pub fn local_count(&self) -> usize {
        self.local.len()
    }

    /// All locally stored objects, in GUID order.
    pub fn local_objects(&self) -> impl Iterator<Item = Guid> + '_ {
        self.local.iter().copied()
    }

    /// Where `guid`'s pointers lie in `ptrs` (an empty range at its place
    /// when it has none).
    fn run(&self, guid: Guid) -> Range<usize> {
        let start = self.ptrs.partition_point(|&(g, _)| g < guid);
        let len = self.ptrs[start..].iter().take_while(|&&(g, _)| g == guid).count();
        start..start + len
    }

    /// Deposit or refresh a pointer. Refreshing updates expiry, last hop
    /// and root flag in place (a republish may arrive along a new path).
    pub fn deposit(&mut self, guid: Guid, entry: PtrEntry) {
        let run = self.run(guid);
        let end = run.end;
        if let Some((_, e)) =
            self.ptrs[run].iter_mut().find(|(_, e)| e.server.idx == entry.server.idx)
        {
            e.expires = e.expires.max(entry.expires);
            e.last_hop = entry.last_hop;
            e.is_root |= entry.is_root;
        } else {
            insert_growing_by(GROW_STEP, &mut self.ptrs, end, (guid, entry));
        }
    }

    /// Unexpired pointers for `guid` at time `now`, in deposit order.
    pub fn lookup(&self, guid: Guid, now: SimTime) -> impl Iterator<Item = &PtrEntry> + '_ {
        self.ptrs[self.run(guid)].iter().map(|(_, e)| e).filter(move |e| e.expires > now)
    }

    /// Remove the pointer for one (guid, server) pair.
    pub fn remove(&mut self, guid: Guid, server: NodeIdx) -> Option<PtrEntry> {
        let run = self.run(guid);
        let pos = self.ptrs[run.clone()].iter().position(|(_, e)| e.server.idx == server)?;
        Some(self.ptrs.remove(run.start + pos).1)
    }

    /// Delete every expired pointer; returns how many were dropped.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.ptrs.len();
        self.ptrs.retain(|(_, e)| e.expires > now);
        before - self.ptrs.len()
    }

    /// GUIDs for which this node currently believes it is the root, in
    /// GUID order.
    pub fn rooted_guids(&self, now: SimTime) -> Vec<Guid> {
        let rooted = self.ptrs.iter().filter(|(_, e)| e.is_root && e.expires > now);
        let mut out: Vec<Guid> = rooted.map(|&(g, _)| g).collect();
        out.dedup();
        out
    }

    /// All (guid, entry) pairs, for maintenance scans: GUID order, deposit
    /// order inside a GUID.
    pub fn iter(&self) -> impl Iterator<Item = (Guid, &PtrEntry)> + '_ {
        self.ptrs.iter().map(|(g, e)| (*g, e))
    }

    /// Mutable per-guid entries, for maintenance scans.
    pub fn entries_mut(&mut self, guid: Guid) -> impl Iterator<Item = &mut PtrEntry> + '_ {
        let run = self.run(guid);
        self.ptrs[run].iter_mut().map(|(_, e)| e)
    }

    /// Total number of stored pointers (space accounting).
    pub fn ptr_count(&self) -> usize {
        self.ptrs.len()
    }

    /// Bytes of heap the store holds (capacity, not length), from the
    /// containers alone, so it repeats exactly from run to run.
    pub fn heap_bytes(&self) -> usize {
        self.ptrs.capacity() * size_of::<(Guid, PtrEntry)>()
            + self.local.capacity() * size_of::<Guid>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use tapestry_id::{Id, IdSpace};

    const S: IdSpace = IdSpace::base16();

    fn g(v: u64) -> Guid {
        Guid::from_u64(S, v)
    }

    fn srv(i: usize) -> NodeRef {
        NodeRef::new(i, Id::from_u64(S, i as u64))
    }

    fn entry(i: usize, exp: u64, root: bool) -> PtrEntry {
        PtrEntry { server: srv(i), last_hop: None, expires: SimTime(exp), is_root: root }
    }

    #[test]
    fn deposit_and_lookup_respect_expiry() {
        let mut st = ObjectStore::new();
        st.deposit(g(1), entry(10, 100, false));
        assert_eq!(st.lookup(g(1), SimTime(50)).count(), 1);
        assert_eq!(st.lookup(g(1), SimTime(100)).count(), 0, "expired at its deadline");
    }

    #[test]
    fn duplicate_names_keep_all_pointers() {
        // §2.4: Tapestry keeps pointers to all copies.
        let mut st = ObjectStore::new();
        st.deposit(g(1), entry(10, 100, false));
        st.deposit(g(1), entry(11, 100, false));
        assert_eq!(st.lookup(g(1), SimTime(0)).count(), 2);
        assert_eq!(st.ptr_count(), 2);
    }

    #[test]
    fn refresh_extends_expiry_and_promotes_root() {
        let mut st = ObjectStore::new();
        st.deposit(g(1), entry(10, 100, false));
        st.deposit(g(1), entry(10, 300, true));
        let e: Vec<_> = st.lookup(g(1), SimTime(200)).collect();
        assert_eq!(e.len(), 1);
        assert!(e[0].is_root);
    }

    #[test]
    fn sweep_drops_expired() {
        let mut st = ObjectStore::new();
        st.deposit(g(1), entry(10, 100, false));
        st.deposit(g(2), entry(11, 500, true));
        assert_eq!(st.sweep(SimTime(200)), 1);
        assert_eq!(st.ptr_count(), 1);
        assert_eq!(st.rooted_guids(SimTime(200)), vec![g(2)]);
    }

    #[test]
    fn remove_clears_empty_guid_rows() {
        let mut st = ObjectStore::new();
        st.deposit(g(1), entry(10, 100, false));
        assert!(st.remove(g(1), 10).is_some());
        assert!(st.remove(g(1), 10).is_none());
        assert_eq!(st.ptr_count(), 0);
    }

    #[test]
    fn local_replicas_tracked_separately() {
        let mut st = ObjectStore::new();
        assert!(st.store_local(g(9)));
        assert!(!st.store_local(g(9)), "second store of the same replica is a no-op");
        assert!(st.has_local(g(9)));
        assert!(!st.has_local(g(8)));
        assert_eq!(st.local_count(), 1);
        assert_eq!(st.local_objects().collect::<Vec<_>>(), vec![g(9)]);
        assert!(st.remove_local(g(9)));
        assert!(!st.remove_local(g(9)));
        assert!(!st.has_local(g(9)));
        assert_eq!(st.local_count(), 0);
    }

    #[test]
    fn a_pointer_is_56_bytes_and_a_row_72() {
        assert_eq!(size_of::<PtrEntry>(), 56);
        assert_eq!(size_of::<(Guid, PtrEntry)>(), 72);
    }

    /// The store this one replaced — a B-tree of per-GUID vectors and a
    /// B-tree set — kept as the model of every order the flat store
    /// promises.
    #[derive(Default)]
    struct Model {
        ptrs: BTreeMap<Guid, Vec<PtrEntry>>,
        local: BTreeSet<Guid>,
    }

    impl Model {
        fn deposit(&mut self, guid: Guid, entry: PtrEntry) {
            let v = self.ptrs.entry(guid).or_default();
            if let Some(e) = v.iter_mut().find(|e| e.server.idx == entry.server.idx) {
                e.expires = e.expires.max(entry.expires);
                e.last_hop = entry.last_hop;
                e.is_root |= entry.is_root;
            } else {
                v.push(entry);
            }
        }

        fn lookup(&self, guid: Guid, now: SimTime) -> Vec<PtrEntry> {
            let live = self.ptrs.get(&guid).into_iter().flatten().filter(|e| e.expires > now);
            live.copied().collect()
        }

        fn remove(&mut self, guid: Guid, server: NodeIdx) -> Option<PtrEntry> {
            let v = self.ptrs.get_mut(&guid)?;
            let pos = v.iter().position(|e| e.server.idx == server)?;
            let e = v.remove(pos);
            if v.is_empty() {
                self.ptrs.remove(&guid);
            }
            Some(e)
        }

        fn sweep(&mut self, now: SimTime) -> usize {
            let mut dropped = 0;
            self.ptrs.retain(|_, v| {
                let before = v.len();
                v.retain(|e| e.expires > now);
                dropped += before - v.len();
                !v.is_empty()
            });
            dropped
        }

        fn rooted_guids(&self, now: SimTime) -> Vec<Guid> {
            self.ptrs
                .iter()
                .filter(|(_, v)| v.iter().any(|e| e.is_root && e.expires > now))
                .map(|(&g, _)| g)
                .collect()
        }

        fn iter(&self) -> Vec<(Guid, PtrEntry)> {
            self.ptrs.iter().flat_map(|(&g, v)| v.iter().map(move |e| (g, *e))).collect()
        }
    }

    #[test]
    fn flat_store_matches_the_btree_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut got, mut want) = (ObjectStore::new(), Model::default());
            // Few names and few servers, so refreshes, duplicate names and
            // removals of present pairs are all common.
            let names = rng.gen_range(1..12u64);
            let (mut now, mut peak) = (0u64, (0, 0));
            for step in 0..rng.gen_range(40..400) {
                let guid = g(rng.gen_range(0..names) * 0x0101_0101);
                let server = rng.gen_range(0..6usize);
                let at = format!("seed {seed} step {step}");
                match rng.gen_range(0..12) {
                    0..=4 => {
                        let mut e = entry(server, now + rng.gen_range(1..60u64), rng.gen_bool(0.3));
                        e.last_hop = rng.gen_bool(0.5).then(|| rng.gen_range(0..9));
                        got.deposit(guid, e);
                        want.deposit(guid, e);
                    }
                    5 => assert_eq!(got.remove(guid, server), want.remove(guid, server), "{at}"),
                    6..=7 => {
                        now += rng.gen_range(0..25u64);
                        assert_eq!(got.sweep(SimTime(now)), want.sweep(SimTime(now)), "{at}");
                    }
                    8 => {
                        // `on_transfer_ack`'s demotion, through both.
                        got.entries_mut(guid).for_each(|e| e.is_root = false);
                        want.ptrs
                            .get_mut(&guid)
                            .into_iter()
                            .flatten()
                            .for_each(|e| e.is_root = false);
                    }
                    9 => assert_eq!(got.store_local(guid), want.local.insert(guid), "{at}"),
                    10 => assert_eq!(got.remove_local(guid), want.local.remove(&guid), "{at}"),
                    _ => now += rng.gen_range(0..10u64),
                }
                let t = SimTime(now);
                for name in 0..names {
                    let guid = g(name * 0x0101_0101);
                    let live: Vec<PtrEntry> = got.lookup(guid, t).copied().collect();
                    assert_eq!(live, want.lookup(guid, t), "{at}: lookup order");
                    assert_eq!(got.has_local(guid), want.local.contains(&guid), "{at}");
                }
                let all: Vec<(Guid, PtrEntry)> = got.iter().map(|(g, e)| (g, *e)).collect();
                assert_eq!(all, want.iter(), "{at}: iteration order");
                assert_eq!(got.rooted_guids(t), want.rooted_guids(t), "{at}");
                assert_eq!(got.ptr_count(), want.ptrs.values().map(Vec::len).sum::<usize>());
                let locals: Vec<Guid> = got.local_objects().collect();
                assert_eq!(locals, want.local.iter().copied().collect::<Vec<_>>(), "{at}");
                assert_eq!(got.local_count(), want.local.len());
                // Growth is by GROW_STEP rows over the most ever held.
                peak = (peak.0.max(got.ptr_count()), peak.1.max(got.local_count()));
                assert!(got.heap_bytes() <= 72 * (peak.0 + 3) + 10 * (peak.1 + 3), "{at}");
            }
        }
    }
}

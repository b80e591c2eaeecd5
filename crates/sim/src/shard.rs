//! The engine's event queue: 24-byte ordering keys over a payload slab,
//! split into a near heap and far time buckets.
//!
//! **Keys and slab.** What the queue orders is `(at, seq)`; what it
//! carries is a `(node, event)` payload that no comparison ever looks
//! at. Measured on the `churn-repair` benchmark workload, one probe
//! round left 556 453 events pending at once, and a heap of whole
//! entries — 208 bytes each while the routed-message header was inline in
//! `Msg` — dragged ~116 MB through ~17 cache-missing levels on every
//! sift. Here the ordered structures hold only a [`Key`] — `at`,
//! `seq` and a `u32` slot, 24 bytes — and the payload sits in a slab
//! (`Vec<Option<_>>` with a LIFO free list): written once on push, read
//! once on pop, never moved. Freed slots are reused before the slab
//! grows, so its length never exceeds the peak number of entries. A
//! queue entry costs its slab entry plus its key
//! (`Engine::BYTES_PER_PENDING`): 88 + 24 = 112 bytes with the protocol's
//! 72-byte `Msg`, whose routed header travels boxed.
//!
//! **Fan-out records.** An entry is not always one event. A message a
//! node sends to many targets at once (`Ctx::send_each`: a probe
//! round's pings, a departure's `LeaveFinal`s) is one entry whose payload
//! is a boxed record: the message once and a 16-byte member per target
//! (`Engine::BYTES_PER_FANNED`). The entry is keyed by the earliest
//! member's `(at, seq)`; the engine pops it, delivers that member and
//! pushes the record again under the next member's key. So `n` pending
//! events cost `n · 112` bytes only when each was sent on its own: a
//! probe round of `k` pings per node costs one entry, one record and
//! `16 k` bytes per node, and `len` counts the entries, not the events
//! (`Engine::pending` adds the members still waiting).
//!
//! **Near heap, far buckets.** Time is cut into buckets of
//! `2^BUCKET_SHIFT` units (`at >> BUCKET_SHIFT`). Invariant: every key
//! in the `near` binary heap lies in a bucket *before* `horizon`, every
//! key in a `far` bucket lies *at or after* it. A push below the horizon
//! (same-instant self-timers, `PROC_DELAY` sends) goes into the heap; a
//! later one is appended, unsorted, to its bucket's `Vec` — O(1) however
//! many are pending. `pop` takes from the heap, and whenever that leaves
//! the heap empty while events remain, the earliest bucket is heapified
//! in O(n) and `horizon` moves just past it; a push into an empty queue
//! starts the heap and puts `horizon` just past itself. So the heap is
//! non-empty whenever the queue is, the next event is always the heap's
//! head, and pops come from a heap the size of one bucket rather than of
//! the whole backlog. `horizon` is kept in bucket units: the last bucket is
//! `u64::MAX >> BUCKET_SHIFT`, so `bucket + 1` cannot overflow and
//! `SimTime(u64::MAX)` is legal input. When every event shares one
//! instant there is one bucket and the structure is exactly a single heap
//! of slim keys.
//!
//! **Order.** `seq` is globally unique, so `(at, seq)` is a strict total
//! order; every key below the horizon precedes every key at or above it,
//! and the heap orders the rest. `pop` therefore returns exactly the
//! sequence one `BinaryHeap` over all events would — the contract the
//! proptests below check against that reference heap, and the
//! byte-compares of committed reports in CI enforce end to end.
//!
//! The node key does not affect order; it rides in the slab and comes
//! back out of `pop`. The type's name is older than this structure:
//! the queue has no shards.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// log2 of the far-bucket width in [`SimTime`] units: 2^16 units is 64
/// units of metric distance, a fraction of one overlay hop on the spaces
/// the scenarios use, so a burst of in-flight deliveries spreads over
/// many buckets while the near heap stays cache-sized.
const BUCKET_SHIFT: u32 = 16;

/// Largest spent buffer, in keys, kept for reuse as a bucket. A shallow
/// queue holds a dozen keys per bucket and recycles its buffers, so its
/// steady state allocates nothing; a buffer that held a burst goes back
/// to the allocator instead — pooled unconditionally, capacity only ever
/// ratchets up as big buffers land on small buckets (measured on
/// `churn-repair`: 2.7 M keys of pooled capacity, +40 MB resident, for
/// 556 k pending).
const POOLED_KEYS_MAX: usize = 1024;

/// What the queue orders: due time, global sequence number, and the slab
/// slot holding the payload. `seq` is unique, so the derived ordering
/// never reaches `slot`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    fn bucket(&self) -> u64 {
        self.at.0 >> BUCKET_SHIFT
    }
}

/// A min-queue of timed events, each keyed by the node it fires on
/// (delivery target or timer owner).
///
/// `pop` returns events in ascending `(at, seq)` order — exactly the
/// order a single binary heap over all events would produce. See the
/// module documentation for the structure.
pub struct ShardedQueue<E> {
    /// Keys in buckets before `horizon`, as a min-heap.
    near: BinaryHeap<Reverse<Key>>,
    /// Keys in buckets at or after `horizon`, unsorted within a bucket.
    far: BTreeMap<u64, Vec<Reverse<Key>>>,
    /// First bucket not yet merged into `near`.
    horizon: u64,
    /// Spent buffers of at most [`POOLED_KEYS_MAX`] keys, reused as
    /// buckets.
    pool: Vec<Vec<Reverse<Key>>>,
    /// Payloads by slot: the node key and the item.
    slab: Vec<Option<(usize, E)>>,
    /// Vacant slab slots, reused last-freed-first.
    free: Vec<u32>,
    len: usize,
}

impl<E> ShardedQueue<E> {
    /// What one pending event holds: its slab entry and its key.
    pub(crate) const BYTES_PER_PENDING: usize =
        std::mem::size_of::<Option<(usize, E)>>() + std::mem::size_of::<Reverse<Key>>();

    /// An empty queue. The three parameters are unread. They stay only
    /// because the standalone `benchmark/` package passes them
    /// (`benchmark/src/probes.rs`); the change that re-points
    /// `benchmark/` deletes them.
    pub fn new(_points: usize, _nodes_per_shard: usize, _max_shards: usize) -> Self {
        ShardedQueue {
            near: BinaryHeap::new(),
            far: BTreeMap::new(),
            horizon: 0,
            pool: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Total queue entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` for `node` at time `at`. `seq` must be unique (the
    /// engine's global event counter) — it is the deterministic
    /// tie-break within an instant. It need not be the largest issued so
    /// far: the engine re-queues a fan-out record under a `seq` it
    /// reserved when the fan-out was sent.
    pub fn push(&mut self, at: SimTime, seq: u64, node: usize, item: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some((node, item));
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .expect("more than u32::MAX events pending at once");
                self.slab.push(Some((node, item)));
                slot
            }
        };
        let key = Key { at, seq, slot };
        if self.len == 0 {
            // Nothing is pending, so any horizon satisfies the invariant:
            // put it just past this key and start the heap with it.
            self.horizon = key.bucket() + 1;
        }
        if key.bucket() < self.horizon {
            self.near.push(Reverse(key));
        } else {
            let pool = &mut self.pool;
            self.far
                .entry(key.bucket())
                .or_insert_with(|| pool.pop().unwrap_or_default())
                .push(Reverse(key));
        }
        self.len += 1;
    }

    /// Heapify the earliest far bucket into the (empty) near heap and
    /// move the horizon just past it; the heap's old buffer is recycled.
    /// No-op when nothing is far.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty());
        let Some((bucket, keys)) = self.far.pop_first() else {
            return;
        };
        self.horizon = bucket + 1;
        let spent = std::mem::replace(&mut self.near, BinaryHeap::from(keys)).into_vec();
        if spent.capacity() <= POOLED_KEYS_MAX {
            self.pool.push(spent);
        }
    }

    /// Remove and return the next event in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, u64, usize, E)> {
        self.pop_due(SimTime(u64::MAX))
    }

    /// [`pop`](ShardedQueue::pop), but only if the next event is due at
    /// or before `deadline` — the check costs a look at the heap's head
    /// and no slab read.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, usize, E)> {
        if self.near.peek()?.0.at > deadline {
            return None;
        }
        let Reverse(key) = self.near.pop().expect("peeked");
        if self.near.is_empty() {
            self.refill();
        }
        let (node, item) = self.slab[key.slot as usize].take().expect("queued key has a payload");
        self.free.push(key.slot);
        self.len -= 1;
        Some((key.at, key.seq, node, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The queue beside the single binary heap it must match. Payloads
    /// are derived from `seq`, so a slot mix-up in the slab shows up as
    /// another event's payload.
    struct Checked {
        q: ShardedQueue<u64>,
        reference: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    }

    fn payload(seq: u64) -> u64 {
        seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    impl Checked {
        fn new() -> Self {
            Checked { q: ShardedQueue::new(0, 0, 0), reference: BinaryHeap::new() }
        }

        fn push(&mut self, at: u64, seq: u64, node: usize) {
            self.q.push(SimTime(at), seq, node, payload(seq));
            self.reference.push(Reverse((SimTime(at), seq, node)));
        }

        /// Pop both sides. Panics unless the popped event, length and
        /// payload are the reference heap's; returns the popped `at`.
        fn pop(&mut self) -> Option<u64> {
            let expect = self.reference.pop().map(|Reverse(e)| e);
            let got = self.q.pop();
            assert_eq!(got.map(|(at, seq, node, _)| (at, seq, node)), expect, "pop order");
            if let Some((_, seq, _, item)) = got {
                assert_eq!(item, payload(seq), "payload pushed with another seq");
            }
            assert_eq!(self.q.len(), self.reference.len());
            expect.map(|(at, ..)| at.0)
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.q.is_empty());
        }
    }

    /// Deterministic pseudo-random stream (xorshift64) from a salt.
    fn xorshift(salt: u64) -> impl FnMut() -> u64 {
        let mut x = salt | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: ShardedQueue<u32> = ShardedQueue::new(0, 0, 0);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    /// The node key is carried, not interpreted: a key past the node
    /// space (the engine's external-injection sentinel) comes back out of
    /// `pop` unchanged.
    #[test]
    fn out_of_range_node_keys_are_carried_through_pop() {
        let mut q: ShardedQueue<u32> = ShardedQueue::new(0, 0, 0);
        q.push(SimTime(5), 1, usize::MAX, 7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, _, n, v)| (n, v)), Some((usize::MAX, 7)));
        assert!(q.is_empty());
    }

    /// Same-instant FIFO stress: a burst of events all due at one
    /// instant, spread over every node key, must pop in exactly push
    /// (seq) order — the scheduling-order contract
    /// the engine's same-instant tie-break relies on.
    #[test]
    fn same_instant_fifo_across_shard_boundaries() {
        let points = 96;
        let mut q: ShardedQueue<usize> = ShardedQueue::new(0, 0, 0);
        // Interleave: walk the node space so consecutive seqs carry
        // different node keys, twice over, all at t=7.
        let mut expect = Vec::new();
        for (seq, k) in (0..2 * points).enumerate() {
            let node = (k * 31) % points; // coprime stride: hits every node
            q.push(SimTime(7), seq as u64, node, seq);
            expect.push(seq);
        }
        // A later and an earlier instant around the burst.
        q.push(SimTime(9), 10_000, 3, usize::MAX);
        q.push(SimTime(1), 10_001, 90, usize::MAX - 1);
        let mut got = Vec::new();
        let mut first = None;
        let mut last = None;
        while let Some((at, _, _, v)) = q.pop() {
            match at.0 {
                1 => first = Some(v),
                9 => last = Some(v),
                7 => got.push(v),
                _ => unreachable!(),
            }
        }
        assert_eq!(first, Some(usize::MAX - 1), "earlier instant pops first");
        assert_eq!(last, Some(usize::MAX), "later instant pops last");
        assert_eq!(got, expect, "same-instant burst pops in push (FIFO) order");
    }

    /// The last two representable instants: bucket and horizon arithmetic
    /// must not overflow (this suite runs with overflow checks on).
    #[test]
    fn end_of_time_pushes_pop_in_order() {
        let mut c = Checked::new();
        c.push(u64::MAX, 0, 1);
        c.push(u64::MAX - 1, 1, 2);
        c.push(3, 2, 3);
        c.push(u64::MAX, 3, 4);
        assert_eq!(c.pop(), Some(3));
        // The near heap now holds the last bucket; these land below,
        // inside and (again) inside it.
        c.push(u64::MAX - (1 << BUCKET_SHIFT), 4, 5);
        c.push(u64::MAX - 1, 5, 6);
        c.push(u64::MAX, 6, 7);
        c.drain();
    }

    /// Freed slots are reused before the slab grows: a long run with few
    /// events pending keeps the slab at the peak, not at the total.
    #[test]
    fn slab_never_outgrows_peak_pending() {
        let mut q: ShardedQueue<u64> = ShardedQueue::new(0, 0, 0);
        let mut next = xorshift(11);
        let (mut now, mut peak) = (0u64, 0usize);
        for seq in 0..1_000_000u64 {
            q.push(SimTime(now + next() % (8 << BUCKET_SHIFT)), seq, seq as usize % 64, seq);
            peak = peak.max(q.len());
            // Hover between 1 and 100 pending.
            if q.len() == 100 || next() & 1 == 0 {
                now = q.pop().expect("just pushed").0 .0;
            }
            assert!(q.slab.len() <= peak, "slab {} past peak {peak}", q.slab.len());
        }
        assert!(peak <= 100);
        assert!(q.pool.iter().all(|b| b.capacity() <= POOLED_KEYS_MAX));
    }

    /// Pushes at, just below and just above the horizon while the queue
    /// drains — including same-instant pushes at the popped time, the
    /// self-timer pattern — keep single-heap order across refills.
    #[test]
    fn pushes_around_the_horizon_while_draining_keep_heap_order() {
        let mut c = Checked::new();
        let mut next = xorshift(5);
        let mut seq = 0u64;
        let mut push = |c: &mut Checked, at: u64| {
            c.push(at, seq, next() as usize % 256);
            seq += 1;
        };
        for k in 0..400 {
            push(&mut c, k * (1 << (BUCKET_SHIFT - 2)) + 17);
        }
        let mut pops = 0u32;
        while let Some(now) = c.pop() {
            pops += 1;
            if pops > 3_000 {
                continue; // stop feeding, let it drain
            }
            let edge = c.q.horizon << BUCKET_SHIFT;
            for at in [now, edge - 1, edge, edge + 1, edge + (3 << BUCKET_SHIFT)] {
                // Never schedule into the past, like the engine.
                if at >= now && !pops.is_multiple_of(3) {
                    push(&mut c, at);
                }
            }
        }
        assert!(pops > 3_000, "fed pushes were drained too");
    }

    /// A probe-round-sized burst whose due times span many buckets pops
    /// in single-heap order, with pops interleaved so refills happen
    /// while later buckets are still filling.
    #[test]
    fn burst_over_many_buckets_matches_reference_heap() {
        let mut c = Checked::new();
        let mut next = xorshift(42);
        // An early first event pins the horizon at bucket 1, so the whole
        // burst is far.
        c.push(0, 0, 0);
        for seq in 1..100_000u64 {
            c.push(next() % (64 << BUCKET_SHIFT), seq, next() as usize % 5_000);
            if seq % 1_000 == 999 {
                c.pop();
            }
        }
        assert!(c.q.far.len() >= 50, "burst spread over {} buckets", c.q.far.len());
        c.drain();
    }

    proptest! {
        /// Any interleaving of pushes pops in exactly the single-heap
        /// `(at, seq)` order.
        #[test]
        fn prop_pop_order_matches_single_heap(
            n in 0usize..120,
            points in 1usize..300,
            at_salt in 0u64..u64::MAX,
        ) {
            // Times cluster heavily (small range) to force same-instant
            // ties.
            let mut next = xorshift(at_salt);
            let mut c = Checked::new();
            for seq in 0..n {
                c.push(next() % 8, seq as u64, (next() as usize) % points);
            }
            c.drain();
        }

        /// Interleaving pops *between* pushes must also respect the order
        /// among events present at each pop (drain-while-filling), with
        /// steps wide enough to cross bucket boundaries.
        #[test]
        fn prop_interleaved_pops_stay_ordered(
            n in 1usize..80,
            points in 1usize..128,
            spread in 0u32..20,
            salt in 0u64..u64::MAX,
        ) {
            let mut c = Checked::new();
            let mut next = xorshift(salt);
            let mut seq = 0u64;
            let mut last_popped: Option<u64> = None;
            let mut clock = 0u64;
            for _ in 0..n {
                // Push a small burst at non-decreasing times, then pop one.
                for _ in 0..(next() % 4) {
                    clock += next() % (3 << spread);
                    c.push(clock, seq, (next() as usize) % points);
                    seq += 1;
                }
                if let Some(at) = c.pop() {
                    prop_assert!(last_popped.is_none_or(|prev| prev <= at), "time went backwards");
                    last_popped = Some(at);
                }
            }
            c.drain();
        }
    }
}

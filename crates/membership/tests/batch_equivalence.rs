//! Batch-join equivalence: the contracts that make coalescing safe,
//! property-tested in the ShardedQueue proptest style.
//!
//! * A batch of size 1 reproduces the classic solo join **bit for bit**
//!   (routing tables, statuses, backpointers) — and by induction any
//!   sequence of singleton waves, in any admission order, reproduces the
//!   same solo joins applied sequentially.
//! * For arbitrary interleavings — any grouping into waves, any
//!   admission order — the §4.4 guarantees hold unconditionally: same
//!   final membership as the sequential run, Property 1, and Theorem 2
//!   root agreement. Byte-level table identity *cannot* hold for true
//!   concurrency even in principle: concurrent admission removes a
//!   completed earlier join from a later join's surrogate discovery and
//!   table copy, and the concurrent Fig. 4 builds are schedule-sensitive
//!   exactly like the paper's own §4.4 simultaneous insertions (which
//!   claim correctness, not table identity with a sequential run).

use proptest::prelude::*;
use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_metric::TorusSpace;
use tapestry_sim::NodeIdx;

/// Paper-default config with an explicit candidate-list size large
/// enough that `KeepClosestK` never truncates at test populations.
fn cfg() -> TapestryConfig {
    TapestryConfig { list_size_k: Some(64), ..Default::default() }
}

fn boot(total: usize, n0: usize, seed: u64) -> TapestryNetwork {
    let space = TorusSpace::random(total, 1000.0, seed);
    TapestryNetwork::bootstrap(cfg(), Box::new(space), seed, n0)
}

/// Every member's full routing table, bit-exact: `(member, level, digit,
/// entry, distance bits)` rows in deterministic order.
fn table_fingerprint(net: &TapestryNetwork) -> Vec<(NodeIdx, usize, u8, NodeIdx, u64)> {
    let mut out = Vec::new();
    for &m in net.members() {
        let node = net.node(m).expect("member alive");
        let t = node.table();
        for l in 0..t.levels() {
            for j in 0..t.base() as u8 {
                for (r, d) in t.slot(l, j).iter_with_dist() {
                    out.push((m, l, j, r.idx, d.to_bits()));
                }
            }
        }
    }
    out
}

/// Run one join through the deferred + shared-wave machinery (a wave of
/// size 1) and drain.
fn batched_single_join(net: &mut TapestryNetwork, idx: NodeIdx, gateway: NodeIdx) {
    net.insert_node_deferred(idx, gateway);
    net.run_to_idle();
    let (insertee, surrogate) = net.batch_join_ready(idx).expect("discovery finished");
    net.launch_batch_multicast(surrogate.idx, vec![insertee]);
    net.run_to_idle();
    assert!(net.finish_insert_bookkeeping(idx), "batched join completed");
}

/// The byte-compare contract: a wave carrying exactly one insertee is
/// indistinguishable — in every routing table of every node — from the
/// classic solo insertion it replaces.
#[test]
fn batch_of_one_is_byte_identical_to_solo_join() {
    for seed in [3u64, 17, 99] {
        let n0 = 32;
        let mut solo = boot(n0 + 1, n0, seed);
        let mut batched = boot(n0 + 1, n0, seed);
        let gw = solo.members()[0];

        solo.insert_node_via(n0, gw);
        solo.run_to_idle();
        assert!(solo.finish_insert_bookkeeping(n0), "solo join completed");

        batched_single_join(&mut batched, n0, gw);

        assert_eq!(
            table_fingerprint(&solo),
            table_fingerprint(&batched),
            "seed {seed}: batch-of-1 diverged from the solo join"
        );
        assert_eq!(solo.members(), batched.members());
        // Backpointers too: the §2.1 forward/backward pairing must come
        // out the same.
        for &m in solo.members() {
            let a: Vec<_> = solo.node(m).unwrap().backpointers().collect();
            let b: Vec<_> = batched.node(m).unwrap().backpointers().collect();
            assert_eq!(a, b, "seed {seed}: backpointers diverged at {m}");
        }
    }
}

/// Sequential reference: classic solo joins, one at a time, in `order`.
fn sequential_reference(total: usize, n0: usize, seed: u64, order: &[NodeIdx]) -> TapestryNetwork {
    let mut net = boot(total, n0, seed);
    let gw = net.members()[0];
    for &idx in order {
        net.insert_node_via(idx, gw);
        net.run_to_idle();
        assert!(net.finish_insert_bookkeeping(idx), "sequential join {idx}");
    }
    net
}

/// Apply the same joins through coalesced waves: `order` permutes the
/// join set, `splits` cuts it into consecutive waves.
fn batched_interleaving(
    total: usize,
    n0: usize,
    seed: u64,
    order: &[NodeIdx],
    splits: u64,
) -> TapestryNetwork {
    let mut net = boot(total, n0, seed);
    let gw = net.members()[0];
    let mut wave: Vec<NodeIdx> = Vec::new();
    for (i, &idx) in order.iter().enumerate() {
        wave.push(idx);
        // Bit i of `splits` closes the wave after this member.
        let close = i + 1 == order.len() || (splits >> (i % 64)) & 1 == 1;
        if !close {
            continue;
        }
        for &w in &wave {
            net.insert_node_deferred(w, gw);
        }
        net.run_to_idle();
        let ready: Vec<_> = wave.iter().map(|&w| net.batch_join_ready(w).expect("ready")).collect();
        let initiator = ready[0].1.idx;
        net.launch_batch_multicast(initiator, ready.into_iter().map(|(i, _)| i).collect());
        net.run_to_idle();
        for &w in &wave {
            assert!(net.finish_insert_bookkeeping(w), "batched join {w}");
        }
        wave.clear();
    }
    net
}

/// Deterministic Fisher–Yates permutation of `n0..total` driven by `perm`.
fn join_order(n0: usize, total: usize, perm: u64) -> Vec<NodeIdx> {
    let mut order: Vec<NodeIdx> = (n0..total).collect();
    let mut state = perm | 1;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Singleton waves in any admission order are byte-identical to the
    /// same solo joins applied sequentially — the inductive extension of
    /// `batch_of_one_is_byte_identical_to_solo_join` across a sequence.
    #[test]
    fn singleton_waves_match_solo_sequence(
        seed in 0u64..10_000,
        n0 in 12usize..=20,
        joins in 2usize..=5,
        perm in 0u64..u64::MAX,
    ) {
        let total = n0 + joins;
        let order = join_order(n0, total, perm);
        let reference = sequential_reference(total, n0, seed, &order);
        // splits = all ones ⇒ every wave carries exactly one insertee.
        let batched = batched_interleaving(total, n0, seed, &order, u64::MAX);
        let same = table_fingerprint(&reference) == table_fingerprint(&batched);
        prop_assert!(same, "singleton waves diverged from solo joins for order {:?}", order);
    }

    /// Arbitrary interleavings — any grouping, any order — preserve the
    /// §4.4 guarantees against the sequential run: same membership,
    /// Property 1, Theorem 2 root agreement.
    #[test]
    fn any_interleaving_preserves_membership_and_invariants(
        seed in 0u64..10_000,
        n0 in 12usize..=20,
        joins in 2usize..=5,
        perm in 0u64..u64::MAX,
        splits in 0u64..u64::MAX,
    ) {
        let total = n0 + joins;
        let order = join_order(n0, total, perm);
        let reference = sequential_reference(total, n0, seed, &order);
        let batched = batched_interleaving(total, n0, seed, &order, splits);
        prop_assert_eq!(reference.members(), batched.members());
        prop_assert!(batched.check_property1().is_empty(), "Property 1 after batched joins");
        for probe in 0..3u64 {
            let target = tapestry_id::Id::from_u64(
                reference.config().space,
                seed.wrapping_mul(0x9E37_79B9).wrapping_add(probe),
            );
            prop_assert!(batched.distinct_roots(&target).len() == 1, "Theorem 2 after batching");
        }
    }
}

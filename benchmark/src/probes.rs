//! Microprobes: timings of calls the drive loop cannot isolate because
//! they only ever run nested inside another layer's call. Each runs on
//! the live state the traced pass left behind.

use crate::api::{Id, NodeIdx, SeedableRng, ShardedQueue, SimTime, StdRng, TapestryNetwork};
use crate::stats::median;
use crate::workloads::Size;
use std::hint::black_box;
use std::time::Instant;

/// The engine's queue geometry (`NODES_PER_SHARD`, `MAX_SHARDS` in
/// `tapestry_sim::engine`, private there), so the probe times the shape
/// the engine actually uses.
const NODES_PER_SHARD: usize = 1024;
const MAX_SHARDS: usize = 16;

/// Run every probe; rows are `(per-layer metric name, value)`.
pub fn all(net: &TapestryNetwork, seed: u64, size: Size) -> Vec<(&'static str, f64)> {
    let scale: u64 = if size == Size::Smoke { 10 } else { 1 };
    let (build_us, closest_k_ns) = index(net, 100_000 / scale as usize);
    vec![
        ("metric.index.build_us", build_us),
        ("metric.index.closest_k_ns", closest_k_ns),
        ("core.routing_table.next_hop_ns", next_hop(net, seed)),
        ("sim.shard.push_pop_ns", shard_push_pop(net.members().len(), 1_000_000 / scale)),
    ]
}

/// Evenly strided sample of at most `cap` live members.
fn strided(net: &TapestryNetwork, cap: usize) -> Vec<NodeIdx> {
    let members = net.members();
    let step = members.len().div_ceil(cap).max(1);
    members.iter().copied().step_by(step).collect()
}

/// `build_index` over up to 4 096 members of the live space (median of
/// five builds, µs) and `closest_k(q, 3)` on that index (ns per query).
fn index(net: &TapestryNetwork, queries: usize) -> (f64, f64) {
    let metric = net.engine().metric();
    let members = strided(net, 4096);
    let mut builds = Vec::new();
    for _ in 0..5 {
        let input = members.clone();
        let t0 = Instant::now();
        black_box(metric.build_index(input));
        builds.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let ix = metric.build_index(members.clone());
    let t0 = Instant::now();
    for i in 0..queries {
        black_box(ix.closest_k(black_box(members[i % members.len()]), 3));
    }
    (median(&builds), t0.elapsed().as_secs_f64() * 1e9 / queries as f64)
}

/// `RoutingTable::next_hop` from level 0 on up to 1 024 live tables ×
/// 256 random targets, ns per call.
fn next_hop(net: &TapestryNetwork, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let targets: Vec<Id> = (0..256).map(|_| Id::random(net.config().space, &mut rng)).collect();
    let tables: Vec<_> =
        strided(net, 1024).into_iter().filter_map(|m| net.node(m)).map(|n| n.table()).collect();
    let t0 = Instant::now();
    for table in &tables {
        for target in &targets {
            black_box(table.next_hop(black_box(target), 0, None));
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / (tables.len() * targets.len()) as f64
}

/// `ShardedQueue`: `n` pushes with engine-like keys, then `n` pops; ns
/// per push + pop pair.
fn shard_push_pop(points: usize, n: u64) -> f64 {
    let mut q: ShardedQueue<u64> = ShardedQueue::new(points, NODES_PER_SHARD, MAX_SHARDS);
    let t0 = Instant::now();
    for seq in 1..=n {
        // Due times scatter over a window like in-flight deliveries do;
        // the multiplier is odd, so the low bits cycle through all values.
        let at = SimTime(seq.wrapping_mul(0x9E37_79B9) & 0xF_FFFF);
        q.push(at, seq, (seq as usize).wrapping_mul(7919) % points, seq);
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

//! Microbenchmarks of the scale-pass hot paths: surrogate-routing
//! `next_hop` on a realistically filled table, nearest-neighbor queries
//! through the coordinate index vs the brute-force scan, the static
//! bootstrap and the Property 1/2 sweeps on a 4 096-node mesh, the
//! routing table's whole-table passes, name comparison and the object
//! store at the size a node's is, raw engine
//! event dispatch, a send from inside a handler, a counter bump, the
//! event queue at the two depths the benchmark workloads show, and the
//! driver's per-event result collection. These
//! are the inner loops a 10k-node scenario run spends its time in; the
//! scale sweep (`sweeps/scale.spec`) measures them end to end, this file
//! isolates them.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tapestry_core::{
    NodeRef, ObjectStore, PtrEntry, RoutingTable, TapestryConfig, TapestryNetwork,
};
use tapestry_id::Guid;
use tapestry_id::{Id, IdSpace};
use tapestry_metric::{closest_k, MetricSpace, RingSpace, TorusSpace};
use tapestry_sim::{Actor, Ctx, Engine, NodeIdx, ShardedQueue, SimStats, SimTime};
use tapestry_trace::metrics;

const N: usize = 4096;

fn bench_nearest(c: &mut Criterion) {
    let space = TorusSpace::random(N, 8000.0, 7);
    let members: Vec<usize> = (0..N).collect();
    let index = space.build_index(members.clone());
    c.bench_function("metric/closest3_brute_4096", |b| {
        let mut q = 0usize;
        b.iter(|| {
            q = (q + 1) % N;
            black_box(closest_k(&space, q, &members, 3))
        })
    });
    c.bench_function("metric/closest3_index_4096", |b| {
        let mut q = 0usize;
        b.iter(|| {
            q = (q + 1) % N;
            black_box(index.closest_k(q, 3))
        })
    });
    c.bench_function("metric/nearest_index_4096", |b| {
        let mut q = 0usize;
        b.iter(|| {
            q = (q + 1) % N;
            black_box(index.nearest(q))
        })
    });
    c.bench_function("metric/ball_index_4096", |b| {
        let mut q = 0usize;
        b.iter(|| {
            q = (q + 1) % N;
            black_box(index.ball_size(q, 200.0))
        })
    });
    c.bench_function("metric/build_index_4096", |b| {
        b.iter(|| black_box(space.build_index(members.clone())))
    });
    // A `(prefix, digit)` group from the third level of a mesh down: six
    // members, the regime most slot queries of a bootstrap run in. One
    // iteration is `GROUP_QUERIES` queries — a single one is below the
    // timer's resolution — so divide these two rows by that.
    const GROUP_QUERIES: usize = 1000;
    let group = space.build_index((0..N).step_by(N / 6).take(6).collect());
    c.bench_function("metric/nearest_group6", |b| {
        b.iter(|| {
            for q in 0..GROUP_QUERIES {
                black_box(group.nearest(black_box(q)));
            }
        })
    });
    c.bench_function("metric/closest3_group6", |b| {
        b.iter(|| {
            for q in 0..GROUP_QUERIES {
                black_box(group.closest_k(black_box(q), 3));
            }
        })
    });
}

/// The global-knowledge layer on a 4 096-node mesh: the whole static
/// build (a fresh network per iteration, its drop included), its last
/// stage alone, and the two between-phase sweeps.
fn bench_global_knowledge(c: &mut Criterion) {
    let space = TorusSpace::random(N, 8000.0, 7);
    c.bench_function("core/static_populate_4096", |b| {
        b.iter_batched(
            || Box::new(space.clone()),
            |space| TapestryNetwork::build(TapestryConfig::default(), space, 7),
            BatchSize::PerIteration,
        )
    });
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space.clone()), 7);
    c.bench_function("core/backpointers_4096", |b| b.iter(|| net.rebuild_backpointers()));
    c.bench_function("core/check_property1_4096", |b| b.iter(|| black_box(net.check_property1())));
    c.bench_function("core/check_property2_4096", |b| b.iter(|| black_box(net.check_property2())));
    bench_store(c, net);
}

/// The object store as a node of the 4 096-node mesh holds it after
/// `N / 2` objects were published: one lookup that finds its pointers,
/// and depositing every pointer of the mesh into empty stores (one
/// iteration is all of them, node by node).
fn bench_store(c: &mut Criterion, mut net: TapestryNetwork) {
    for _ in 0..N / 2 {
        let (server, guid) = (net.random_member(), net.random_guid());
        net.publish(server, guid);
    }
    let now = net.engine().now();
    let stores: Vec<&ObjectStore> =
        net.members().iter().map(|&m| net.node(m).expect("member").store()).collect();
    let held: Vec<(usize, Guid, PtrEntry)> = stores
        .iter()
        .enumerate()
        .flat_map(|(at, st)| st.iter().map(move |(g, e)| (at, g, *e)))
        .collect();
    c.bench_function("store/lookup_hit_4096", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 61) % held.len();
            let (at, guid, _) = held[i];
            black_box(stores[at].lookup(black_box(guid), now).count())
        })
    });
    c.bench_function("store/deposit_4096", |b| {
        b.iter(|| {
            let mut fresh = vec![ObjectStore::new(); N];
            for &(at, guid, entry) in &held {
                fresh[at].deposit(guid, entry);
            }
            black_box(fresh)
        })
    });
}

/// Names as the routing and bootstrap loops use them: where two names
/// diverge, and which sorts first. Half the pairs share a few digits.
fn bench_id(c: &mut Criterion) {
    let s = IdSpace::base16();
    let mut rng = StdRng::seed_from_u64(3);
    let pairs: Vec<(Id, Id)> = (0..256)
        .map(|i| {
            let a = Id::random(s, &mut rng);
            let mut b = Id::random(s, &mut rng);
            for l in 0..i % 8 {
                b = b.with_digit(l, a.digit(l));
            }
            (a, b)
        })
        .collect();
    c.bench_function("id/shared_prefix_len", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % pairs.len();
            black_box(black_box(&pairs[i].0).shared_prefix_len(black_box(&pairs[i].1)))
        })
    });
    c.bench_function("id/cmp", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % pairs.len();
            black_box(black_box(&pairs[i].0).cmp(black_box(&pairs[i].1)))
        })
    });
}

/// A table that has been offered `N - 1` random nodes, three to a slot.
fn offered_table(candidates: &[NodeRef]) -> RoutingTable {
    let mut table = RoutingTable::new(candidates[0], 16, 8);
    for (i, &r) in candidates.iter().enumerate().skip(1) {
        table.add_if_closer(r, (i % 997) as f64, 3);
    }
    table
}

fn random_refs(rng: &mut StdRng) -> Vec<NodeRef> {
    (0..N).map(|i| NodeRef::new(i, Id::random(IdSpace::base16(), rng))).collect()
}

/// The routing table's whole-table passes: the dynamic
/// `AddToTableIfCloser` stream that fills it, the membership test behind
/// every eviction and failed contact, and a departed node's removal.
fn bench_table(c: &mut Criterion) {
    let candidates = random_refs(&mut StdRng::seed_from_u64(2));
    c.bench_function("core/add_if_closer_dynamic_4096", |b| {
        b.iter(|| black_box(offered_table(&candidates)))
    });
    let table = offered_table(&candidates);
    let held: Vec<NodeIdx> = table.all_refs().iter().map(|r| r.idx).collect();
    c.bench_function("core/table_contains_4096", |b| {
        // Half the probes are held, half are not (a full scan).
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % held.len();
            black_box(table.contains(held[i])) ^ black_box(table.contains(N + i))
        })
    });
    c.bench_function("core/table_remove_node_4096", |b| {
        // The copy is made and dropped in the untimed set-up.
        let scratch = std::cell::RefCell::new(table.clone());
        let mut i = 0usize;
        b.iter_batched(
            || *scratch.borrow_mut() = table.clone(),
            |()| {
                i = (i + 1) % held.len();
                black_box(scratch.borrow_mut().remove_node(held[i]))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_next_hop(c: &mut Criterion) {
    let s = IdSpace::base16();
    let mut rng = StdRng::seed_from_u64(2);
    let table = offered_table(&random_refs(&mut rng));
    let targets: Vec<Id> = (0..256).map(|_| Id::random(s, &mut rng)).collect();
    c.bench_function("route/next_hop_filled_table", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(table.next_hop(&targets[i], 0, None))
        })
    });
    c.bench_function("route/next_hop_prr_filled_table", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(table.next_hop_prr(&targets[i], 0, None, false))
        })
    });
}

/// Minimal bounce actor for raw dispatch throughput.
struct Bouncer {
    peer: NodeIdx,
}

impl Actor for Bouncer {
    type Msg = u32;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _from: NodeIdx, msg: u32) {
        if msg > 0 {
            ctx.send(self.peer, msg - 1);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, ()>, _timer: ()) {}
}

fn bench_engine_dispatch(c: &mut Criterion) {
    c.bench_function("engine/dispatch_256_events", |b| {
        let space = RingSpace::even(2, 100.0);
        let mut e = Engine::new(Box::new(space), SimTime(1));
        e.add_node(0, Bouncer { peer: 1 });
        e.add_node(1, Bouncer { peer: 0 });
        b.iter(|| {
            e.inject(0, 255);
            black_box(e.run_until_idle(10_000))
        })
    });
}

/// A payload the size of the protocol's `Msg` (144 bytes), forwarded on
/// every receipt.
struct Relay;

impl Actor for Relay {
    type Msg = [u64; 18];
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg, ()>, _from: NodeIdx, msg: Self::Msg) {
        ctx.send((ctx.me * 7 + 1) % RELAYS, msg);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg, ()>, _timer: ()) {}
}

const RELAYS: usize = 1024;

/// What one protocol message costs the engine: pop, dispatch, and a
/// handler that sends one `Msg`-sized message on (accounted and pushed
/// from inside the handler). `engine/dispatch_256_events` does the same
/// with a 4-byte payload and one event pending; here 1 024 messages stay
/// in flight, `locate-steady`'s depth. One iteration is `RELAY_EVENTS`
/// events, so divide the row by that.
fn bench_send_deliver(c: &mut Criterion) {
    const RELAY_EVENTS: u64 = 100_000;
    let space = RingSpace::even(RELAYS, 8192.0);
    let mut e = Engine::new(Box::new(space), SimTime(1));
    for i in 0..RELAYS {
        e.add_node(i, Relay);
        e.inject(i, [i as u64; 18]);
    }
    c.bench_function("engine/send_deliver", |b| {
        b.iter(|| black_box(e.run_until_idle(RELAY_EVENTS)))
    });
}

/// A counter bump as handlers issue it: eight hot handles in turn over a
/// store every registered counter has touched. One iteration is `BUMPS`
/// bumps, so divide the row by that.
fn bench_counter_bump(c: &mut Criterion) {
    const BUMPS: usize = 100_000;
    let hot = [
        metrics::ROUTE_HOPS,
        metrics::LOCATE_FOUND,
        metrics::PUBLISH_ROOTED,
        metrics::JOIN_MESSAGES,
        metrics::MULTICAST_EDGES,
        metrics::REPAIR_PINGS,
        metrics::REPAIR_FACTS,
        metrics::REPAIR_EVENTS,
    ];
    let mut stats = SimStats::default();
    for counter in metrics::counters() {
        counter.add_to(&mut stats, 1);
    }
    c.bench_function("stats/counter_bump", |b| {
        b.iter(|| {
            for i in 0..BUMPS {
                black_box(hot[i % hot.len()]).add_to(&mut stats, 1);
            }
            black_box(metrics::REPAIR_EVENTS.read(&stats))
        })
    });
}

/// The event queue in steady state at a fixed depth: pop the next event,
/// push one due a delivery latency later. `engine/dispatch_256_events`
/// keeps one event pending, so it sees neither regime the benchmark
/// workloads run in — ~1.2 k pending on `locate-steady`, 556 k after a
/// probe round on `churn-repair`. The payload is 192 bytes, the size of
/// an engine event plus its node key; due times scatter over 8 192
/// distance units like in-flight deliveries on the scenario spaces. One
/// iteration is `QUEUE_PAIRS` pop + push pairs — a single pair is below
/// the timer's resolution — so divide the row by that.
fn bench_queue(c: &mut Criterion) {
    const QUEUE_PAIRS: usize = 100_000;
    const POINTS: usize = 5_000;
    type Payload = [u64; 24];
    for (name, depth) in
        [("queue/push_pop_deep_500k", 500_000u64), ("queue/push_pop_shallow_1k", 1_000)]
    {
        // The engine's geometry: 1 024 nodes per range, at most 16.
        let mut q: ShardedQueue<Payload> = ShardedQueue::new(POINTS, 1024, 16);
        let mut seq = 0u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut push = |q: &mut ShardedQueue<Payload>, now: SimTime| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            seq += 1;
            let latency = SimTime(1 + (x >> 16) % (8192 * 1024));
            q.push(now + latency, seq, (x % POINTS as u64) as usize, [seq; 24]);
        };
        for _ in 0..depth {
            push(&mut q, SimTime::ZERO);
        }
        c.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..QUEUE_PAIRS {
                    let event = black_box(q.pop().expect("depth stays constant"));
                    push(&mut q, event.0);
                }
                black_box(q.len())
            })
        });
    }
}

/// What a driver pays per scheduled event to learn that no locate has
/// finished, with 1 000 locates in flight from 1 000 origins (issued,
/// engine not advanced): one drain of the completion feed, against one
/// polling pass of `take_results` over the origins. Each iteration makes
/// 1 000 feed calls — one is below the timer's resolution — so divide
/// that row by 1 000 before comparing.
fn bench_collect_idle(c: &mut Criterion) {
    const IN_FLIGHT: usize = 1000;
    let space = TorusSpace::random(N, 8000.0, 7);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 7);
    let guid = net.random_guid();
    net.publish(0, guid);
    for origin in 0..IN_FLIGHT {
        net.locate_async(origin, guid);
    }
    c.bench_function("network/take_completed_idle_1000_in_flight_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(net.take_completed());
            }
        })
    });
    c.bench_function("network/take_results_poll_1000_origins", |b| {
        b.iter(|| {
            for origin in 0..IN_FLIGHT {
                black_box(net.take_results(origin));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_nearest,
    bench_global_knowledge,
    bench_table,
    bench_id,
    bench_next_hop,
    bench_engine_dispatch,
    bench_send_deliver,
    bench_counter_bump,
    bench_queue,
    bench_collect_idle
);
criterion_main!(benches);

//! The workspace's layer rows, one Criterion target. Microbenchmarks of
//! the scale-pass hot paths: surrogate-routing `next_hop` on a
//! realistically filled table and whole routes to the root on a 4 096-node
//! mesh, nearest-neighbor queries through the coordinate index vs the
//! brute-force scan, the static bootstrap and the Property 1/2 sweeps on a
//! 4 096-node mesh, the routing table's whole-table passes, name
//! comparison, conversion and root mapping, and the object store at the
//! size a node's is, raw engine event dispatch, a send from inside a
//! handler, a fan-out of one message to 100 targets against a loop of
//! sends, a counter bump, a histogram sample, the event queue at the two
//! depths the benchmark workloads show, and the driver's per-event result
//! collection. These are the inner loops a 10k-node scenario run spends
//! its time in; the scale sweep (`sweeps/scale.spec`) measures them end
//! to end, this file isolates them.
//!
//! Then whole operations on small networks: static construction,
//! publication and location on a prebuilt mesh (`overlay/*`, the Figs. 2–3
//! operations), a join (Fig. 7, with the acknowledged multicast and the
//! Fig. 4 table build), a voluntary departure (Fig. 12) and a probe round
//! after a kill (`dynamics/*`), and the Table 1 comparison schemes: Chord,
//! CAN and Pastry lookups and Pastry joins (`baselines/*`), and §7's
//! PRR v.0 build, publish and level-descending lookup (`prrv0/*`).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem::size_of;
use std::sync::Arc;
use tapestry_baselines::{Can, Chord, LocatorSystem, Pastry, PrrV0};
use tapestry_core::{
    Hop, Msg, Names, ObjectStore, PtrEntry, RoutingTable, TapestryConfig, TapestryNetwork,
};
use tapestry_id::{map_roots, Guid, Id, IdSpace};
use tapestry_metric::{closest_k, MetricSpace, RingSpace, TorusSpace};
use tapestry_sim::{
    Actor, Ctx, Engine, Histogram, NodeIdx, ShardedQueue, SimStats, SimTime, EXTERNAL,
};
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
/// stage alone, and the two between-phase sweeps. Property 2 is timed
/// twice: on the bootstrap's membership, where it reads the nearest
/// members the build recorded, and after one kill, where it pays the
/// full indexed sweep.
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
    let mut killed = TapestryNetwork::build(TapestryConfig::default(), Box::new(space.clone()), 7);
    killed.kill(killed.members()[N / 2]);
    c.bench_function("core/check_property2_indexed_4096", |b| {
        b.iter(|| black_box(killed.check_property2()))
    });
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
            black_box(stores[at].lookup(black_box(guid)).count())
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
/// diverge, and which sorts first (half the pairs share a few digits);
/// the `u64` round trip, and an object's four root names.
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
    c.bench_function("id/from_u64_roundtrip", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(0x9E37_79B9);
            black_box(Id::from_u64(s, v & 0xFFFF_FFFF).to_u64())
        })
    });
    c.bench_function("id/map_roots_4", |b| {
        let g = Guid::from_u64(s, 0xDEAD_BEEF);
        b.iter(|| black_box(map_roots(s, g, 4)))
    });
}

/// Point 0's table, offered the `N - 1` other points of `names`, three
/// to a slot; point `i` lies `i mod 997` from point 0, on a line.
fn offered_table(names: &Names) -> RoutingTable {
    let line = (0..names.len()).map(|i| ((i % 997) as f64, 0.0)).collect();
    let metric = Arc::new(TorusSpace::from_points(line, 1e9));
    let mut table = RoutingTable::new(names.clone(), metric, 0, 16, 8);
    for i in 1..names.len() {
        table.add_if_closer(names.nref(i), 3);
    }
    table
}

/// `N` random names.
fn random_names(rng: &mut StdRng) -> Names {
    Names::new((0..N).map(|_| Id::random(IdSpace::base16(), rng)).collect())
}

/// The routing table's whole-table passes: the dynamic
/// `AddToTableIfCloser` stream that fills it, the membership test behind
/// every eviction and failed contact, and a departed node's removal.
fn bench_table(c: &mut Criterion) {
    let names = random_names(&mut StdRng::seed_from_u64(2));
    c.bench_function("core/add_if_closer_dynamic_4096", |b| {
        b.iter(|| black_box(offered_table(&names)))
    });
    let table = offered_table(&names);
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

/// Surrogate routing: one `next_hop` from level 0 on a full table, and
/// whole routes on a 4 096-node mesh. The single call starts where every
/// level is filled; a route also ends at its root, where the deep levels
/// hold the owner alone and `next_hop` answers `Root` without scanning
/// them. One `route/walk_to_root_4096` iteration is 256 routes — each
/// target from an origin 16 members past the last — followed from table
/// to table until `Root`, so divide the row by 256.
fn bench_next_hop(c: &mut Criterion) {
    let s = IdSpace::base16();
    let mut rng = StdRng::seed_from_u64(2);
    let table = offered_table(&random_names(&mut rng));
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
    let net = TapestryNetwork::build(
        TapestryConfig::default(),
        Box::new(TorusSpace::random(N, 8000.0, 7)),
        7,
    );
    let members = net.members();
    c.bench_function("route/walk_to_root_4096", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for (i, target) in targets.iter().enumerate() {
                let (mut at, mut level) = (members[i * 16 % members.len()], 0);
                while let Hop::Forward(next, resolved) =
                    net.node(at).expect("a member").table().next_hop(target, level, None)
                {
                    (at, level, hops) = (next.idx, resolved, hops + 1);
                }
            }
            black_box(hops)
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
        let mut e = Engine::new(Box::new(space));
        e.add_node(0, Bouncer { peer: 1 });
        e.add_node(1, Bouncer { peer: 0 });
        b.iter(|| {
            e.inject(0, 255);
            black_box(e.run_until_idle(10_000))
        })
    });
}

/// Words of a payload the size of the protocol's `Msg`.
const MSG_WORDS: usize = size_of::<Msg>() / 8;

/// A payload the size of the protocol's `Msg`, forwarded on every
/// receipt.
struct Relay;

impl Actor for Relay {
    type Msg = [u64; MSG_WORDS];
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
    let mut e = Engine::new(Box::new(space));
    for i in 0..RELAYS {
        e.add_node(i, Relay);
        e.inject(i, [i as u64; MSG_WORDS]);
    }
    c.bench_function("engine/send_deliver", |b| {
        b.iter(|| black_box(e.run_until_idle(RELAY_EVENTS)))
    });
}

/// Targets per fan-out in the `engine/send_*_100_targets` rows.
const FAN_TARGETS: usize = 100;

/// A sender that answers an external message by sending a `Msg`-sized
/// payload to `FAN_TARGETS` distinct nodes — with one `send_each` when
/// `fan` is set, with a loop of `send` otherwise — like a probe round's
/// pings. Node-to-node messages end there.
struct Caster {
    fan: bool,
}

impl Actor for Caster {
    type Msg = [u64; MSG_WORDS];
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg, ()>, from: NodeIdx, msg: Self::Msg) {
        if from != EXTERNAL {
            return;
        }
        let me = ctx.me;
        let targets = (1..=FAN_TARGETS).map(move |j| (me + j * 7) % RELAYS);
        if self.fan {
            ctx.send_each(targets, msg);
        } else {
            for to in targets {
                ctx.send(to, msg);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg, ()>, _timer: ()) {}
}

/// What a delivery costs when it is one of a fan-out: 1 000 nodes each
/// send one message to 100 targets at the same instant — a probe round in
/// miniature, 100 000 deliveries pending at the peak — and the engine
/// drains them, once through `send_each` records and once through a loop
/// of `send`. One iteration is `FANOUTS * FAN_TARGETS` = 100 000
/// deliveries (plus the 1 000 injections), so divide the row by that.
fn bench_send_each(c: &mut Criterion) {
    const FANOUTS: usize = 1000;
    for (name, fan) in
        [("engine/send_each_100_targets", true), ("engine/send_loop_100_targets", false)]
    {
        let space = RingSpace::even(RELAYS, 8192.0);
        let mut e = Engine::new(Box::new(space));
        for i in 0..RELAYS {
            e.add_node(i, Caster { fan });
        }
        c.bench_function(name, |b| {
            b.iter(|| {
                for i in 0..FANOUTS {
                    e.inject(i, [i as u64; MSG_WORDS]);
                }
                black_box(e.run_until_idle(u64::MAX))
            })
        });
    }
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

/// A histogram sample as the runner records a locate's latency: one to
/// six hops of up to 8 192 distance units each, in 1/1 024 units. One
/// iteration is `RECORDS` samples into one histogram, so divide the row
/// by that.
fn bench_histogram_record(c: &mut Criterion) {
    const RECORDS: usize = 100_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let samples: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let hops = 1 + x % 6;
            (0..hops).map(|h| 1 + (x >> (8 + 4 * h)) % (8192 * 1024)).sum()
        })
        .collect();
    let mut h = Histogram::new();
    c.bench_function("stats/histogram_record", |b| {
        b.iter(|| {
            for i in 0..RECORDS {
                h.record(black_box(samples[i % samples.len()]));
            }
            black_box(h.count())
        })
    });
}

/// The event queue in steady state at a fixed depth: pop the next event,
/// push one due a delivery latency later. `engine/dispatch_256_events`
/// keeps one event pending, so it sees neither regime the benchmark
/// workloads run in — ~1.2 k pending on `locate-steady`, 556 k after a
/// probe round on `churn-repair` while each ping was its own entry (one
/// `send_each` record per node now holds a round's pings; see
/// `bench_send_each`). The payload is the size of a delivery
/// event, a `Msg` and its sender; due times scatter over 8 192 distance
/// units like in-flight deliveries on the scenario spaces. One iteration
/// is `QUEUE_PAIRS` pop + push pairs — a single pair is below the timer's
/// resolution — so divide the row by that.
fn bench_queue(c: &mut Criterion) {
    const QUEUE_PAIRS: usize = 100_000;
    const POINTS: usize = 5_000;
    const EVENT_WORDS: usize = MSG_WORDS + 1;
    type Payload = [u64; EVENT_WORDS];
    for (name, depth) in
        [("queue/push_pop_deep_500k", 500_000u64), ("queue/push_pop_shallow_1k", 1_000)]
    {
        // One queue for the whole run; `new` reads none of its arguments.
        let mut q: ShardedQueue<Payload> = ShardedQueue::new(POINTS, 1024, 16);
        let mut seq = 0u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut push = |q: &mut ShardedQueue<Payload>, now: SimTime| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            seq += 1;
            let latency = SimTime(1 + (x >> 16) % (8192 * 1024));
            q.push(now + latency, seq, (x % POINTS as u64) as usize, [seq; EVENT_WORDS]);
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
    // The row id keeps the feed call's old name, which README quotes.
    c.bench_function("network/take_completed_idle_1000_in_flight_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(net.drain_results());
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

/// A static mesh of `n` random points on a 1 000-unit torus.
fn build_net(n: usize, seed: u64) -> TapestryNetwork {
    let space = TorusSpace::random(n, 1000.0, seed);
    TapestryNetwork::build(TapestryConfig::default(), Box::new(space), seed)
}

/// Whole overlay operations: a static build, one publication (on a fresh
/// network per iteration) and one location, each including its simulated
/// message exchange.
fn bench_overlay(c: &mut Criterion) {
    c.bench_function("overlay/static_build_128", |b| b.iter(|| black_box(build_net(128, 3))));
    c.bench_function("overlay/publish_256", |b| {
        b.iter_batched(
            || build_net(256, 4),
            |mut net| {
                let g = net.random_guid();
                net.publish(net.node_ids()[7], g);
                black_box(net)
            },
            BatchSize::SmallInput,
        )
    });
    let mut net = build_net(256, 5);
    let mut guids = Vec::new();
    for i in 0..32 {
        let g = net.random_guid();
        net.publish(net.node_ids()[i * 7], g);
        guids.push(g);
    }
    c.bench_function("overlay/locate_256", |b| {
        let mut q = 0usize;
        b.iter(|| {
            q += 1;
            let origin = net.node_ids()[(q * 13) % 256];
            black_box(net.locate(origin, guids[q % guids.len()]))
        })
    });
}

/// A network of the first `n0` of `n_total` torus points, the rest free
/// to join.
fn boot(n_total: usize, n0: usize, seed: u64) -> TapestryNetwork {
    let space = TorusSpace::random(n_total, 1000.0, seed);
    TapestryNetwork::bootstrap(TapestryConfig::default(), Box::new(space), seed, n0)
}

/// Membership changes, each on a fresh network: one join into 128 nodes,
/// one voluntary departure, and the probe round that finds a killed node.
fn bench_dynamics(c: &mut Criterion) {
    c.bench_function("dynamics/insert_into_128", |b| {
        b.iter_batched(
            || boot(129, 128, 7),
            |mut net| {
                assert!(net.insert_node(128));
                black_box(net)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("dynamics/voluntary_leave_128", |b| {
        b.iter_batched(
            || boot(128, 128, 8),
            |mut net| {
                let m = net.node_ids()[64];
                assert!(net.leave(m));
                black_box(net)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("dynamics/probe_round_after_kill_64", |b| {
        b.iter_batched(
            || {
                let mut net = boot(64, 64, 9);
                net.kill(net.node_ids()[10]);
                net
            },
            |mut net| {
                net.probe_all();
                black_box(net)
            },
            BatchSize::SmallInput,
        )
    });
}

/// One lookup row of a Table 1 system: 32 keys published over its 256
/// members, then lookups from every 13th member in turn.
fn bench_lookup(c: &mut Criterion, name: &str, sys: &mut dyn LocatorSystem) {
    for k in 0..32u64 {
        sys.publish((k as usize * 7) % 256, k);
    }
    c.bench_function(name, |b| {
        let mut q = 0u64;
        b.iter(|| {
            q += 1;
            black_box(sys.locate((q as usize * 13) % 256, q % 32))
        })
    });
}

/// The Table 1 comparison schemes: Chord, CAN and Pastry lookups on 256
/// joined nodes, 64 Pastry joins, and PRR v.0's build, publication and
/// lookup.
fn bench_baselines(c: &mut Criterion) {
    let mut chord = Chord::for_size(256, 1);
    let mut can = Can::new(2);
    let mut pastry = Pastry::new(3);
    for p in 0..256 {
        chord.join(p);
        can.join(p);
        pastry.join(p);
    }
    bench_lookup(c, "baselines/chord_lookup_256", &mut chord);
    bench_lookup(c, "baselines/can_lookup_256", &mut can);
    bench_lookup(c, "baselines/pastry_lookup_256", &mut pastry);
    c.bench_function("baselines/pastry_join_64", |b| {
        b.iter(|| {
            let mut sys = Pastry::new(4);
            for p in 0..64 {
                sys.join(p);
            }
            black_box(sys.join_messages())
        })
    });
    c.bench_function("prrv0/build_256", |b| {
        b.iter(|| {
            let space = TorusSpace::random(256, 1000.0, 11);
            black_box(PrrV0::build(Box::new(space), (0..256).collect(), 2, 11))
        })
    });
    let space = TorusSpace::random(512, 1000.0, 12);
    let mut sys = PrrV0::build(Box::new(space), (0..512).collect(), 2, 12);
    for k in 0..64u64 {
        sys.publish((k as usize * 7) % 512, k);
    }
    c.bench_function("prrv0/publish_512", |b| {
        let mut k = 1000u64;
        b.iter(|| {
            k += 1;
            black_box(sys.publish((k as usize * 11) % 512, k))
        })
    });
    c.bench_function("prrv0/locate_512", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q += 1;
            black_box(sys.locate((q as usize * 13) % 512, q % 64))
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
    bench_send_each,
    bench_send_deliver,
    bench_counter_bump,
    bench_histogram_record,
    bench_queue,
    bench_collect_idle,
    bench_overlay,
    bench_dynamics,
    bench_baselines
);
criterion_main!(benches);

//! Microbenchmarks of the identifier algebra and the event engine — the
//! hot paths under every routed message (per the Rust Performance Book
//! guidance, these are the allocation-free inner loops worth watching).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tapestry_core::{Names, RoutingTable};
use tapestry_id::{map_roots, Guid, Id, IdSpace};
use tapestry_metric::TorusSpace;

fn bench_ids(c: &mut Criterion) {
    let s = IdSpace::base16();
    let mut rng = StdRng::seed_from_u64(1);
    let ids: Vec<Id> = (0..1024).map(|_| Id::random(s, &mut rng)).collect();
    c.bench_function("id/shared_prefix_len", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 1023;
            black_box(ids[i].shared_prefix_len(&ids[i + 1]))
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

fn bench_table(c: &mut Criterion) {
    let s = IdSpace::base16();
    let mut rng = StdRng::seed_from_u64(2);
    // Points 0..512 are random and fill point 0's table; the next 4096
    // are the newcomers `table/add_if_closer` offers, one per iteration.
    let mut ids: Vec<Id> = (0..512).map(|_| Id::random(s, &mut rng)).collect();
    ids.extend(
        (512..512 + 4096u64).map(|i| Id::from_u64(s, i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)),
    );
    let names = Names::new(ids);
    // On a line: point `i < 512` lies `i mod 97` from point 0, a newcomer 5.
    let place = |i: usize| (if i < 512 { (i % 97) as f64 } else { 5.0 }, 0.0);
    let metric = Arc::new(TorusSpace::from_points((0..names.len()).map(place).collect(), 1e9));
    let mut table = RoutingTable::new(names.clone(), metric, 0, 16, 8);
    for i in 1..512usize {
        table.add_if_closer(names.nref(i), 3);
    }
    let targets: Vec<Id> = (0..256).map(|_| Id::random(s, &mut rng)).collect();
    c.bench_function("table/next_hop", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(table.next_hop(&targets[i], 0, None))
        })
    });
    c.bench_function("table/add_if_closer", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(table.clone().add_if_closer(names.nref(512 + i), 3))
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ids, bench_table
}
criterion_main!(benches);

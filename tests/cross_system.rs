//! Workspace-level integration tests spanning crates: Tapestry, the
//! Table 1 baselines and PRR v.0 side by side on identical metric spaces.

use tapestry::baselines::{path_distance, Chord, LocatorSystem, Pastry, PrrV0};
use tapestry::prelude::*;

const N: usize = 128;
const SEED: u64 = 61;

#[test]
fn tapestry_beats_chord_on_stretch_for_nearby_objects() {
    let space = TorusSpace::random(N, 1000.0, SEED);
    let dist = space.clone();
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), SEED);
    let mut chord = Chord::for_size(N, SEED);
    for p in 0..N {
        chord.join(p);
    }
    let mut tap_near = Vec::new();
    let mut cho_near = Vec::new();
    for i in 0..12 {
        let server = (i * 17) % N;
        let guid = net.random_guid();
        net.publish(server, guid);
        chord.publish(server, i as u64);
        // Query from the metric-nearest nodes — the locality case the
        // paper's whole design targets.
        let mut origins: Vec<usize> = (0..N).filter(|&o| o != server).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "a stable sort over ascending indices: equal distances keep index order"
        )]
        origins.sort_by(|&a, &b| {
            dist.distance(server, a).partial_cmp(&dist.distance(server, b)).unwrap()
        });
        for &origin in origins.iter().take(6) {
            let d = dist.distance(origin, server);
            if d <= 0.0 {
                continue;
            }
            let r = net.locate(origin, guid).expect("completes");
            tap_near.push(r.stretch(d).expect("found"));
            let cp = chord.locate(origin, i as u64).expect("published");
            cho_near.push(path_distance(&dist, &cp) / d);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (t, c) = (mean(&tap_near), mean(&cho_near));
    assert!(
        t * 2.0 < c,
        "Tapestry should dominate Chord on nearby-object stretch: {t:.2} vs {c:.2}"
    );
}

#[test]
fn all_systems_locate_the_same_published_objects() {
    let space = TorusSpace::random(N, 1000.0, SEED + 1);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), SEED + 1);
    let mut chord = Chord::for_size(N, SEED + 1);
    let mut pastry = Pastry::new(SEED + 1);
    let prr_space = TorusSpace::random(N, 1000.0, SEED + 1);
    let mut prr = PrrV0::build(Box::new(prr_space), (0..N).collect(), 2, SEED + 1);
    for p in 0..N {
        chord.join(p);
        pastry.join(p);
    }
    for i in 0..10u64 {
        let server = (i as usize * 23) % N;
        let guid = net.random_guid();
        net.publish(server, guid);
        chord.publish(server, i);
        pastry.publish(server, i);
        prr.publish(server, i);
        let origin = (server + 31) % N;
        assert_eq!(net.locate(origin, guid).and_then(|r| r.server).map(|s| s.idx), Some(server));
        assert_eq!(*chord.locate(origin, i).unwrap().nodes.last().unwrap(), server);
        assert_eq!(*pastry.locate(origin, i).unwrap().nodes.last().unwrap(), server);
        assert_eq!(prr.locate(origin, i).server, Some(server));
    }
}

#[test]
fn space_accounting_orders_systems_as_table1_predicts() {
    // Broadcast-style full knowledge must dwarf everything; Chord must be
    // leanest; Tapestry sits in the logarithmic middle (b·log_b n·R).
    let space = TorusSpace::random(N, 1000.0, SEED + 2);
    let net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), SEED + 2);
    let mut chord = Chord::for_size(N, SEED + 2);
    for p in 0..N {
        chord.join(p);
    }
    let tap = net.snapshot().avg_table_entries;
    let cho = chord.space().avg_routing_entries;
    assert!(cho < tap, "Chord state ({cho:.1}) should be leaner than Tapestry ({tap:.1})");
    assert!(tap < (N as f64) / 2.0, "Tapestry state stays far below full membership");
}

#[test]
fn tapestry_hops_stay_logarithmic_like_pastry() {
    let space = TorusSpace::random(N, 1000.0, SEED + 3);
    let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), SEED + 3);
    let mut pastry = Pastry::new(SEED + 3);
    for p in 0..N {
        pastry.join(p);
    }
    let mut tap_hops = 0u32;
    let mut pas_hops = 0usize;
    let mut count = 0u32;
    for i in 0..10u64 {
        let server = (i as usize * 29) % N;
        let guid = net.random_guid();
        net.publish(server, guid);
        pastry.publish(server, i);
        for q in 0..8 {
            let origin = (q * 15 + 3) % N;
            if origin == server {
                continue;
            }
            tap_hops += net.locate(origin, guid).expect("completes").hops;
            pas_hops += pastry.locate(origin, i).expect("published").hops();
            count += 1;
        }
    }
    let (t, p) = (tap_hops as f64 / count as f64, pas_hops as f64 / count as f64);
    assert!(t < 6.0 && p < 6.0, "both prefix systems stay near log16 n ≈ 2: {t:.2}, {p:.2}");
}

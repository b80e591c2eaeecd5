//! **§7 / Theorem 7** — PRR v.0 on general metric spaces.
//!
//! The scheme needs no growth restriction: on both the friendly torus and
//! the clustered transit-stub metric, stretch should stay polylogarithmic
//! (`d(S_{i*,j}, X) ≤ d(X,Y)·log n` per level, O(log³ n) total in the
//! worst case) and per-node space should track O(log² n). The sweep
//! prints both metrics across n alongside the log² / log³ reference
//! columns.

use tapestry_baselines::PrrV0;
use tapestry_bench::{f2, header, parallel_sweep, percentile, row};
use tapestry_metric::{MetricSpace, TorusSpace, TransitStubSpace};

const OBJECTS: usize = 32;

fn measure(
    space: Box<dyn MetricSpace>,
    dist: Box<dyn MetricSpace>,
    n: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let mut sys = PrrV0::build(space, (0..n).collect(), 2, seed);
    let mut keys = Vec::new();
    for i in 0..OBJECTS {
        let key = i as u64 * 7919;
        sys.publish((i * 13) % n, key);
        keys.push(((i * 13) % n, key));
    }
    let mut stretch = Vec::new();
    for q in 0..(n * 2).min(512) {
        let (server, key) = keys[q % OBJECTS];
        let origin = (q * 29) % n;
        if origin == server {
            continue;
        }
        let r = sys.locate(origin, key);
        assert_eq!(r.server, Some(server), "S_0,0 guarantees a hit");
        let d = dist.distance(origin, server);
        if d > 0.0 {
            stretch.push(r.distance / d);
        }
    }
    let (avg_space, _) = sys.space_per_node();
    (percentile(&stretch, 50.0), percentile(&stretch, 95.0), avg_space)
}

fn main() {
    header(&["metric", "n", "stretch_p50", "stretch_p95", "space/node", "log2(n)^2", "log2(n)^3"]);
    let sizes = [64usize, 128, 256, 512];
    let rows = parallel_sweep(sizes.len() * 2, |job| {
        let n = sizes[job / 2];
        let seed = 17_000 + job as u64;
        if job % 2 == 0 {
            let s = TorusSpace::random(n, 1000.0, seed);
            let d = s.clone();
            ("torus2d", n, measure(Box::new(s), Box::new(d), n, seed))
        } else {
            // Shape the transit-stub population to roughly n nodes.
            let stubs = (n / 16).max(2);
            let s = TransitStubSpace::new(stubs.min(8), (stubs / 2).max(2), 16, seed);
            let d = s.clone();
            let real_n = s.len();
            ("transit-stub", real_n, measure(Box::new(s), Box::new(d), real_n, seed))
        }
    });
    for (name, n, (p50, p95, space)) in rows {
        let lg = (n as f64).log2();
        assert!(p95 < lg.powi(3), "{name} n={n}: p95 stretch {p95} exceeds the log³ bound");
        row(&[
            name.to_string(),
            n.to_string(),
            f2(p50),
            f2(p95),
            f2(space),
            f2(lg * lg),
            f2(lg.powi(3)),
        ]);
    }
    println!("\n# expected: stretch p95 sits far below log³(n) on both metrics —");
    println!("# including the clustered transit-stub space where the §3 expansion");
    println!("# assumption fails — and space/node tracks the log² column.");
}

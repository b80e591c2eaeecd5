//! **Figures 2–3** — publication / location behaviour and the PRR
//! low-stretch claim.
//!
//! The paper's Figs. 2–3 illustrate publish paths depositing pointers and
//! queries diverting at the first pointer; the quantitative content
//! (§2.2) is that queries to *nearby* replicas resolve in proportionally
//! small distance — expected O(1) stretch on growth-restricted metrics —
//! whereas a centralized directory pays the network diameter regardless.
//! This experiment bins queries by origin→replica distance and prints
//! mean stretch per bin for Tapestry, Chord and the central directory:
//! Tapestry's curve should stay flat and low; the others should blow up
//! as the replica gets closer.

use tapestry_baselines::{path_distance, CentralizedDirectory, Chord, LocatorSystem};
use tapestry_bench::{f2, header, mean, parallel_sweep, row};
use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_metric::{MetricSpace, TorusSpace};

const N: usize = 1024;
const SIDE: f64 = 1000.0;
const OBJECTS: usize = 48;
const BINS: usize = 8;

fn main() {
    let max_d = SIDE / 2.0 * std::f64::consts::SQRT_2;
    let bin_w = max_d / BINS as f64;

    // (bin → stretches) per system, swept over seeds in parallel.
    let runs = parallel_sweep(4, |run| {
        let seed = 9100 + run as u64;
        let space = TorusSpace::random(N, SIDE, seed);
        let dist_space = space.clone();
        let mut net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), seed);
        let mut chord = Chord::for_size(N, seed);
        let mut central = CentralizedDirectory::new(0);
        for p in 0..N {
            chord.join(p);
            central.join(p);
        }
        let mut tap: Vec<Vec<f64>> = vec![Vec::new(); BINS];
        let mut cho: Vec<Vec<f64>> = vec![Vec::new(); BINS];
        let mut cen: Vec<Vec<f64>> = vec![Vec::new(); BINS];
        for i in 0..OBJECTS {
            let server = (i * 19) % N;
            let guid = net.random_guid();
            net.publish(server, guid);
            let key = i as u64;
            chord.publish(server, key);
            central.publish(server, key);
            for q in 0..24 {
                let origin = (q * 41 + i * 7) % N;
                if origin == server {
                    continue;
                }
                let direct = dist_space.distance(origin, server);
                if direct <= 0.0 {
                    continue;
                }
                let bin = ((direct / bin_w) as usize).min(BINS - 1);
                let r = net.locate(origin, guid).expect("completes");
                assert_eq!(r.server.expect("found").idx, server);
                tap[bin].push(r.distance / direct);
                let cp = chord.locate(origin, key).expect("published");
                cho[bin].push(path_distance(&dist_space, &cp) / direct);
                let ce = central.locate(origin, key).expect("published");
                cen[bin].push(path_distance(&dist_space, &ce) / direct);
            }
        }
        (tap, cho, cen)
    });

    header(&["dist_bin_upper", "n_queries", "tapestry", "chord", "central_dir"]);
    for b in 0..BINS {
        let mut tap = Vec::new();
        let mut cho = Vec::new();
        let mut cen = Vec::new();
        for (t, c, e) in &runs {
            tap.extend_from_slice(&t[b]);
            cho.extend_from_slice(&c[b]);
            cen.extend_from_slice(&e[b]);
        }
        assert!(mean(&tap) < mean(&cho), "Tapestry's stretch is below Chord's in every bin");
        row(&[
            f2(bin_w * (b + 1) as f64),
            tap.len().to_string(),
            f2(mean(&tap)),
            f2(mean(&cho)),
            f2(mean(&cen)),
        ]);
    }
    println!("\n# expected shape: tapestry is below chord in every bin (asserted);");
    println!("# every column falls with distance and is highest in the closest bin,");
    println!("# chord's by far (stretch ∝ diameter/d). Tapestry's is not flat: its");
    println!("# constant-stretch bound hides a large constant at short range.");
}

//! **Figure 4 / Lemmas 1–2 / Theorems 3–4** — the distributed
//! nearest-neighbor table build.
//!
//! Sweeps the list size `k` and measures, for a node inserted into an
//! established network: (a) whether its table discovered its true nearest
//! neighbor, (b) what fraction of its filled slots hold the truly closest
//! matching node (Property 2 quality — Theorem 3), and (c) whether
//! existing nodes adopted the new node everywhere they should (Theorem 4).
//! The theory says success rises with `k` and `k = O(log n)` suffices;
//! the k-sweep makes the transition visible.

use tapestry_bench::{f2, header, parallel_sweep, row};
use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_metric::{nearest, MetricSpace, TorusSpace};

const N: usize = 256;
const TRIALS: usize = 12;

struct Trial {
    nn_exact: bool,
    slot_optimal: usize,
    slot_total: usize,
    thm4_missing: usize,
    msgs: u64,
}

fn one_trial(k: usize, seed: u64) -> Trial {
    let space = TorusSpace::random(N + 1, 1000.0, seed);
    let truth_space = space.clone();
    let cfg = TapestryConfig { list_size_k: Some(k), ..Default::default() };
    let mut net = TapestryNetwork::bootstrap(cfg, Box::new(space), seed, N);
    let before = net.engine().stats().messages;
    assert!(net.insert_node(N), "insertion completes");
    let msgs = net.engine().stats().messages - before;

    // (a) nearest neighbor from the level-0 slots.
    let node = net.node(N).unwrap();
    let mut best: Option<(f64, usize)> = None;
    for j in 0..16u8 {
        for (r, d) in node.table().slot(0, j).iter_with_dist() {
            if r.idx != N && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, r.idx));
            }
        }
    }
    let members: Vec<usize> = (0..N).collect();
    let truth = nearest(&truth_space, N, &members).unwrap();
    let found = best.map(|(_, i)| i).unwrap_or(usize::MAX);
    let nn_exact = found == truth
        || (truth_space.distance(N, found) - truth_space.distance(N, truth)).abs() < 1e-9;

    // (b) per-slot optimality of the new node's table (Theorem 3).
    let new_id = net.id_of(N);
    let mut slot_optimal = 0;
    let mut slot_total = 0;
    for l in 0..8 {
        for j in 0..16u8 {
            let primary = match node.table().slot(l, j).primary(None) {
                Some(p) if p.idx != N => p,
                _ => continue,
            };
            #[expect(
                clippy::disallowed_methods,
                reason = "members is ascending and min_by keeps the first of equals: ties resolve \
                          to the lowest idx"
            )]
            let best_member = members
                .iter()
                .copied()
                .filter(|&m| {
                    let mid = net.id_of(m);
                    mid.shared_prefix_len(&new_id) == l && mid.digit(l) == j
                })
                .min_by(|&a, &b| {
                    truth_space.distance(N, a).partial_cmp(&truth_space.distance(N, b)).unwrap()
                });
            if let Some(bm) = best_member {
                slot_total += 1;
                if truth_space.distance(N, primary.idx) <= truth_space.distance(N, bm) + 1e-9 {
                    slot_optimal += 1;
                }
            }
        }
    }

    // (c) Theorem 4: every existing node for which the new node is one of
    // its R closest (prefix, digit) matches must now reference it.
    let mut thm4_missing = 0;
    for &m in &members {
        let mid = net.id_of(m);
        let p = mid.shared_prefix_len(&new_id);
        if p >= 8 {
            continue;
        }
        let j = new_id.digit(p);
        let t = net.node(m).unwrap().table();
        let slot = t.slot(p, j);
        if slot.contains(N) {
            continue;
        }
        // The new node is missing: acceptable only if the slot already has
        // R strictly closer members.
        let closer = slot
            .iter_with_dist()
            .filter(|&(r, d)| r.idx != m && d < truth_space.distance(m, N) - 1e-9)
            .count();
        if closer < net.config().redundancy {
            thm4_missing += 1;
        }
    }

    Trial { nn_exact, slot_optimal, slot_total, thm4_missing, msgs }
}

fn main() {
    header(&["k", "nn_exact_rate", "slot_optimal_rate", "thm4_missing/trial", "msgs/insert"]);
    let ks = [1usize, 2, 4, 8, 16, 24, 32];
    let all = parallel_sweep(ks.len() * TRIALS, |job| {
        let k = ks[job / TRIALS];
        (k, one_trial(k, 11_000 + job as u64))
    });
    for &k in &ks {
        let trials: Vec<&Trial> = all.iter().filter(|(tk, _)| *tk == k).map(|(_, t)| t).collect();
        let nn = trials.iter().filter(|t| t.nn_exact).count() as f64 / trials.len() as f64;
        let so: usize = trials.iter().map(|t| t.slot_optimal).sum();
        let st: usize = trials.iter().map(|t| t.slot_total).sum();
        let miss: usize = trials.iter().map(|t| t.thm4_missing).sum();
        let msgs: u64 = trials.iter().map(|t| t.msgs).sum();
        row(&[
            k.to_string(),
            f2(nn),
            f2(so as f64 / st.max(1) as f64),
            f2(miss as f64 / trials.len() as f64),
            f2(msgs as f64 / trials.len() as f64),
        ]);
    }
    println!("\n# expected: the nearest neighbor is found at every k; slot_optimal");
    println!("# rises with k overall (not strictly: k = 2 may dip below k = 1) and");
    println!("# nears 1 past k = 3·log2 n = 24 (Lemma 1 needs k = O(log n));");
    println!("# thm4_missing falls with k but does not reach 0 even at k = 32, a");
    println!("# Theorem 4 gap; messages grow with k, sub-linearly (the O(k log n)");
    println!("# insertion cost of section 4.5).");
}

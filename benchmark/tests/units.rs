//! The rules the ledger's verdicts rest on: median / spread, the report
//! digest, span self-time arithmetic and the `--check` agreement rule.

use tapestry_benchmark::child::Sample;
use tapestry_benchmark::ledger::{agreement, Agreement};
use tapestry_benchmark::metrics::END_TO_END;
use tapestry_benchmark::spans::{Name, Tracer, KEEP_ONE_IN};
use tapestry_benchmark::stats::{best, fnv1a64, median, spread};

#[test]
fn median_of_three_is_the_middle_one_and_of_two_their_mean() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 2.0]), 3.0);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn best_is_the_fastest_repetition_in_the_metrics_own_direction() {
    assert_eq!(best(&[5.2, 4.9, 6.1], true), 4.9, "seconds: the shortest");
    assert_eq!(best(&[57_000.0, 61_000.0, 49_000.0], false), 61_000.0, "ops/s: the highest");
}

#[test]
fn spread_is_range_over_median() {
    assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
    assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    assert_eq!(spread(&[0.0, 0.0]), 0.0, "an all-zero column has no spread");
}

#[test]
fn fnv1a64_matches_the_published_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn self_time_is_the_span_minus_its_direct_children() {
    let mut tr = Tracer::new();
    let phase = tr.open_at(Name::Phase, 100);
    // An aggregated per-op child (op 1 is not a kept op) …
    tr.op_at(Name::Dispatch, 110, 150, 1);
    // … a kept coarse child with a child of its own …
    let check = tr.open_at(Name::CheckP2, 200);
    tr.op_at(Name::Issue, 210, 230, 2);
    tr.close_at(check, 300);
    tr.close_at(phase, 1_000);

    let spans = tr.spans();
    assert_eq!(spans[phase].self_ns(), 900 - 40 - 100, "grandchildren are not subtracted twice");
    assert_eq!(spans[check].self_ns(), 100 - 20);
    assert_eq!(spans[check].parent, Some(phase));
    assert_eq!(tr.total_s(Name::Dispatch), 40e-9);
    assert_eq!(tr.count(Name::Issue), 1);
}

#[test]
fn one_op_in_1024_keeps_its_spans_in_full_under_its_op_id() {
    let mut tr = Tracer::new();
    let phase = tr.open_at(Name::Phase, 0);
    for op in 1..=2 * KEEP_ONE_IN {
        tr.op_at(Name::Dispatch, op, op + 1, op);
        tr.op_at(Name::TakeResults, op + 1, op + 2, op);
    }
    tr.close_at(phase, 10_000);
    let kept: Vec<_> = tr.spans().iter().filter(|s| s.op.is_some()).collect();
    assert_eq!(kept.len(), 4, "two names for each of ops 1024 and 2048");
    assert!(kept.iter().all(|s| s.op.unwrap() % KEEP_ONE_IN == 0 && s.parent == Some(phase)));
    assert_eq!(tr.count(Name::Dispatch), 2 * KEEP_ONE_IN, "every op is aggregated");
    assert!(tr.to_json("w", 1).contains("\"name\":\"sim.engine.dispatch\",\"count\":2048"));
}

#[test]
fn agreement_rule_separates_agree_disagree_and_unresolved() {
    let run_s = END_TO_END.iter().find(|m| m.name == "run_s").unwrap();
    assert_eq!(agreement(run_s, &[10.0, 10.1, 10.2], &[10.3, 10.4, 10.5]), Agreement::Agree);
    assert_eq!(agreement(run_s, &[10.0, 10.1, 10.2], &[14.0, 14.1, 14.2]), Agreement::Disagree);
    assert_eq!(
        agreement(run_s, &[10.0, 10.1, 14.5], &[10.0, 10.1, 10.2]),
        Agreement::Agree,
        "one repetition caught in a burst does not unsettle the other two"
    );
    assert_eq!(
        agreement(run_s, &[10.0, 14.4, 14.5], &[10.0, 10.1, 10.2]),
        Agreement::Unresolved,
        "a lone fast repetition is not a pass"
    );
    // Sub-second times are judged against the absolute floor.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(agreement(setup, &[0.30, 0.31, 0.32], &[0.42, 0.43, 0.44]), Agreement::Agree);
    assert_eq!(agreement(setup, &[0.30, 0.31, 0.32], &[0.52, 0.53, 0.54]), Agreement::Disagree);

    let sim = END_TO_END.iter().find(|m| m.name == "sim_msgs_per_op").unwrap();
    assert_eq!(agreement(sim, &[3.5, 3.5], &[3.5, 3.5]), Agreement::Agree);
    assert_eq!(agreement(sim, &[3.5, 3.5], &[3.5, 3.500001]), Agreement::Disagree);
}

#[test]
fn samples_survive_the_child_protocol_bit_for_bit() {
    let mut s = Sample { digest: "00ff".into(), ..Default::default() };
    s.set("run_s", 4.906383740000001);
    s.set("raw.events", 1_505_266.0);
    s.set("tiny", 5.9335e-5);
    let back =
        Sample::parse_all(&format!("cargo noise\n{}{}", s.to_lines(), s.to_lines())).unwrap();
    assert_eq!(back, [s.clone(), s.clone()]);
    assert!(Sample::parse_all("no sample here\n").is_err());
    let cut_short = s.to_lines().replace("@sample end -\n", "");
    assert!(Sample::parse_all(&cut_short).is_err(), "a sample without its end line is refused");
}

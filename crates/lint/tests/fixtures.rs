//! Fixture self-tests: every rule fires on a minimal offending source,
//! every pragma form suppresses it, and the pragma audit flags stale or
//! misspelled exemptions. Fixtures are inline strings scanned through
//! the same `scan_source` entry point the CLI uses.

use tapestry_lint::{
    scan_source, GateClass, RULE_FLOAT_TIEBREAK, RULE_HASH_ITER, RULE_UNKNOWN_RULE,
    RULE_UNSEEDED_RNG, RULE_UNUSED_ALLOW, RULE_WALL_CLOCK,
};

fn rules_of(source: &str, class: GateClass) -> Vec<&'static str> {
    scan_source("fixture.rs", source, class).into_iter().map(|f| f.rule).collect()
}

fn det(source: &str) -> Vec<&'static str> {
    rules_of(source, GateClass::Deterministic)
}

// ---- each rule fires ----------------------------------------------------

#[test]
fn hash_iter_fires_on_hashmap_and_hashset() {
    assert_eq!(det("use std::collections::HashMap;"), vec![RULE_HASH_ITER]);
    assert_eq!(det("let s: HashSet<u32> = HashSet::new();"), vec![RULE_HASH_ITER; 2]);
}

#[test]
fn wall_clock_fires_on_instant_and_system_time() {
    assert_eq!(det("let t = Instant::now();"), vec![RULE_WALL_CLOCK]);
    assert_eq!(det("let t = SystemTime::now();"), vec![RULE_WALL_CLOCK]);
}

#[test]
fn unseeded_rng_fires_on_thread_rng_from_entropy_and_rand_random() {
    assert_eq!(det("let mut r = thread_rng();"), vec![RULE_UNSEEDED_RNG]);
    assert_eq!(det("let mut r = StdRng::from_entropy();"), vec![RULE_UNSEEDED_RNG]);
    assert_eq!(det("let x: f64 = rand::random();"), vec![RULE_UNSEEDED_RNG]);
    // A local fn named `random` without the `rand::` path is not flagged.
    assert!(det("let x = random();").is_empty());
}

#[test]
fn float_tiebreak_fires_without_then_and_not_with_it() {
    let bare = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());";
    assert_eq!(det(bare), vec![RULE_FLOAT_TIEBREAK]);
    for call in ["sort_unstable_by", "min_by", "max_by"] {
        let src = format!("v.iter().{call}(|a, b| a.d.partial_cmp(&b.d).unwrap());");
        assert_eq!(det(&src), vec![RULE_FLOAT_TIEBREAK], "{call}");
    }
    // The documented contract: a .then(..) tie-break silences the rule.
    let tied = "v.sort_by(|a, b| a.d.partial_cmp(&b.d).unwrap().then(a.i.cmp(&b.i)));";
    assert!(det(tied).is_empty());
    let tied_with = "v.sort_by(|a, b| a.d.partial_cmp(&b.d).unwrap().then_with(|| a.i.cmp(&b.i)));";
    assert!(det(tied_with).is_empty());
    // Integer comparators (no partial_cmp) are not float sites.
    assert!(det("v.sort_by(|a, b| a.i.cmp(&b.i));").is_empty());
}

// ---- every pragma form suppresses ---------------------------------------

#[test]
fn line_pragma_on_same_line_suppresses() {
    let src = "let m = HashMap::new(); // tapestry-lint: allow(hash-iter)\n";
    assert!(det(src).is_empty());
}

#[test]
fn line_pragma_on_previous_line_suppresses() {
    let src = "// tapestry-lint: allow(hash-iter)\nlet m = HashMap::new();\n";
    assert!(det(src).is_empty());
}

#[test]
fn line_pragma_reaches_only_one_line_down() {
    let src = "// tapestry-lint: allow(hash-iter)\nlet a = 1;\nlet m = HashMap::new();\n";
    let rules = det(src);
    // The far HashMap still fires, and the pragma is now stale.
    assert!(rules.contains(&RULE_HASH_ITER));
    assert!(rules.contains(&RULE_UNUSED_ALLOW));
}

#[test]
fn multi_rule_pragma_suppresses_both() {
    let src = "// tapestry-lint: allow(hash-iter, wall-clock)\n\
               let m: HashMap<u32, Instant> = HashMap::new();\n";
    assert!(det(src).is_empty());
}

#[test]
fn allow_file_pragma_covers_the_whole_file() {
    let src = "// tapestry-lint: allow-file(hash-iter)\n\
               let a = HashMap::new();\n\
               let b = 2;\n\
               let c = HashSet::new();\n";
    assert!(det(src).is_empty());
}

#[test]
fn pragma_for_one_rule_does_not_suppress_another() {
    let src = "let t = Instant::now(); // tapestry-lint: allow(hash-iter)\n";
    let rules = det(src);
    assert!(rules.contains(&RULE_WALL_CLOCK), "wrong-rule pragma must not suppress");
    assert!(rules.contains(&RULE_UNUSED_ALLOW), "and it is stale");
}

// ---- pragma audit -------------------------------------------------------

#[test]
fn unused_allow_is_flagged() {
    let src = "// tapestry-lint: allow(hash-iter)\nlet x = 1;\n";
    assert_eq!(det(src), vec![RULE_UNUSED_ALLOW]);
}

#[test]
fn unknown_rule_is_flagged() {
    let src = "// tapestry-lint: allow(hash-itr)\nlet m = HashMap::new();\n";
    let rules = det(src);
    assert!(rules.contains(&RULE_UNKNOWN_RULE), "typo is surfaced");
    assert!(rules.contains(&RULE_HASH_ITER), "and suppresses nothing");
}

// ---- gate classes -------------------------------------------------------

#[test]
fn observational_crates_skip_wall_clock_only() {
    let src = "let t = Instant::now();\nlet m = HashMap::new();\n";
    let rules = rules_of(src, GateClass::Observational);
    assert_eq!(rules, vec![RULE_HASH_ITER], "bench may time, may not hash-iterate");
}

// ---- diagnostics shape --------------------------------------------------

#[test]
fn findings_carry_file_line_and_snippet() {
    let f = &scan_source(
        "crates/x/src/y.rs",
        "let a = 1;\nlet m = HashMap::new();\n",
        GateClass::Deterministic,
    )[0];
    assert_eq!(f.file, "crates/x/src/y.rs");
    assert_eq!(f.line, 2);
    assert_eq!(f.snippet, "let m = HashMap::new();");
    let text = f.to_string();
    assert!(text.starts_with("crates/x/src/y.rs:2: [hash-iter]"), "{text}");
}

#[test]
fn json_report_is_well_formed_and_sorted() {
    let mut findings = scan_source("b.rs", "let m = HashMap::new();", GateClass::Deterministic);
    findings.extend(scan_source("a.rs", "let t = Instant::now();", GateClass::Deterministic));
    let json = tapestry_lint::findings_json(&findings, 2);
    // Sorted by file despite reversed insertion, counts per rule, total.
    let a = json.find("\"file\":\"a.rs\"").unwrap();
    let b = json.find("\"file\":\"b.rs\"").unwrap();
    assert!(a < b, "findings sorted by file: {json}");
    assert!(json.contains("\"counts\":{\"hash-iter\":1,\"wall-clock\":1}"), "{json}");
    assert!(json.contains("\"files_scanned\":2"), "{json}");
    assert!(json.contains("\"line\":1"));
}

// ---- scan roots ---------------------------------------------------------

/// Every crate's `src` is a scan root and every `crates/*/src` root
/// exists: the CLI skips a missing root silently, so without this a new
/// crate would escape the determinism gate, and a deleted one would
/// leave a dead root behind.
#[test]
fn workspace_targets_cover_every_crate() {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut on_disk: Vec<String> = std::fs::read_dir(repo.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .map(|name| format!("crates/{name}/src"))
        .filter(|src| repo.join(src).is_dir())
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = tapestry_lint::WORKSPACE_TARGETS
        .iter()
        .map(|&(root, _)| root.to_string())
        .filter(|root| root.starts_with("crates/"))
        .collect();
    listed.sort();
    assert_eq!(listed, on_disk);
}

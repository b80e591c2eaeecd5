//! # tapestry-lint — determinism-hazard scanner for the workspace
//!
//! Every scaling PR since the sharded engine is gated on byte-identical
//! reports across runs, but that gate is post-hoc: CI
//! byte-compares whole report files and, on divergence, says nothing
//! about *which* code path introduced ordering nondeterminism. This
//! crate localizes the hazards at the source level, the way the paper's
//! Property 1/2 and Theorem 2 checks localize protocol violations.
//!
//! It is a **token-level** scanner (pure std, no rustc plugin — the
//! workspace is vendor-only): comments, strings, char literals and
//! lifetimes are stripped by a real tokenizer, then simple token
//! patterns flag the hazard classes that have actually bitten
//! deterministic simulators:
//!
//! * [`RULE_HASH_ITER`] — `std::collections::HashMap`/`HashSet` in a
//!   determinism-gated crate. Their iteration order is randomized per
//!   process (SipHash keys), so any traversal that escapes into event
//!   order, table contents or a report is a latent divergence. Every use
//!   is flagged; key-lookup-only maps carry an audited `allow`.
//! * [`RULE_WALL_CLOCK`] — `Instant`/`SystemTime` in sim logic. The
//!   engine's clock is [`SimTime`]; wall-clock reads are only legitimate
//!   as observation (throughput reporting), never as input to simulated
//!   behaviour.
//! * [`RULE_UNSEEDED_RNG`] — `thread_rng`, `from_entropy`,
//!   `rand::random`: entropy-seeded or thread-local RNG construction.
//!   All randomness must flow from the run seed.
//! * [`RULE_FLOAT_TIEBREAK`] — `sort_by`/`min_by`/`max_by` sites whose
//!   comparator uses `partial_cmp` with no `.then(..)` tie-break. Equal
//!   distances are common (grid metrics, self-distance 0), and the
//!   workspace contract is `(distance, index)` ordering; a bare float
//!   comparator leans on container order, which must then be *proven*
//!   deterministic in an `allow` justification.
//!
//! Suppressions are explicit and auditable in-diff:
//!
//! ```text
//! // tapestry-lint: allow(hash-iter)            -- this line or the next
//! let m: HashMap<K, V> = HashMap::new();        // key-lookup only
//! cross.sort_by(|a, b| a.partial_cmp(b).unwrap()); // tapestry-lint: allow(float-tiebreak)
//! // tapestry-lint: allow-file(wall-clock)      -- whole file
//! // tapestry-lint: allow(hash-iter, float-tiebreak)  -- several rules
//! ```
//!
//! A pragma that suppresses nothing is itself a finding
//! ([`RULE_UNUSED_ALLOW`]) so stale exemptions cannot linger, and a
//! pragma naming an unknown rule is flagged ([`RULE_UNKNOWN_RULE`]) so
//! typos cannot silently disable the gate.
//!
//! [`SimTime`]: https://docs.rs/tapestry-sim

#![forbid(unsafe_code)]

use std::fmt;

mod tokens;

pub use tokens::{tokenize, Pragma, Tok, TokStream};

/// `HashMap`/`HashSet` use in a determinism-gated crate.
pub const RULE_HASH_ITER: &str = "hash-iter";
/// Wall-clock source (`Instant`, `SystemTime`) in sim logic.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Unseeded or thread-local RNG construction.
pub const RULE_UNSEEDED_RNG: &str = "unseeded-rng";
/// Float ordering without the `(dist, idx)` tie-break contract.
pub const RULE_FLOAT_TIEBREAK: &str = "float-tiebreak";
/// An `allow` pragma that suppressed nothing.
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";
/// An `allow` pragma naming a rule this lint does not define.
pub const RULE_UNKNOWN_RULE: &str = "unknown-rule";

/// The hazard rules, with one-line summaries (`--list-rules` output).
pub const RULES: &[(&str, &str)] = &[
    (RULE_HASH_ITER, "std HashMap/HashSet in a determinism-gated crate (randomized iteration)"),
    (RULE_WALL_CLOCK, "wall-clock source (Instant/SystemTime) in sim logic"),
    (RULE_UNSEEDED_RNG, "unseeded or thread-local RNG construction (thread_rng/from_entropy)"),
    (RULE_FLOAT_TIEBREAK, "float sort/min/max comparator without a .then(..) tie-break"),
    (RULE_UNUSED_ALLOW, "allow pragma that suppressed nothing (stale exemption)"),
    (RULE_UNKNOWN_RULE, "allow pragma naming an unknown rule (typo disables nothing)"),
];

/// How strictly a crate is held to the determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateClass {
    /// Byte-identical-report surface: every rule applies (core, id,
    /// membership, metric, prrv0, sim, sweep, trace, workload, lint
    /// itself, the facade and the examples).
    Deterministic,
    /// Measures wall-clock on purpose (bench): every rule except
    /// `wall-clock`.
    Observational,
    /// Not on the gated report path (baselines): bulk-allowed for
    /// ordering rules; only entropy-seeded RNG remains flagged, because
    /// a non-reproducible baseline invalidates every comparison made
    /// against it.
    NonGated,
}

impl GateClass {
    /// Does `rule` apply at this gate class?
    pub fn applies(self, rule: &str) -> bool {
        match self {
            GateClass::Deterministic => true,
            GateClass::Observational => rule != RULE_WALL_CLOCK,
            GateClass::NonGated => rule == RULE_UNSEEDED_RNG,
        }
    }
}

/// The workspace scan roots and their gate class, relative to the repo
/// root. One place, so the CLI, CI and the self-tests agree on what is
/// gated; a self-test holds its `crates/*/src` roots equal to the crates
/// on disk.
pub const WORKSPACE_TARGETS: &[(&str, GateClass)] = &[
    ("crates/core/src", GateClass::Deterministic),
    ("crates/id/src", GateClass::Deterministic),
    ("crates/lint/src", GateClass::Deterministic),
    ("crates/membership/src", GateClass::Deterministic),
    ("crates/metric/src", GateClass::Deterministic),
    ("crates/prrv0/src", GateClass::Deterministic),
    ("crates/sim/src", GateClass::Deterministic),
    ("crates/sweep/src", GateClass::Deterministic),
    ("crates/trace/src", GateClass::Deterministic),
    ("crates/workload/src", GateClass::Deterministic),
    ("crates/bench/src", GateClass::Observational),
    ("crates/baselines/src", GateClass::NonGated),
    ("src", GateClass::Deterministic),
    ("examples", GateClass::Deterministic),
];

/// One diagnostic: a hazard (or pragma problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as scanned (repo-relative in CLI runs, label in tests).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (one of the [`RULES`] names).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        if !self.snippet.is_empty() {
            write!(f, "\n    {}", self.snippet)?;
        }
        Ok(())
    }
}

/// Scan one source file. `file` is the label used in diagnostics; the
/// gate `class` decides which rules apply. Pragmas are honored (and
/// audited: unused or unknown ones become findings themselves).
pub fn scan_source(file: &str, source: &str, class: GateClass) -> Vec<Finding> {
    let stream = tokenize(source);
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: usize| -> String {
        lines.get(line.saturating_sub(1)).map(|l| l.trim().to_string()).unwrap_or_default()
    };

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        if class.applies(rule) {
            raw.push(Finding {
                file: file.to_string(),
                line,
                rule,
                message,
                snippet: snippet(line),
            })
        }
    };

    let toks = &stream.toks;
    for (i, (line, tok)) in toks.iter().enumerate() {
        let Tok::Ident(name) = tok else { continue };
        match name.as_str() {
            "HashMap" | "HashSet" => push(
                *line,
                RULE_HASH_ITER,
                format!(
                    "`{name}` in a determinism-gated crate: iteration order is randomized \
                     per-process; use BTreeMap/BTreeSet/sorted Vec, or justify that the \
                     order cannot escape"
                ),
            ),
            "Instant" | "SystemTime" => push(
                *line,
                RULE_WALL_CLOCK,
                format!(
                    "`{name}` in sim logic: wall-clock reads must never feed simulated \
                     behaviour (SimTime is the clock); observation-only uses need a \
                     justified allow"
                ),
            ),
            "thread_rng" | "ThreadRng" | "from_entropy" => push(
                *line,
                RULE_UNSEEDED_RNG,
                format!("`{name}`: randomness must be seeded from the run seed, not entropy"),
            ),
            "random" if is_path_call(toks, i, "rand") => push(
                *line,
                RULE_UNSEEDED_RNG,
                "`rand::random`: draws from the thread-local entropy RNG; \
                 thread a seeded StdRng instead"
                    .to_string(),
            ),
            "sort_by" | "sort_unstable_by" | "min_by" | "max_by" => {
                if let Some((has_partial, has_then)) = comparator_shape(toks, i) {
                    if has_partial && !has_then {
                        push(
                            *line,
                            RULE_FLOAT_TIEBREAK,
                            format!(
                                "`{name}` comparator uses partial_cmp with no .then(..) \
                                 tie-break: equal keys fall back to container order, which \
                                 must be proven deterministic (the workspace contract is \
                                 (distance, index))"
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    apply_pragmas(file, raw, &stream.pragmas, &snippet)
}

/// Is token `i` the tail of the path `{head}::{toks[i]}`?
fn is_path_call(toks: &[(usize, Tok)], i: usize, head: &str) -> bool {
    i >= 3
        && toks[i - 1].1 == Tok::Punct(':')
        && toks[i - 2].1 == Tok::Punct(':')
        && matches!(&toks[i - 3].1, Tok::Ident(h) if h == head)
}

/// For a comparator-taking call at token `i` (`sort_by` etc.), inspect
/// the balanced-paren argument region: does it use `partial_cmp`, and
/// does it chain a `.then(..)`/`.then_with(..)` tie-break? `None` when
/// not followed by `(` (e.g. the identifier appears in a path).
fn comparator_shape(toks: &[(usize, Tok)], i: usize) -> Option<(bool, bool)> {
    if toks.get(i + 1).map(|(_, t)| t) != Some(&Tok::Punct('(')) {
        return None;
    }
    let mut depth = 0usize;
    let mut has_partial = false;
    let mut has_then = false;
    for (_, tok) in &toks[i + 1..] {
        match tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(id) if id == "partial_cmp" => has_partial = true,
            Tok::Ident(id) if id == "then" || id == "then_with" => has_then = true,
            _ => {}
        }
    }
    Some((has_partial, has_then))
}

/// Filter `raw` findings through the pragmas, then append the pragma
/// audit findings (unused / unknown). A line pragma covers its own line
/// and the next; `allow-file` covers the whole file.
fn apply_pragmas(
    file: &str,
    raw: Vec<Finding>,
    pragmas: &[Pragma],
    snippet: &dyn Fn(usize) -> String,
) -> Vec<Finding> {
    let known = |r: &str| RULES.iter().any(|(name, _)| *name == r);
    let mut used = vec![false; pragmas.len()];
    let mut out: Vec<Finding> = Vec::new();
    'finding: for f in raw {
        for (pi, p) in pragmas.iter().enumerate() {
            let in_scope = p.file_scope || f.line == p.line || f.line == p.line + 1;
            if in_scope && p.rules.iter().any(|r| r == f.rule) {
                used[pi] = true;
                continue 'finding;
            }
        }
        out.push(f);
    }
    for (pi, p) in pragmas.iter().enumerate() {
        for r in &p.rules {
            if !known(r) {
                out.push(Finding {
                    file: file.to_string(),
                    line: p.line,
                    rule: RULE_UNKNOWN_RULE,
                    message: format!("allow pragma names unknown rule `{r}`"),
                    snippet: snippet(p.line),
                });
            }
        }
        if !used[pi] && p.rules.iter().all(|r| known(r)) {
            out.push(Finding {
                file: file.to_string(),
                line: p.line,
                rule: RULE_UNUSED_ALLOW,
                message: format!(
                    "allow({}) suppressed nothing: remove the stale exemption",
                    p.rules.join(", ")
                ),
                snippet: snippet(p.line),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as the machine-readable report (`--json`): stable key
/// order, findings sorted by (file, line, rule), per-rule counts.
pub fn findings_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let items: Vec<String> = sorted
        .iter()
        .map(|f| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\
                 \"snippet\":\"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message),
                json_escape(&f.snippet)
            )
        })
        .collect();
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for (rule, _) in RULES {
        let c = sorted.iter().filter(|f| f.rule == *rule).count();
        if c > 0 {
            counts.push((rule, c));
        }
    }
    let counts_json: Vec<String> = counts.iter().map(|(r, c)| format!("\"{r}\":{c}")).collect();
    format!(
        "{{\"findings\":[{}],\"counts\":{{{}}},\"files_scanned\":{}}}",
        items.join(","),
        counts_json.join(","),
        files_scanned
    )
}

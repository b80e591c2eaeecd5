//! The workspace's one JSON module: the writer every committed artifact
//! is emitted through, the reader that loads one back, and the telemetry
//! emitters.
//!
//! Hand-rolled (the workspace is vendor-only — no serde), with one set of
//! conventions, so two runs that simulated the same events write
//! byte-identical files — the property CI's determinism jobs `cmp`:
//!
//! * keys appear in the fixed order the emitter writes them;
//! * floats are printed with three decimals ([`f3`]), integers verbatim;
//! * strings escape `"`, `\` and the C0 controls
//!   ([`JsonWriter::push_escaped`]);
//! * maps are emitted sorted by name.
//!
//! The emitters on [`JsonWriter`]: the hop trace ([`trace_json`]) and the
//! metrics series ([`metrics_json`]) here, and the scenario report and
//! the sweep aggregate in `tapestry-workload` (`tapestry_workload::sweep`:
//! `BENCH_sweep.json`, `BENCH_scale.json`). [`Json::parse`] reads
//! any of them back (`tapestry-sweep --compare` loads its baseline with
//! it). Wall-clock material never goes into these files.

use crate::registry::metrics;
use crate::sampler::SeriesSample;
use std::fmt::Write as _;
use tapestry_sim::{Histogram, SimStats, TraceBuf, EVENT_KINDS};

/// Fixed three-decimal float formatting — the determinism anchor of
/// every committed artifact and the sweep's console table.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Minimal JSON writer: tracks comma placement, escapes strings, prints
/// floats via [`f3`]. Every committed JSON artifact in the workspace is
/// written through it, so they share one set of determinism conventions.
pub struct JsonWriter {
    /// The emitted JSON so far; take it when the document is closed.
    pub out: String,
    /// Does the current container already hold an element?
    needs_comma: Vec<bool>,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// An empty writer positioned at the document root.
    pub fn new() -> Self {
        JsonWriter { out: String::new(), needs_comma: vec![false] }
    }

    /// Emit the separating comma if the current container already holds
    /// an element, and mark it non-empty.
    pub fn elem_prefix(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    /// Open `{`.
    pub fn open_obj(&mut self) {
        self.elem_prefix();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Close `}`.
    pub fn close_obj(&mut self) {
        self.out.push('}');
        self.needs_comma.pop();
    }

    /// Open `[`.
    pub fn open_arr(&mut self) {
        self.elem_prefix();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Close `]`.
    pub fn close_arr(&mut self) {
        self.out.push(']');
        self.needs_comma.pop();
    }

    /// `"key":` — the value that follows must not get its own comma, so
    /// the container is marked empty again until the value lands.
    pub fn key(&mut self, k: &str) {
        self.elem_prefix();
        self.push_escaped(k);
        self.out.push(':');
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
    }

    /// A bare scalar value (after `key`, or an array element).
    pub fn raw(&mut self, v: &str) {
        self.elem_prefix();
        self.out.push_str(v);
    }

    /// `"k":"v"` with escaping.
    pub fn str_field(&mut self, k: &str, v: &str) {
        self.key(k);
        self.elem_prefix();
        self.push_escaped(v);
    }

    /// `"k":v` for integers.
    pub fn u64_field(&mut self, k: &str, v: u64) {
        self.key(k);
        self.elem_prefix();
        let _ = write!(self.out, "{v}");
    }

    /// `"k":v` with fixed three-decimal floats.
    pub fn f64_field(&mut self, k: &str, v: f64) {
        self.key(k);
        self.elem_prefix();
        self.out.push_str(&f3(v));
    }

    /// A JSON string literal with escaping.
    pub fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A parsed JSON value. Objects keep insertion order (the writers emit
/// deterministic key order, and lookups are linear over a handful of
/// keys).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, parsed as f64: three-decimal floats read back exactly
    /// as written; integers above 2^53 (locate trace ids) read back as
    /// the nearest f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting `Parser::value` descends into. The
/// committed artifacts nest fewer than 10 levels; the bound keeps the
/// recursion off the end of the stack on hostile input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if c == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(elems));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let c = self.peek().ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| "dangling escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.pos += 4;
                            // The writer never emits surrogate pairs (only
                            // C0 controls are \u-escaped); reject rather
                            // than mis-decode.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("unsupported \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}'"))
    }
}

/// Serialize a sampled-operation hop trace:
/// `{"schema":"tapestry-trace/v1","sample":N,"cap":…,"kept":…,"dropped":…,"records":[…]}`.
///
/// `sample` is the driver's 1-in-N locate sampling rate (0 = driver did
/// not sample locates; joins may still appear).
pub fn trace_json(buf: &TraceBuf, sample: u64) -> String {
    let mut w = JsonWriter::new();
    w.open_obj();
    w.str_field("schema", "tapestry-trace/v1");
    w.u64_field("sample", sample);
    w.u64_field("cap", buf.cap() as u64);
    w.u64_field("kept", buf.records().len() as u64);
    w.u64_field("dropped", buf.dropped());
    w.key("records");
    w.open_arr();
    for r in buf.records() {
        w.open_obj();
        w.u64_field("trace", r.trace);
        w.str_field("kind", r.kind);
        w.u64_field("hop", r.hop.into());
        w.u64_field("level", r.level.into());
        w.u64_field("digit", r.digit.into());
        w.u64_field("from", r.from as u64);
        w.u64_field("to", r.to as u64);
        w.f64_field("dist", r.dist);
        w.f64_field("cum_dist", r.cum_dist);
        w.u64_field("at", r.at.0);
        w.close_obj();
    }
    w.close_arr();
    w.close_obj();
    w.out.push('\n');
    w.out
}

/// Serialize the time-series samples plus a final counter/histogram dump
/// under registry names — the engine builtins, then every counter that
/// moved and every histogram that was recorded into, sorted by name:
/// `{"schema":"tapestry-metrics/v3","window":…,"samples":[…],"counters":[…],"histograms":[…]}`.
pub fn metrics_json(window: u64, samples: &[SeriesSample], stats: &SimStats) -> String {
    let mut w = JsonWriter::new();
    w.open_obj();
    w.str_field("schema", "tapestry-metrics/v3");
    w.u64_field("window", window);
    w.key("samples");
    w.open_arr();
    for s in samples {
        w.open_obj();
        w.u64_field("at", s.at.0);
        w.key("events");
        w.open_obj();
        for (name, &n) in EVENT_KINDS.iter().zip(&s.events) {
            w.u64_field(name, n);
        }
        w.close_obj();
        w.u64_field("messages", s.messages);
        w.u64_field("dropped", s.dropped);
        w.u64_field("live_nodes", s.live_nodes);
        w.u64_field("repair_backlog", s.repair_backlog);
        w.u64_field("queue_depth", s.queue_depth);
        w.close_obj();
    }
    w.close_arr();
    w.key("counters");
    w.open_arr();
    let builtins = [
        (metrics::ENGINE_MESSAGES.name(), stats.messages),
        (metrics::ENGINE_DROPPED.name(), stats.dropped),
        (metrics::ENGINE_PARTITION_DROPPED.name(), stats.partition_dropped),
        (metrics::ENGINE_TIMERS.name(), stats.timers),
    ];
    let mut moved: Vec<(&str, u64)> =
        metrics::counters().map(|c| (c.name(), c.read(stats))).filter(|&(_, v)| v > 0).collect();
    moved.sort_unstable();
    for &(name, v) in builtins.iter().chain(&moved) {
        w.open_obj();
        w.str_field("name", name);
        w.u64_field("value", v);
        w.close_obj();
    }
    w.close_arr();
    w.f64_field("distance", stats.distance);
    w.key("histograms");
    w.open_arr();
    let mut recorded: Vec<(&str, &Histogram)> =
        metrics::hists().filter_map(|h| Some((h.name(), h.read(stats)?))).collect();
    recorded.sort_unstable_by_key(|&(name, _)| name);
    for (name, h) in recorded {
        w.open_obj();
        w.str_field("name", name);
        w.u64_field("count", h.count());
        w.u64_field("min", h.min());
        w.u64_field("p50", h.p50());
        w.u64_field("p90", h.p90());
        w.u64_field("p99", h.p99());
        w.u64_field("p999", h.p999());
        w.u64_field("max", h.max());
        w.f64_field("mean", h.mean());
        w.close_obj();
    }
    w.close_arr();
    w.close_obj();
    w.out.push('\n');
    w.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use tapestry_sim::{SimTime, TraceRecord};

    fn trace_fixture() -> TraceBuf {
        let mut buf = TraceBuf::new(2);
        for hop in 0..3u32 {
            buf.push(TraceRecord {
                trace: (1 << 63) | 5,
                kind: "locate",
                hop,
                level: 2,
                digit: 7,
                from: 1,
                to: 9,
                dist: 1.25,
                cum_dist: 2.5 * f64::from(hop),
                at: SimTime(42),
            });
        }
        buf
    }

    fn metrics_fixture() -> (Vec<SeriesSample>, SimStats) {
        let mut stats = SimStats::default();
        stats.messages = 7;
        stats.distance = 12.3456;
        // Bumped against name order; one counter touched but still zero.
        metrics::REPAIR_PINGS.add_to(&mut stats, 9);
        metrics::JOIN_MESSAGES.add_to(&mut stats, 3);
        metrics::LOCATE_FOUND.add_to(&mut stats, 0);
        metrics::LOCATE_HOPS.record_to(&mut stats, 4);
        metrics::LOCATE_HOPS.record_to(&mut stats, 5);
        let sample = |at: u64, backlog: u64| SeriesSample {
            at: SimTime(at),
            events: [5, 2, 0],
            messages: 7,
            dropped: 0,
            live_nodes: 64,
            repair_backlog: backlog,
            queue_depth: 3,
        };
        (vec![sample(100, 3), sample(150, 0)], stats)
    }

    #[test]
    fn trace_json_shape_and_determinism() {
        let buf = trace_fixture();
        let a = trace_json(&buf, 16);
        assert_eq!(a, trace_json(&buf, 16), "emitter is a pure function");
        let pinned = concat!(
            r#"{"schema":"tapestry-trace/v1","sample":16,"cap":2,"kept":2,"dropped":1,"records":["#,
            r#"{"trace":9223372036854775813,"kind":"locate","hop":0,"level":2,"digit":7,"#,
            r#""from":1,"to":9,"dist":1.250,"cum_dist":0.000,"at":42},"#,
            r#"{"trace":9223372036854775813,"kind":"locate","hop":1,"level":2,"digit":7,"#,
            r#""from":1,"to":9,"dist":1.250,"cum_dist":2.500,"at":42}]}"#,
            "\n"
        );
        assert_eq!(a, pinned);
        assert!(Json::parse(&a).is_ok());
    }

    #[test]
    fn metrics_json_lists_what_moved_sorted_by_name() {
        let (samples, stats) = metrics_fixture();
        let j = metrics_json(50, &samples, &stats);
        // `locate.found` was touched but is still zero, so it is omitted.
        let pinned = concat!(
            r#"{"schema":"tapestry-metrics/v3","window":50,"samples":["#,
            r#"{"at":100,"events":{"deliver":5,"timer":2,"contact_failed":0},"messages":7,"#,
            r#""dropped":0,"live_nodes":64,"repair_backlog":3,"queue_depth":3},"#,
            r#"{"at":150,"events":{"deliver":5,"timer":2,"contact_failed":0},"messages":7,"#,
            r#""dropped":0,"live_nodes":64,"repair_backlog":0,"queue_depth":3}],"#,
            r#""counters":[{"name":"engine.messages","value":7},"#,
            r#"{"name":"engine.dropped","value":0},"#,
            r#"{"name":"engine.partition_dropped","value":0},"#,
            r#"{"name":"engine.timers","value":0},"#,
            r#"{"name":"membership.join.messages","value":3},"#,
            r#"{"name":"repair.pings","value":9}],"distance":12.346,"#,
            r#""histograms":[{"name":"locate.hops","count":2,"min":4,"p50":4,"p90":5,"#,
            r#""p99":5,"p999":5,"max":5,"mean":4.500}]}"#,
            "\n"
        );
        assert_eq!(j, pinned);
        assert!(Json::parse(&j).is_ok());
    }

    #[test]
    fn parses_scalars_nesting_and_whitespace() {
        let j = Json::parse(" { \"a\" : [ 1 , -2.5 , true , false , null ] } \n").unwrap();
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = "[".repeat(200_000);
        for bad in
            ["", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "12 34", "\"open", "nul", "{1:2}", &deep]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// Characters a generated key or string draws from: plain text, every
    /// character the writer escapes, and multi-byte UTF-8.
    const CHARS: &[char] = &['a', 'z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', 'é', '✓'];

    fn gen_string(rng: &mut StdRng) -> String {
        (0..rng.gen_range(0..6usize)).map(|_| *CHARS.choose(rng).unwrap()).collect()
    }

    /// Write one random value (under `key` when inside an object) through
    /// `w` and return what reading it back must give. Floats go through
    /// `f3`, so they read back as the parse of their three-decimal text.
    fn gen_value(rng: &mut StdRng, w: &mut JsonWriter, key: Option<&str>, depth: u32) -> Json {
        let kind = rng.gen_range(0..if depth == 0 { 5 } else { 7u32 });
        // Scalars under a key go through the `*_field` methods the
        // emitters use; everything else writes the key, then the value.
        if let Some(k) = key {
            match kind {
                2 => {
                    let v: u64 = rng.gen();
                    w.u64_field(k, v);
                    return Json::Num(v as f64);
                }
                3 => {
                    let x = rng.gen_range(-1e6..1e6);
                    w.f64_field(k, x);
                    return Json::Num(f3(x).parse().unwrap());
                }
                4 => {
                    let s = gen_string(rng);
                    w.str_field(k, &s);
                    return Json::Str(s);
                }
                _ => w.key(k),
            }
        }
        match kind {
            0 => {
                w.raw("null");
                Json::Null
            }
            1 => {
                let b = rng.gen_bool(0.5);
                w.raw(if b { "true" } else { "false" });
                Json::Bool(b)
            }
            2 => {
                let v: u64 = rng.gen();
                w.raw(&v.to_string());
                Json::Num(v as f64)
            }
            3 => {
                let x = rng.gen_range(-1e6..1e6);
                w.raw(&f3(x));
                Json::Num(f3(x).parse().unwrap())
            }
            4 => {
                let s = gen_string(rng);
                w.elem_prefix();
                w.push_escaped(&s);
                Json::Str(s)
            }
            5 => {
                w.open_arr();
                let elems =
                    (0..rng.gen_range(0..4usize)).map(|_| gen_value(rng, w, None, depth - 1));
                let v = Json::Arr(elems.collect());
                w.close_arr();
                v
            }
            _ => {
                w.open_obj();
                let mut members = Vec::new();
                for _ in 0..rng.gen_range(0..4usize) {
                    let k = gen_string(rng);
                    let v = gen_value(rng, w, Some(&k), depth - 1);
                    members.push((k, v));
                }
                w.close_obj();
                Json::Obj(members)
            }
        }
    }

    /// Fragments of JSON and near-JSON for the never-panic property.
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", " ", "\n", "\"", "\"k\"", "\\", "\\u", "\\u00e9", "\\ud800",
        "\\x", "0", "-", "1.5", "1e999", "-0", "+", ".", "e", "true", "tru", "null", "nul",
        "false", "é", "𝄞", "\u{0}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the writer emits parses back to the value it was
        /// given: random nesting, keys and strings that need escaping,
        /// integers and `f3` floats.
        #[test]
        fn round_trips_the_workspace_writer_output(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = JsonWriter::new();
            let expect = gen_value(&mut rng, &mut w, None, 4);
            prop_assert_eq!(Json::parse(&w.out), Ok(expect));
        }

        /// Token soup is `Ok` or `Err`, never a panic.
        #[test]
        fn parse_never_panics_on_token_soup(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let soup: String =
                (0..rng.gen_range(0..40usize)).map(|_| *TOKENS.choose(&mut rng).unwrap()).collect();
            let _ = Json::parse(&soup);
        }
    }
}

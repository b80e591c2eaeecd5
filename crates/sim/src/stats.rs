use crate::{Histogram, SimTime};
use std::collections::BTreeMap;

/// One causal hop of a sampled operation: who forwarded to whom, at which
/// routing level/digit, at what metric cost. Records are keyed by **sim
/// time** (never wall clock), so a trace is byte-identical from run to
/// run — the same contract the deterministic reports ride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Operation identity threaded through the message path (sampled
    /// locates, joins, or the repair sentinel — the trace layer assigns).
    pub trace: u64,
    /// Operation family: `"locate"`, `"publish"`, `"join"`, `"repair"`.
    pub kind: &'static str,
    /// Hop index within the operation (0 = first forward).
    pub hop: u32,
    /// Routing level the forward resolved at.
    pub level: u32,
    /// Digit matched at that level.
    pub digit: u8,
    /// Forwarding node.
    pub from: usize,
    /// Next-hop node.
    pub to: usize,
    /// Metric distance of this hop.
    pub dist: f64,
    /// Distance accumulated over the operation including this hop — the
    /// numerator of per-hop stretch attribution.
    pub cum_dist: f64,
    /// Simulated time the forward happened.
    pub at: SimTime,
}

/// Bounded ring collector for [`TraceRecord`]s: keeps the first `cap`
/// records in global event (pop) order and counts the overflow instead of
/// growing without bound.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf {
    cap: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
}

impl TraceBuf {
    /// An empty buffer bounded at `cap` records.
    pub fn new(cap: usize) -> Self {
        TraceBuf { cap, records: Vec::new(), dropped: 0 }
    }

    /// Record capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Append one record, counting it as dropped once full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.records.len() < self.cap {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Records kept, in event order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records that arrived after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Global cost counters for one simulation run.
///
/// The unit of account follows the paper: messages (one per overlay send),
/// network distance (the metric length of each send — the paper's
/// "network latency" or "traffic"), and drops (sends to departed nodes).
/// Named counters let higher layers attribute costs to logical operations
/// ("insert.multicast", "locate.hops", …) without the engine knowing
/// anything about Tapestry. Named histograms do the same for per-operation
/// *distributions* (locate latency, hop counts) so drivers can report
/// percentiles, not just totals.
#[derive(Debug, Default, Clone)]
pub struct SimStats {
    /// Total messages delivered or in flight.
    pub messages: u64,
    /// Messages addressed to nodes that had already left.
    pub dropped: u64,
    /// Messages dropped at an active partition cut (never delivered).
    pub partition_dropped: u64,
    /// Sum of metric distances of all sends.
    pub distance: f64,
    /// Timer events fired.
    pub timers: u64,
    named: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Hop-trace collector; `None` (the default) costs one branch per
    /// would-be record and keeps reports byte-identical to untraced runs.
    trace: Option<TraceBuf>,
}

impl SimStats {
    /// Increment a named counter by `v`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.named.entry(name).or_insert(0) += v;
    }

    /// Read a named counter (0 when never touched).
    pub fn get(&self, name: &'static str) -> u64 {
        self.named.get(name).copied().unwrap_or(0)
    }

    /// All named counters, sorted by name (deterministic output).
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.named.iter().map(|(&k, &v)| (k, v))
    }

    /// Record one sample into the named histogram, creating it on first
    /// use (mirrors [`SimStats::add`] for distributions).
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Read a named histogram (`None` when never recorded into).
    pub fn histogram(&self, name: &'static str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All named histograms, sorted by name (deterministic output).
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// Turn on hop tracing with a ring buffer of `cap` records. Enabling
    /// is idempotent on the cap; records survive re-enabling.
    pub fn enable_trace(&mut self, cap: usize) {
        match &mut self.trace {
            Some(buf) => buf.cap = cap,
            None => self.trace = Some(TraceBuf::new(cap)),
        }
    }

    /// Is hop tracing on?
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The trace collector (`None` unless [`SimStats::enable_trace`]d).
    pub fn trace(&self) -> Option<&TraceBuf> {
        self.trace.as_ref()
    }

    /// Append a hop record when tracing is on (no-op otherwise).
    pub fn trace_push(&mut self, rec: TraceRecord) {
        if let Some(buf) = &mut self.trace {
            buf.push(rec);
        }
    }

    /// Snapshot the difference `self - earlier` for the builtin counters —
    /// handy for measuring the cost of a single operation window.
    pub fn delta_messages(&self, earlier: &SimStats) -> u64 {
        self.messages - earlier.messages
    }

    /// Distance accumulated since `earlier`.
    pub fn delta_distance(&self, earlier: &SimStats) -> f64 {
        self.distance - earlier.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters_accumulate() {
        let mut s = SimStats::default();
        // tapestry-lint: allow(raw-counter) -- exercising the raw key API
        s.add("locate.hops", 3);
        // tapestry-lint: allow(raw-counter)
        s.add("locate.hops", 2);
        assert_eq!(s.get("locate.hops"), 5);
        assert_eq!(s.get("never"), 0);
    }

    #[test]
    fn named_iteration_sorted() {
        let mut s = SimStats::default();
        // tapestry-lint: allow(raw-counter) -- sorted-iteration fixture
        s.add("b", 1);
        // tapestry-lint: allow(raw-counter)
        s.add("a", 2);
        let names: Vec<_> = s.named().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn named_histograms_record_and_report() {
        let mut s = SimStats::default();
        for v in [10u64, 20, 30, 40] {
            // tapestry-lint: allow(raw-counter) -- exercising the raw key API
            s.record("locate.latency", v);
        }
        let h = s.histogram("locate.latency").expect("recorded");
        assert_eq!(h.count(), 4);
        assert_eq!(h.p50(), 20);
        assert!(s.histogram("never").is_none());
        let names: Vec<_> = s.histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["locate.latency"]);
    }

    fn rec(trace: u64, hop: u32) -> TraceRecord {
        TraceRecord {
            trace,
            kind: "locate",
            hop,
            level: 1,
            digit: 2,
            from: 3,
            to: 4,
            dist: 5.0,
            cum_dist: 6.0,
            at: SimTime(7),
        }
    }

    #[test]
    fn trace_disabled_by_default_and_push_is_inert() {
        let mut s = SimStats::default();
        assert!(!s.trace_enabled());
        s.trace_push(rec(1, 0));
        assert!(s.trace().is_none(), "pushes without a buffer vanish");
    }

    #[test]
    fn trace_ring_buffer_counts_overflow() {
        let mut buf = TraceBuf::new(2);
        for hop in 0..5 {
            buf.push(rec(9, hop));
        }
        assert_eq!(buf.records().len(), 2, "cap bounds the kept records");
        assert_eq!(buf.records()[1].hop, 1, "first records win, not last");
        assert_eq!(buf.dropped(), 3);
        assert_eq!(buf.cap(), 2);
    }

    #[test]
    fn deltas() {
        let before = SimStats { messages: 10, distance: 5.0, ..Default::default() };
        let mut after = before.clone();
        after.messages = 25;
        after.distance = 9.0;
        assert_eq!(after.delta_messages(&before), 15);
        assert!((after.delta_distance(&before) - 4.0).abs() < 1e-12);
    }
}

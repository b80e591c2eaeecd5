use crate::{Histogram, SimTime};

/// One causal hop of a sampled operation: who forwarded to whom, at which
/// routing level/digit, at what metric cost. Records are keyed by **sim
/// time** (never wall clock), so a trace is byte-identical from run to
/// run — the same contract the deterministic reports ride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Operation identity threaded through the message path (sampled
    /// locates or joins — the trace layer assigns).
    pub trace: u64,
    /// Operation family: `"locate"`, `"publish"`, `"join"`.
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

/// Records a run's trace collector keeps; past it, records are counted
/// as dropped, not stored.
const TRACE_CAP: usize = 4096;

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

/// Where one metric lives in [`SimStats`]: an index into the counter
/// vector or the histogram vector (each kind numbers its own slots from
/// zero). The layer that names metrics hands slots out — the engine never
/// sees a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(pub u16);

/// Global cost counters for one simulation run.
///
/// The unit of account follows the paper: messages (one per overlay send),
/// network distance (the metric length of each send — the paper's
/// "network latency" or "traffic"), and drops (sends to departed nodes).
/// Slotted counters let higher layers attribute costs to logical
/// operations (join messages, locate hops, …) without the engine knowing
/// anything about Tapestry. Slotted histograms do the same for
/// per-operation *distributions* (locate latency, hop counts) so drivers
/// can report percentiles, not just totals.
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
    /// `counters[slot]`; as long as the highest slot touched so far.
    counters: Vec<u64>,
    /// `hists[slot]`, grown like `counters`.
    hists: Vec<Histogram>,
    /// Hop-trace collector; `None` (the default) costs one branch per
    /// would-be record and keeps reports byte-identical to untraced runs.
    trace: Option<TraceBuf>,
}

impl SimStats {
    /// Increment the counter in `slot` by `v`. The first touch of a slot
    /// past the end grows the vector; every later bump is an indexed add.
    pub fn add(&mut self, slot: Slot, v: u64) {
        let i = usize::from(slot.0);
        if i >= self.counters.len() {
            self.counters.resize(i + 1, 0);
        }
        self.counters[i] += v;
    }

    /// Read the counter in `slot` (0 when never touched).
    pub fn get(&self, slot: Slot) -> u64 {
        self.counters.get(usize::from(slot.0)).copied().unwrap_or(0)
    }

    /// Record one sample into the histogram in `slot` (mirrors
    /// [`SimStats::add`] for distributions).
    pub fn record(&mut self, slot: Slot, v: u64) {
        let i = usize::from(slot.0);
        if i >= self.hists.len() {
            self.hists.resize_with(i + 1, Histogram::default);
        }
        self.hists[i].record(v);
    }

    /// Read the histogram in `slot` (`None` when never recorded into).
    pub fn histogram(&self, slot: Slot) -> Option<&Histogram> {
        self.hists.get(usize::from(slot.0)).filter(|h| h.count() > 0)
    }

    /// Turn on hop tracing with a buffer of `TRACE_CAP` records.
    /// Enabling is idempotent; records survive re-enabling.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(|| TraceBuf::new(TRACE_CAP));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters_accumulate() {
        let mut s = SimStats::default();
        s.add(Slot(3), 3);
        s.add(Slot(3), 2);
        assert_eq!(s.get(Slot(3)), 5);
        assert_eq!(s.get(Slot(2)), 0, "below the touched slot");
        assert_eq!(s.get(Slot(40)), 0, "past the end");
    }

    #[test]
    fn a_bump_past_the_end_grows_once() {
        let mut s = SimStats::default();
        s.add(Slot(7), 1);
        assert_eq!(s.counters.len(), 8);
        let (ptr, cap) = (s.counters.as_ptr(), s.counters.capacity());
        for slot in 0..8 {
            s.add(Slot(slot), 1);
        }
        assert_eq!((s.counters.as_ptr(), s.counters.capacity()), (ptr, cap), "no reallocation");
        assert_eq!(s.get(Slot(7)), 2);

        s.record(Slot(2), 10);
        let (ptr, cap) = (s.hists.as_ptr(), s.hists.capacity());
        s.record(Slot(2), 20);
        s.record(Slot(0), 30);
        assert_eq!((s.hists.as_ptr(), s.hists.capacity()), (ptr, cap), "no reallocation");
    }

    #[test]
    fn a_mid_run_clone_subtracts_to_the_window() {
        let mut s = SimStats::default();
        s.add(Slot(1), 4);
        let before = s.clone();
        s.add(Slot(1), 6);
        s.add(Slot(5), 2); // first touched after the snapshot
        let delta = |slot| s.get(slot) - before.get(slot);
        assert_eq!((delta(Slot(0)), delta(Slot(1)), delta(Slot(5))), (0, 6, 2));
    }

    #[test]
    fn named_histograms_record_and_report() {
        let mut s = SimStats::default();
        for v in [10u64, 20, 30, 40] {
            s.record(Slot(1), v);
        }
        let h = s.histogram(Slot(1)).expect("recorded");
        assert_eq!(h.count(), 4);
        assert_eq!(h.p50(), 20);
        assert!(s.histogram(Slot(0)).is_none(), "grown over, never recorded into");
        assert!(s.histogram(Slot(9)).is_none(), "past the end");
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
}

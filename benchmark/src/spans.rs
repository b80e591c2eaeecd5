//! In-memory spans for the traced pass: `{name, start_ns, end_ns, parent,
//! op}` records made from the benchmark's own loop around each call into
//! a layer's public functions, written out once at exit.
//!
//! Coarse spans (bootstrap, catalog, phase, each check, each probe round)
//! are all kept. Per-op spans are aggregated into count / total /
//! histogram per name and kept in full for one op in [`KEEP_ONE_IN`],
//! sharing that op's id. A span's self time is its duration minus the
//! part its direct children cover.

use crate::api::Histogram;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-op spans are kept in full for ops whose id is a multiple of this.
pub const KEEP_ONE_IN: u64 = 1024;

macro_rules! span_names {
    ($( $(#[$doc:meta])* $variant:ident => $text:literal, )*) => {
        /// The span vocabulary: one name per layer boundary the traced
        /// loop crosses. Dense, so recording a span indexes an array.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Name {
            $( $(#[$doc])* $variant, )*
        }

        impl Name {
            /// Every name, in declaration order.
            pub const ALL: &'static [Name] = &[ $( Name::$variant, )* ];

            /// The layer-qualified text written to the trace file.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( Name::$variant => $text, )*
                }
            }
        }
    };
}

span_names! {
    /// `ScenarioSpec::build_space`.
    SpaceBuild => "metric.space.build",
    /// `TapestryNetwork::bootstrap_threaded`.
    Bootstrap => "core.network.bootstrap",
    /// Everything after bootstrap: the traced counterpart of `run_s`.
    Run => "run",
    /// The synchronous catalog `publish` loop.
    Catalog => "core.network.catalog_publish",
    /// One phase of the spec.
    Phase => "phase",
    /// Arrival / churn expansion, sort and sampler build.
    Expand => "workload.traffic.expand",
    /// `run_until` / `run_to_idle`.
    Dispatch => "sim.engine.dispatch",
    /// `locate_async` / `publish_async`.
    Issue => "core.route.issue",
    /// One polling pass of `take_results` over the origins in flight.
    TakeResults => "core.network.take_results",
    /// `JoinCoalescer::{request, pump, force}` that launched no wave.
    CoalescerCall => "membership.coalescer.call",
    /// A coalescer call that launched at least one wave (always kept).
    CoalescerWave => "membership.coalescer.wave",
    /// One pass of `finish_insert_bookkeeping` over the joins in flight.
    InsertBookkeeping => "core.insert.bookkeeping",
    /// `probe_all_async`.
    ProbeCall => "core.maintain.probe_call",
    /// `check_property1`.
    CheckP1 => "core.network.check_property1",
    /// `check_property2`.
    CheckP2 => "core.network.check_property2",
    /// `distinct_roots_sampled` over the catalog sample.
    DistinctRoots => "core.network.distinct_roots",
    /// `snapshot`.
    Snapshot => "core.network.snapshot",
}

/// One kept span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which boundary.
    pub name: Name,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing kept span.
    pub parent: Option<usize>,
    /// Id of the op this span belongs to (per-op spans only).
    pub op: Option<u64>,
    /// Time covered by direct children, kept or aggregated.
    child_ns: u64,
}

impl Span {
    /// Duration minus the part direct children cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// Count, total and distribution of every span of one name.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Their durations, log-bucketed.
    pub hist: Histogram,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Indexed by `Name as usize`.
    by_name: Vec<Aggregate>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            by_name: vec![Aggregate::default(); Name::ALL.len()],
        }
    }

    /// Ns since the recorder was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a coarse span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: Name) -> usize {
        let at = self.now();
        self.open_at(name, at)
    }

    /// [`Tracer::open`] at an explicit time.
    pub fn open_at(&mut self, name: Name, start_ns: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: None, child_ns: 0 });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let at = self.now();
        self.close_at(id, at);
    }

    /// [`Tracer::close`] at an explicit time.
    pub fn close_at(&mut self, id: usize, end_ns: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        let dur = end_ns - self.spans[id].start_ns;
        self.account(self.spans[id].name, dur);
    }

    /// Record a per-op span that began at `start_ns` and ends now.
    pub fn op(&mut self, name: Name, start_ns: u64, op: u64) {
        let at = self.now();
        self.op_at(name, start_ns, at, op);
    }

    /// [`Tracer::op`] with an explicit end time.
    pub fn op_at(&mut self, name: Name, start_ns: u64, end_ns: u64, op: u64) {
        let parent = self.open.last().copied();
        self.account(name, end_ns - start_ns);
        if op.is_multiple_of(KEEP_ONE_IN) {
            let child_ns = 0;
            self.spans.push(Span { name, start_ns, end_ns, parent, op: Some(op), child_ns });
        }
    }

    /// Add one finished span to its name's aggregate and to the child
    /// time of the span now innermost.
    fn account(&mut self, name: Name, dur_ns: u64) {
        let agg = &mut self.by_name[name as usize];
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.hist.record(dur_ns);
        if let Some(&parent) = self.open.last() {
            self.spans[parent].child_ns += dur_ns;
        }
    }

    /// Seconds spent in all spans named `name`.
    pub fn total_s(&self, name: Name) -> f64 {
        self.by_name[name as usize].total_ns as f64 / 1e9
    }

    /// Spans named `name` recorded so far.
    pub fn count(&self, name: Name) -> u64 {
        self.by_name[name as usize].count
    }

    /// The kept spans, in start order of the coarse ones.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every kept span and every per-name aggregate.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"keep_one_in\":{KEEP_ONE_IN},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let op = sp.op.map_or("null".to_string(), |o| o.to_string());
            let _ = write!(
                s,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op},\"self_ns\":{}}}",
                sp.name.as_str(),
                sp.start_ns,
                sp.end_ns,
                sp.self_ns()
            );
        }
        s.push_str("\n],\"aggregates\":[");
        let recorded = Name::ALL.iter().zip(&self.by_name).filter(|(_, a)| a.count > 0);
        for (i, (name, a)) in recorded.enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let name = name.as_str();
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                a.count,
                a.total_ns,
                a.hist.p50(),
                a.hist.p99(),
                a.hist.max()
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

//! Deterministic scenario reports: per-phase percentile summaries,
//! drop/availability accounting, invariant spot-check results, and a
//! JSON emitter stable enough to commit (`BENCH_scenarios.json`) and diff
//! across PRs.
//!
//! The JSON goes through `tapestry_trace::json::JsonWriter`, so the
//! report follows the workspace's one set of JSON conventions (fixed key
//! order, three-decimal floats).

use std::collections::BTreeMap;
use tapestry_sim::Histogram;
use tapestry_trace::json::JsonWriter;
use tapestry_trace::Counter;

/// Percentile summary of one histogram, in the unit of the caller's
/// choosing (latencies are scaled from integer time units to metric
/// distance units before they land here).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl HistSummary {
    /// Summarize `h`, multiplying every statistic by `scale`.
    pub fn scaled(h: &Histogram, scale: f64) -> Self {
        HistSummary {
            count: h.count(),
            min: h.min() as f64 * scale,
            p50: h.p50() as f64 * scale,
            p90: h.p90() as f64 * scale,
            p99: h.p99() as f64 * scale,
            p999: h.p999() as f64 * scale,
            max: h.max() as f64 * scale,
            mean: h.mean() * scale,
        }
    }
}

/// Operation-level accounting for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Locates issued.
    pub issued: u64,
    /// Locates whose result came back.
    pub completed: u64,
    /// Results naming a live server.
    pub found_live: u64,
    /// Results naming a server that had died by collection time (stale
    /// pointers — the churn-visibility signal).
    pub found_dead: u64,
    /// Results reporting the object unreachable/unpublished.
    pub not_found: u64,
    /// Locates that never completed (lost to partitions, dead roots or a
    /// dead origin).
    pub lost: u64,
    /// Writes (republishes) issued.
    pub writes: u64,
    /// Writes whose server had died and was re-homed to a live node.
    pub rehomed: u64,
}

impl OpStats {
    fn add(&mut self, o: &OpStats) {
        self.issued += o.issued;
        self.completed += o.completed;
        self.found_live += o.found_live;
        self.found_dead += o.found_dead;
        self.not_found += o.not_found;
        self.lost += o.lost;
        self.writes += o.writes;
        self.rehomed += o.rehomed;
    }
}

/// Membership-event accounting for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChurnOutcome {
    /// Dynamic insertions that completed.
    pub joins_ok: u64,
    /// Insertions still incomplete at phase end (killed off).
    pub joins_failed: u64,
    /// Joins skipped because the space was at capacity.
    pub joins_skipped: u64,
    /// Voluntary departures completed.
    pub graceful_leaves: u64,
    /// Unannounced kills (including mass-failure victims).
    pub kills: u64,
    /// Partition cuts imposed.
    pub partitions: u64,
    /// Partition heals.
    pub heals: u64,
}

/// Results of the between-phase invariant spot-checks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InvariantReport {
    /// Property 1 violations (empty slots with a matching member).
    pub prop1_violations: u64,
    /// Property 2: primaries that are the true closest match.
    pub prop2_optimal: u64,
    /// Property 2: slots checked.
    pub prop2_total: u64,
    /// GUIDs sampled for the Theorem 2 root-uniqueness check.
    pub roots_sampled: u64,
    /// Sampled GUIDs whose root was agreed on by every member.
    pub roots_unique: u64,
}

/// Everything measured about one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Phase label.
    pub name: String,
    /// Simulated start, in metric-distance units.
    pub sim_start: f64,
    /// Simulated end (after the drain), in metric-distance units.
    pub sim_end: f64,
    /// Live members entering the phase.
    pub nodes_start: u64,
    /// Live members leaving the phase.
    pub nodes_end: u64,
    /// Operation accounting.
    pub ops: OpStats,
    /// Membership accounting.
    pub churn: ChurnOutcome,
    /// Locate latency (issue → completion), distance units.
    pub latency: HistSummary,
    /// Locate hop counts.
    pub hops: HistSummary,
    /// Locate path distance, distance units.
    pub distance: HistSummary,
    /// Messages sent during the phase.
    pub messages: u64,
    /// Total metric distance of those messages.
    pub traffic_distance: f64,
    /// Messages dropped on dead nodes during the phase (`SimStats.dropped`).
    pub dropped: u64,
    /// Messages dropped at partition cuts during the phase.
    pub partition_dropped: u64,
    /// Deltas of the named protocol counters that moved during the phase
    /// (surfaces `locate.not_found`, `availability.bounce_to_surrogate`,
    /// `repair.*`, …).
    pub counters: BTreeMap<String, u64>,
    /// Invariant spot-checks (`None`: skipped — unchecked phase or an
    /// active partition).
    pub invariants: Option<InvariantReport>,
    /// Mean routing-table entries per live node at phase end.
    pub avg_table_entries: f64,
}

impl PhaseReport {
    /// How far `counter` moved during the phase.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.name()).copied().unwrap_or(0)
    }
}

/// The full scenario result.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Substrate description (e.g. `torus(1000)`).
    pub space: String,
    /// Point capacity.
    pub capacity: u64,
    /// Bootstrapped members.
    pub initial_nodes: u64,
    /// Catalog size.
    pub objects: u64,
    /// Per-phase results, in phase order.
    pub phases: Vec<PhaseReport>,
    /// Whole-run operation accounting.
    pub total_ops: OpStats,
    /// Whole-run locate latency, distance units.
    pub total_latency: HistSummary,
    /// Whole-run locate hops.
    pub total_hops: HistSummary,
    /// Messages over the whole run.
    pub total_messages: u64,
    /// Drops over the whole run.
    pub total_dropped: u64,
    /// Partition drops over the whole run.
    pub total_partition_dropped: u64,
}

impl ScenarioReport {
    /// Sum a protocol counter across every phase (0 when it never moved).
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.phases.iter().map(|p| p.counter(counter)).sum()
    }

    /// Joins completed across every phase.
    pub fn joins_ok_total(&self) -> u64 {
        self.phases.iter().map(|p| p.churn.joins_ok).sum()
    }

    /// Targeted repairs released per initial node per probe round, with
    /// `probe_rounds` from [`crate::ScenarioSpec::probe_rounds`] (≥ 1):
    /// the figure that stays flat as n grows when maintenance cost
    /// follows the churn rate instead of the population.
    pub fn repairs_per_node_round(&self, probe_rounds: usize) -> f64 {
        let events = self.counter_total(tapestry_trace::metrics::REPAIR_EVENTS) as f64;
        events / self.initial_nodes as f64 / probe_rounds as f64
    }

    /// Recompute the whole-run aggregates from the phases plus the merged
    /// latency/hop histograms the runner kept.
    pub fn finalize(&mut self, latency: &Histogram, hops: &Histogram, latency_scale: f64) {
        self.total_ops = OpStats::default();
        self.total_messages = 0;
        self.total_dropped = 0;
        self.total_partition_dropped = 0;
        for p in &self.phases {
            self.total_ops.add(&p.ops);
            self.total_messages += p.messages;
            self.total_dropped += p.dropped;
            self.total_partition_dropped += p.partition_dropped;
        }
        self.total_latency = HistSummary::scaled(latency, latency_scale);
        self.total_hops = HistSummary::scaled(hops, 1.0);
    }

    /// Emit the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.out
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.open_obj();
        w.str_field("scenario", &self.scenario);
        w.u64_field("seed", self.seed);
        w.str_field("space", &self.space);
        w.u64_field("capacity", self.capacity);
        w.u64_field("initial_nodes", self.initial_nodes);
        w.u64_field("objects", self.objects);
        w.key("phases");
        w.open_arr();
        for p in &self.phases {
            p.write_json(w);
        }
        w.close_arr();
        w.key("totals");
        w.open_obj();
        write_ops(w, &self.total_ops);
        w.key("latency");
        write_hist(w, &self.total_latency);
        w.key("hops");
        write_hist(w, &self.total_hops);
        w.u64_field("messages", self.total_messages);
        w.u64_field("dropped", self.total_dropped);
        w.u64_field("partition_dropped", self.total_partition_dropped);
        w.close_obj();
        w.close_obj();
    }
}

impl PhaseReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.open_obj();
        w.str_field("name", &self.name);
        w.f64_field("sim_start", self.sim_start);
        w.f64_field("sim_end", self.sim_end);
        w.u64_field("nodes_start", self.nodes_start);
        w.u64_field("nodes_end", self.nodes_end);
        w.key("ops");
        w.open_obj();
        write_ops(w, &self.ops);
        w.close_obj();
        w.key("churn");
        w.open_obj();
        w.u64_field("joins_ok", self.churn.joins_ok);
        w.u64_field("joins_failed", self.churn.joins_failed);
        w.u64_field("joins_skipped", self.churn.joins_skipped);
        w.u64_field("graceful_leaves", self.churn.graceful_leaves);
        w.u64_field("kills", self.churn.kills);
        w.u64_field("partitions", self.churn.partitions);
        w.u64_field("heals", self.churn.heals);
        w.close_obj();
        w.key("latency");
        write_hist(w, &self.latency);
        w.key("hops");
        write_hist(w, &self.hops);
        w.key("distance");
        write_hist(w, &self.distance);
        w.u64_field("messages", self.messages);
        w.f64_field("traffic_distance", self.traffic_distance);
        w.u64_field("dropped", self.dropped);
        w.u64_field("partition_dropped", self.partition_dropped);
        w.key("counters");
        w.open_obj();
        for (k, &v) in &self.counters {
            w.u64_field(k, v);
        }
        w.close_obj();
        w.key("invariants");
        match &self.invariants {
            None => w.raw("null"),
            Some(inv) => {
                w.open_obj();
                w.u64_field("prop1_violations", inv.prop1_violations);
                w.u64_field("prop2_optimal", inv.prop2_optimal);
                w.u64_field("prop2_total", inv.prop2_total);
                w.u64_field("roots_sampled", inv.roots_sampled);
                w.u64_field("roots_unique", inv.roots_unique);
                w.close_obj();
            }
        }
        w.f64_field("avg_table_entries", self.avg_table_entries);
        w.close_obj();
    }
}

fn write_ops(w: &mut JsonWriter, o: &OpStats) {
    w.u64_field("issued", o.issued);
    w.u64_field("completed", o.completed);
    w.u64_field("found_live", o.found_live);
    w.u64_field("found_dead", o.found_dead);
    w.u64_field("not_found", o.not_found);
    w.u64_field("lost", o.lost);
    w.u64_field("writes", o.writes);
    w.u64_field("rehomed", o.rehomed);
}

fn write_hist(w: &mut JsonWriter, h: &HistSummary) {
    w.open_obj();
    w.u64_field("count", h.count);
    w.f64_field("min", h.min);
    w.f64_field("p50", h.p50);
    w.f64_field("p90", h.p90);
    w.f64_field("p99", h.p99);
    w.f64_field("p999", h.p999);
    w.f64_field("max", h.max);
    w.f64_field("mean", h.mean);
    w.close_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_trace::metrics;

    fn tiny_report() -> ScenarioReport {
        let mut lat = Histogram::new();
        let mut hops = Histogram::new();
        for v in [1024u64, 2048, 4096] {
            lat.record(v);
        }
        for v in [2u64, 3, 4] {
            hops.record(v);
        }
        let mut r = ScenarioReport {
            scenario: "demo".into(),
            seed: 1,
            space: "torus(1000)".into(),
            capacity: 8,
            initial_nodes: 8,
            objects: 4,
            phases: vec![PhaseReport {
                name: "only".into(),
                ops: OpStats { issued: 3, completed: 3, found_live: 3, ..Default::default() },
                latency: HistSummary::scaled(&lat, 1.0 / 1024.0),
                hops: HistSummary::scaled(&hops, 1.0),
                messages: 10,
                counters: BTreeMap::from([(metrics::LOCATE_FOUND.name().to_string(), 3u64)]),
                invariants: Some(InvariantReport {
                    prop1_violations: 0,
                    prop2_optimal: 5,
                    prop2_total: 5,
                    roots_sampled: 4,
                    roots_unique: 4,
                }),
                ..Default::default()
            }],
            ..Default::default()
        };
        r.finalize(&lat, &hops, 1.0 / 1024.0);
        r
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let a = tiny_report().to_json();
        let b = tiny_report().to_json();
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"scenario\":\"demo\""));
        assert!(a.contains("\"p50\":2.000"), "latency scaled to distance units: {a}");
        assert!(a.contains("\"locate.found\":3"));
        assert!(a.contains("\"invariants\":{"));
        assert!(tapestry_trace::json::Json::parse(&a).is_ok());
    }

    #[test]
    fn string_escaping_is_json_safe() {
        let mut r = tiny_report();
        r.scenario = "we\"ird\\name\n".into();
        let j = r.to_json();
        assert!(j.contains("we\\\"ird\\\\name\\n"));
    }

    #[test]
    fn totals_aggregate_phase_ops() {
        let r = tiny_report();
        assert_eq!(r.total_ops.issued, 3);
        assert_eq!(r.total_messages, 10);
        assert_eq!(r.total_latency.count, 3);
    }
}

//! Deterministic JSON emitters for telemetry.
//!
//! Hand-rolled like workload's report writer (the workspace is
//! vendor-only — no serde): fixed field order, sorted counter maps, and
//! all floats printed with three decimals, so two runs that simulated the
//! same events produce byte-identical files. That is the property CI's
//! determinism matrix `cmp`s. Wall-clock material (handler-time
//! histograms) is emitted separately — it belongs next to sweep's
//! `--timing-json`, never in the byte-compared files.

use crate::registry::metrics;
use crate::sampler::SeriesSample;
use tapestry_sim::{Histogram, SimStats, TraceBuf, EVENT_KINDS};

/// Three-decimal float formatting, matching the report writer.
fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Serialize a sampled-operation hop trace:
/// `{"schema":"tapestry-trace/v1","sample":N,"cap":…,"kept":…,"dropped":…,"records":[…]}`.
///
/// `sample` is the driver's 1-in-N locate sampling rate (0 = driver did
/// not sample locates; joins/repair may still appear).
pub fn trace_json(buf: &TraceBuf, sample: u64) -> String {
    let mut out = String::with_capacity(128 + buf.records().len() * 96);
    out.push_str("{\"schema\":\"tapestry-trace/v1\"");
    out.push_str(&format!(",\"sample\":{sample}"));
    out.push_str(&format!(",\"cap\":{}", buf.cap()));
    out.push_str(&format!(",\"kept\":{}", buf.records().len()));
    out.push_str(&format!(",\"dropped\":{}", buf.dropped()));
    out.push_str(",\"records\":[");
    for (i, r) in buf.records().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"trace\":{},\"kind\":\"{}\",\"hop\":{},\"level\":{},\"digit\":{},\
             \"from\":{},\"to\":{},\"dist\":{},\"cum_dist\":{},\"at\":{}}}",
            r.trace,
            r.kind,
            r.hop,
            r.level,
            r.digit,
            r.from,
            r.to,
            f3(r.dist),
            f3(r.cum_dist),
            r.at.0
        ));
    }
    out.push_str("]}\n");
    out
}

/// Serialize the time-series samples plus a final counter/histogram dump
/// under registry names — the engine builtins, then every counter that
/// moved and every histogram that was recorded into, sorted by name:
/// `{"schema":"tapestry-metrics/v2","window":…,"samples":[…],"counters":[…],"histograms":[…]}`.
pub fn metrics_json(window: u64, samples: &[SeriesSample], stats: &SimStats) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":\"tapestry-metrics/v2\"");
    out.push_str(&format!(",\"window\":{window}"));
    out.push_str(",\"samples\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"at\":{}", s.at.0));
        out.push_str(",\"events\":{");
        for (k, name) in EVENT_KINDS.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", name, s.events[k]));
        }
        out.push('}');
        out.push_str(&format!(",\"messages\":{}", s.messages));
        out.push_str(&format!(",\"dropped\":{}", s.dropped));
        out.push_str(&format!(",\"live_nodes\":{}", s.live_nodes));
        out.push_str(&format!(",\"repair_backlog\":{}", s.repair_backlog));
        out.push_str(",\"queue_depths\":[");
        for (k, d) in s.queue_depths.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!("{d}"));
        }
        out.push_str("]}");
    }
    out.push(']');
    out.push_str(",\"counters\":[");
    let builtins = [
        (metrics::ENGINE_MESSAGES.name(), stats.messages),
        (metrics::ENGINE_DROPPED.name(), stats.dropped),
        (metrics::ENGINE_PARTITION_DROPPED.name(), stats.partition_dropped),
        (metrics::ENGINE_TIMERS.name(), stats.timers),
    ];
    let mut moved: Vec<(&str, u64)> =
        metrics::counters().map(|c| (c.name(), c.read(stats))).filter(|&(_, v)| v > 0).collect();
    moved.sort_unstable();
    for (i, (name, v)) in builtins.iter().chain(&moved).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{name}\",\"value\":{v}}}"));
    }
    out.push(']');
    out.push_str(&format!(",\"distance\":{}", f3(stats.distance)));
    out.push_str(",\"histograms\":[");
    let mut recorded: Vec<(&str, &Histogram)> =
        metrics::hists().filter_map(|h| Some((h.name(), h.read(stats)?))).collect();
    recorded.sort_unstable_by_key(|&(name, _)| name);
    for (i, (name, h)) in recorded.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{name}\",{}}}", histogram_fields(h)));
    }
    out.push_str("]}\n");
    out
}

/// Serialize the engine's per-event-kind handler wall-time histograms as
/// a JSON array (nanoseconds). **Wall-clock material** — embed this only
/// in uncommitted timing files, never in byte-compared reports.
pub fn handler_ns_json(hists: &[Histogram; 3]) -> String {
    let mut out = String::from("[");
    for (k, name) in EVENT_KINDS.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"kind\":\"{}\",{}}}", name, histogram_fields(&hists[k])));
    }
    out.push(']');
    out
}

fn histogram_fields(h: &Histogram) -> String {
    format!(
        "\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{},\"mean\":{}",
        h.count(),
        h.min(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999(),
        h.max(),
        f3(h.mean())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SeriesSample;
    use tapestry_sim::{SimTime, TraceRecord};

    #[test]
    fn trace_json_shape_and_determinism() {
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
                cum_dist: 2.5,
                at: SimTime(42),
            });
        }
        let a = trace_json(&buf, 16);
        assert_eq!(a, trace_json(&buf, 16), "emitter is a pure function");
        assert!(a.starts_with("{\"schema\":\"tapestry-trace/v1\",\"sample\":16,\"cap\":2,"));
        assert!(a.contains("\"kept\":2,\"dropped\":1"));
        assert!(a.contains("\"dist\":1.250,\"cum_dist\":2.500,\"at\":42"));
        assert!(a.ends_with("]}\n"));
    }

    #[test]
    fn metrics_json_lists_what_moved_sorted_by_name() {
        let mut stats = SimStats::default();
        stats.messages = 7;
        // Bumped against name order; one counter touched but still zero.
        metrics::REPAIR_PINGS.add_to(&mut stats, 9);
        metrics::JOIN_MESSAGES.add_to(&mut stats, 3);
        metrics::LOCATE_FOUND.add_to(&mut stats, 0);
        metrics::LOCATE_HOPS.record_to(&mut stats, 4);
        let sample = SeriesSample {
            at: SimTime(100),
            events: [5, 2, 0],
            messages: 7,
            dropped: 0,
            live_nodes: 64,
            repair_backlog: 3,
            queue_depths: vec![1, 2],
        };
        let j = metrics_json(50, &[sample], &stats);
        assert!(j.starts_with("{\"schema\":\"tapestry-metrics/v2\",\"window\":50,"));
        assert!(j.contains("\"events\":{\"deliver\":5,\"timer\":2,\"contact_failed\":0}"));
        assert!(j.contains("\"queue_depths\":[1,2]"));
        assert!(j.contains(
            "\"counters\":[{\"name\":\"engine.messages\",\"value\":7},\
             {\"name\":\"engine.dropped\",\"value\":0},\
             {\"name\":\"engine.partition_dropped\",\"value\":0},\
             {\"name\":\"engine.timers\",\"value\":0},\
             {\"name\":\"membership.join.messages\",\"value\":3},\
             {\"name\":\"repair.pings\",\"value\":9}]"
        ));
        assert!(j.contains("\"histograms\":[{\"name\":\"locate.hops\",\"count\":1,"));
        assert!(!j.contains("\"key\""));
        assert!(!j.contains("locate.found"), "a counter at zero is omitted");
    }

    #[test]
    fn handler_ns_json_lists_all_kinds() {
        let mut hists = [Histogram::default(), Histogram::default(), Histogram::default()];
        hists[0].record(100);
        let j = handler_ns_json(&hists);
        assert!(j.starts_with("[{\"kind\":\"deliver\",\"count\":1,"));
        assert!(j.contains("{\"kind\":\"timer\",\"count\":0,"));
        assert!(j.contains("{\"kind\":\"contact_failed\",\"count\":0,"));
    }
}

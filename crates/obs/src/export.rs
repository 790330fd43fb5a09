//! Trace exporters: Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and an OTLP-style JSON document for spans+events.
//!
//! Both exporters serialise the same input — the [`TraceRecord`]s of one
//! trace, spans and causal events alike — and both are pure string
//! builders: `pod-obs` sits below `pod-log` in the dependency order, so it
//! cannot reuse the `pod-log` JSON value type and instead does its own
//! (minimal, escape-correct) serialisation.
//!
//! Timestamps are virtual-clock microseconds, which is exactly the unit the
//! Chrome trace-event format wants in `ts`/`dur`; the OTLP export multiplies
//! them up to nanoseconds. Under a fixed seed the exported documents are
//! byte-identical across runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::trace::TraceRecord;

/// Escapes `s` for embedding inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn args_object(pairs: &[(&'static str, String)], extra: &[(&str, String)]) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(pairs.len() + extra.len());
    for (k, v) in pairs {
        parts.push(format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
    }
    for (k, v) in extra {
        parts.push(format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders a Chrome trace-event JSON document for one trace.
///
/// Spans become `ph:"X"` complete events, causal events become `ph:"i"`
/// instants, and every cause→effect link becomes a `ph:"s"`/`ph:"f"` flow
/// pair so the evidence chain renders as arrows. Every emitted object
/// carries the `ph`, `ts`, `pid`, `tid` and `name` keys.
///
/// # Examples
///
/// ```
/// use pod_obs::{chrome_trace, Obs};
///
/// let obs = Obs::detached();
/// obs.begin_run("run-1");
/// drop(obs.span("conformance.replay"));
/// obs.event("log.line", "asgard.log");
/// let json = chrome_trace("run-1", &obs.trace().records());
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"ph\":\"X\""));
/// assert!(json.contains("\"ph\":\"i\""));
/// ```
pub fn chrome_trace(trace_id: &str, records: &[TraceRecord]) -> String {
    let spans = || records.iter().filter(|r| r.is_span());
    let events = || records.iter().filter(|r| !r.is_span());
    let mut entries: Vec<String> = Vec::with_capacity(records.len() * 3 + 1);
    entries.push(format!(
        "{{\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(trace_id)
    ));
    for span in spans() {
        let mut extra = vec![("span_id", span.id.to_string())];
        if let Some(parent) = span.span {
            extra.push(("parent_span_id", parent.to_string()));
        }
        entries.push(format!(
            "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"name\":\"{}\",\
             \"cat\":\"span\",\"args\":{}}}",
            span.start.as_micros(),
            span.duration().as_micros(),
            escape_json(&span.name),
            args_object(&span.attrs, &extra),
        ));
    }
    for event in events() {
        let mut extra = vec![("event_id", event.id.to_string())];
        if let Some(cause) = event.cause {
            extra.push(("cause", cause.to_string()));
        }
        if let Some(span) = event.span {
            extra.push(("span_id", span.to_string()));
        }
        entries.push(format!(
            "{{\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":1,\"name\":\"{}\",\
             \"cat\":\"{}\",\"s\":\"t\",\"args\":{}}}",
            event.start.as_micros(),
            escape_json(&event.name),
            escape_json(event.kind),
            args_object(&event.attrs, &extra),
        ));
    }
    // Flow arrows for causal links. The flow id is the effect's event id
    // (unique, since every event has at most one cause).
    let by_id: BTreeMap<u64, &TraceRecord> = events().map(|e| (e.id, e)).collect();
    for event in events() {
        let Some(cause) = event.cause.and_then(|id| by_id.get(&id)) else {
            continue; // a root, or its cause was evicted from the ring
        };
        entries.push(format!(
            "{{\"ph\":\"s\",\"ts\":{},\"pid\":1,\"tid\":1,\"name\":\"cause\",\
             \"cat\":\"cause\",\"id\":{}}}",
            cause.start.as_micros(),
            event.id,
        ));
        entries.push(format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"ts\":{},\"pid\":1,\"tid\":1,\"name\":\"cause\",\
             \"cat\":\"cause\",\"id\":{}}}",
            event.start.as_micros(),
            event.id,
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        entries.join(",\n")
    )
}

/// Derives a stable 128-bit hex trace id from the run's string id (OTLP
/// requires 16 bytes; our run ids are human-readable strings).
fn otlp_trace_id(trace_id: &str) -> String {
    // FNV-1a, folded twice with different offsets for 128 bits.
    let mut lo: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hi: u64 = 0x6c62_272e_07bb_0142;
    for b in trace_id.bytes() {
        lo = (lo ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        hi = (hi ^ b as u64)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(7);
    }
    format!("{hi:016x}{lo:016x}")
}

fn otlp_attrs<K: AsRef<str>>(pairs: &[(K, String)]) -> String {
    let parts: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!(
                "{{\"key\":\"{}\",\"value\":{{\"stringValue\":\"{}\"}}}}",
                escape_json(k.as_ref()),
                escape_json(v)
            )
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// Renders an OTLP-style JSON document (`resourceSpans` → `scopeSpans` →
/// `spans`) for one trace. Causal events are attached to the span they were
/// emitted under; events with no enclosing span land on a synthetic root
/// span named after the trace, so no event is lost in export.
///
/// # Examples
///
/// ```
/// use pod_obs::{otlp_json, Obs};
///
/// let obs = Obs::detached();
/// obs.begin_run("run-1");
/// drop(obs.span("faulttree.walk"));
/// let json = otlp_json("run-1", &obs.trace().records());
/// assert!(json.contains("\"resourceSpans\""));
/// assert!(json.contains("faulttree.walk"));
/// ```
pub fn otlp_json(trace_id: &str, records: &[TraceRecord]) -> String {
    let trace_hex = otlp_trace_id(trace_id);
    let nanos = |us: u64| us.saturating_mul(1000);
    let event_json = |event: &TraceRecord| -> String {
        let mut attrs: Vec<(&'static str, String)> = vec![("event.kind", event.kind.to_string())];
        if let Some(cause) = event.cause {
            attrs.push(("event.cause", cause.to_string()));
        }
        attrs.push(("event.id", event.id.to_string()));
        attrs.extend(event.attrs.iter().cloned());
        format!(
            "{{\"timeUnixNano\":\"{}\",\"name\":\"{}\",\"attributes\":{}}}",
            nanos(event.start.as_micros()),
            escape_json(&event.name),
            otlp_attrs(&attrs),
        )
    };
    let spans = || records.iter().filter(|r| r.is_span());
    let events = || records.iter().filter(|r| !r.is_span());
    let span_ids: BTreeSet<u64> = spans().map(|s| s.id).collect();
    // Each event's JSON, grouped under its span (in emission order);
    // events outside every retained span go to the synthetic root.
    let mut span_events: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut orphan_events: Vec<String> = Vec::new();
    for event in events() {
        match event.span.filter(|s| span_ids.contains(s)) {
            Some(span) => span_events.entry(span).or_default().push(event_json(event)),
            None => orphan_events.push(event_json(event)),
        }
    }
    let mut span_entries: Vec<String> = Vec::with_capacity(span_ids.len() + 1);
    for span in spans() {
        span_entries.push(format!(
            "{{\"traceId\":\"{}\",\"spanId\":\"{:016x}\",\"parentSpanId\":\"{}\",\
             \"name\":\"{}\",\"kind\":1,\
             \"startTimeUnixNano\":\"{}\",\"endTimeUnixNano\":\"{}\",\
             \"attributes\":{},\"events\":[{}]}}",
            trace_hex,
            span.id + 1, // OTLP forbids the all-zero span id
            span.span
                .map(|p| format!("{:016x}", p + 1))
                .unwrap_or_default(),
            escape_json(&span.name),
            nanos(span.start.as_micros()),
            nanos(span.end.unwrap_or(span.start).as_micros()),
            otlp_attrs(&span.attrs),
            span_events
                .get(&span.id)
                .map_or(String::new(), |e| e.join(",")),
        ));
    }
    if !orphan_events.is_empty() {
        let start = events().map(|e| e.start.as_micros()).min().unwrap_or(0);
        let end = events().map(|e| e.start.as_micros()).max().unwrap_or(0);
        span_entries.push(format!(
            "{{\"traceId\":\"{}\",\"spanId\":\"{:016x}\",\"parentSpanId\":\"\",\
             \"name\":\"{}\",\"kind\":1,\
             \"startTimeUnixNano\":\"{}\",\"endTimeUnixNano\":\"{}\",\
             \"attributes\":[],\"events\":[{}]}}",
            trace_hex,
            u64::MAX,
            escape_json(trace_id),
            nanos(start),
            nanos(end),
            orphan_events.join(","),
        ));
    }
    format!(
        "{{\"resourceSpans\":[{{\"resource\":{{\"attributes\":[{{\"key\":\"service.name\",\
         \"value\":{{\"stringValue\":\"pod-diagnosis\"}}}}]}},\
         \"scopeSpans\":[{{\"scope\":{{\"name\":\"pod-obs\"}},\"spans\":[\n{}\n]}}]}}]}}\n",
        span_entries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use pod_sim::SimDuration;

    fn sample_obs() -> Obs {
        let obs = Obs::detached();
        obs.begin_run("run-x");
        {
            let span = obs.span("conformance.replay");
            span.attr("activity", "terminate \"old\" instance");
            let line = obs.event("log.line", "asgard.log");
            line.attr("message", "says \"hi\"\n");
            obs.clock().advance(SimDuration::from_millis(10));
            obs.event_under(line.id(), "conformance.verdict", "conformance:unfit");
        }
        obs
    }

    #[test]
    fn chrome_trace_has_required_keys_and_escapes_strings() {
        let obs = sample_obs();
        let json = chrome_trace("run-x", &obs.trace().records());
        for key in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":", "\"name\":"] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(
            json.contains("\"dur\":10000"),
            "span duration in µs:\n{json}"
        );
        assert!(json.contains("says \\\"hi\\\"\\n"), "escaping:\n{json}");
        // One flow pair for the causal link.
        assert!(json.contains("\"ph\":\"s\""), "flow start:\n{json}");
        assert!(json.contains("\"ph\":\"f\""), "flow finish:\n{json}");
        assert!(!json.contains('\u{0}'));
    }

    #[test]
    fn otlp_json_nests_events_under_their_span() {
        let obs = sample_obs();
        let json = otlp_json("run-x", &obs.trace().records());
        assert!(json.contains("\"resourceSpans\""));
        assert!(json.contains("\"name\":\"conformance.replay\""));
        assert!(json.contains("\"name\":\"asgard.log\""));
        assert!(json.contains("\"startTimeUnixNano\":\"0\""));
        assert!(json.contains("\"endTimeUnixNano\":\"10000000\""));
        // Both events were emitted under the span, so no synthetic root.
        assert!(!json.contains(&format!("{:016x}", u64::MAX)));
    }

    #[test]
    fn otlp_json_collects_orphan_events_on_a_synthetic_root() {
        let obs = Obs::detached();
        obs.begin_run("run-y");
        obs.event("log.line", "asgard.log");
        let json = otlp_json("run-y", &obs.trace().records());
        assert!(json.contains(&format!("{:016x}", u64::MAX)), "got:\n{json}");
        assert!(json.contains("\"name\":\"run-y\""));
    }

    #[test]
    fn trace_ids_are_stable_and_distinct() {
        assert_eq!(otlp_trace_id("run-1"), otlp_trace_id("run-1"));
        assert_ne!(otlp_trace_id("run-1"), otlp_trace_id("run-2"));
        assert_eq!(otlp_trace_id("run-1").len(), 32);
    }
}

//! Smoke tests for the trace exporters: the Chrome trace-event JSON and
//! the OTLP-style JSON produced from a real diagnosis run must parse and
//! carry the keys the respective viewers require.
//!
//! `pod-obs` sits below `pod-log`, so its exporters hand-encode JSON;
//! these tests re-parse the output with `pod_log::Json` to prove the
//! encoding (including attribute escaping) is sound.

use pod_diagnosis::eval::{execute_run_traced, Campaign, CampaignConfig};
use pod_diagnosis::log::Json;
use pod_diagnosis::obs::{chrome_trace, otlp_json};

fn exported_trace() -> (String, String) {
    let campaign = Campaign::new(CampaignConfig {
        runs_per_fault: 1,
        seed: 99,
        interference_fraction: 0.0,
        transient_fraction: 0.0,
        reinject_fraction: 0.0,
        large_cluster_every: 0,
        ..CampaignConfig::default()
    });
    let (_, dump) = execute_run_traced(&campaign.plans()[0]);
    assert!(dump.records.iter().any(|r| r.is_span()));
    assert!(dump.records.iter().any(|r| !r.is_span()));
    (
        chrome_trace(&dump.trace_id, &dump.records),
        otlp_json(&dump.trace_id, &dump.records),
    )
}

#[test]
fn chrome_trace_parses_and_carries_required_keys() {
    let (chrome, _) = exported_trace();
    let doc = Json::parse(&chrome).expect("chrome trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() > 10, "only {} trace events", events.len());
    for event in events {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(
                event.get(key).is_some(),
                "trace event missing {key}: {event:?}"
            );
        }
    }
    // All three record shapes appear: complete spans, instant events and
    // flow arrows binding causes to effects.
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .collect();
    for ph in ["X", "i", "s", "f", "M"] {
        assert!(phases.contains(&ph), "no {ph:?} phase in export");
    }
}

#[test]
fn otlp_export_parses_with_spans_and_events() {
    let (_, otlp) = exported_trace();
    let doc = Json::parse(&otlp).expect("otlp export is valid JSON");
    let scope_spans = doc
        .get("resourceSpans")
        .and_then(|v| v.as_array())
        .and_then(|rs| rs.first())
        .and_then(|r| r.get("scopeSpans"))
        .and_then(|v| v.as_array())
        .expect("scopeSpans array");
    let spans = scope_spans
        .first()
        .and_then(|s| s.get("spans"))
        .and_then(|v| v.as_array())
        .expect("spans array");
    assert!(!spans.is_empty());
    let mut events_seen = 0;
    for span in spans {
        let trace_id = span
            .get("traceId")
            .and_then(|v| v.as_str())
            .expect("traceId");
        assert_eq!(trace_id.len(), 32, "traceId not 32 hex chars: {trace_id}");
        let span_id = span.get("spanId").and_then(|v| v.as_str()).expect("spanId");
        assert_eq!(span_id.len(), 16, "spanId not 16 hex chars: {span_id}");
        assert_ne!(span_id, "0000000000000000");
        assert!(span.get("startTimeUnixNano").is_some());
        assert!(span.get("endTimeUnixNano").is_some());
        if let Some(events) = span.get("events").and_then(|v| v.as_array()) {
            events_seen += events.len();
        }
    }
    assert!(events_seen > 0, "no span carries causal events");
}

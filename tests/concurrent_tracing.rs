//! Concurrency tests for the observability layer: two interleaved
//! operations, each on its own cloud and trace, must keep their spans and
//! causal events fully separated — no cross-linked parents, no leaked
//! trace ids — even when driven from separate threads.

use std::collections::BTreeSet;
use std::thread;

use pod_diagnosis::eval::{build_engine, build_scenario, ScenarioConfig};
use pod_diagnosis::log::LogEvent;
use pod_diagnosis::obs::TraceRecord;
use pod_diagnosis::orchestrator::{FaultInjector, FaultType, RollingUpgrade, UpgradeObserver};
use pod_diagnosis::sim::{SimRng, SimTime};

struct Monitor<'s> {
    engine: pod_diagnosis::core::PodEngine,
    scenario: &'s pod_diagnosis::eval::Scenario,
    injection: Option<(SimTime, FaultInjector)>,
    rng: SimRng,
}

impl UpgradeObserver for Monitor<'_> {
    fn on_log(&mut self, event: LogEvent) {
        self.engine.ingest(event);
    }

    fn on_tick(&mut self, cloud: &pod_diagnosis::cloud::Cloud, now: SimTime) {
        if let Some((at, _)) = &self.injection {
            if now >= *at {
                let (_, mut injector) = self.injection.take().expect("checked above");
                injector.inject(
                    cloud,
                    &self.scenario.upgrade,
                    &self.scenario.upgrade_lc_name,
                    &mut self.rng,
                );
            }
        }
        self.engine.poll();
    }
}

/// Runs one faulty upgrade end to end and returns its trace id, spans and
/// causal events.
fn run_upgrade(seed: u64, fault: FaultType) -> (String, Vec<TraceRecord>, Vec<TraceRecord>) {
    let config = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario(&config);
    scenario.cloud.obs().begin_run(&scenario.trace_id);
    let engine = build_engine(&scenario, &config);
    let mut monitor = Monitor {
        engine,
        scenario: &scenario,
        injection: Some((SimTime::from_secs(70), FaultInjector::new(fault))),
        rng: SimRng::seed_from(seed ^ 0xBEEF),
    };
    let mut upgrade = RollingUpgrade::new(
        scenario.cloud.clone(),
        scenario.upgrade.clone(),
        scenario.trace_id.clone(),
    );
    upgrade.run(&mut monitor);
    monitor.engine.finish();
    let obs = scenario.cloud.obs();
    assert_eq!(obs.trace().trace_id(), scenario.trace_id);
    let (spans, events) = obs.trace().records().into_iter().partition(|r| r.is_span());
    (scenario.trace_id.clone(), spans, events)
}

/// Every span parent and every event parent/span link must resolve within
/// the same trace (links only point at ids that exist, or were evicted —
/// never at another trace's ids, which these small runs never evict).
fn assert_self_contained(spans: &[TraceRecord], events: &[TraceRecord]) {
    let span_ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let event_ids: BTreeSet<u64> = events.iter().map(|e| e.id).collect();
    for span in spans {
        if let Some(parent) = span.span {
            assert!(span_ids.contains(&parent), "span {} orphaned", span.id);
        }
    }
    for event in events {
        if let Some(parent) = event.cause {
            assert!(event_ids.contains(&parent), "event {} orphaned", event.id);
        }
        if let Some(span) = event.span {
            assert!(
                span_ids.contains(&span),
                "event {} points at unknown span",
                event.id
            );
        }
    }
}

#[test]
fn interleaved_upgrades_do_not_cross_link() {
    // Two upgrades with different faults run concurrently on independent
    // clouds; their traces must be disjoint and internally consistent.
    let a = thread::spawn(|| run_upgrade(101, FaultType::AmiChangedDuringUpgrade));
    let b = thread::spawn(|| run_upgrade(202, FaultType::ElbUnavailable));
    let (id_a, spans_a, events_a) = a.join().expect("upgrade A panicked");
    let (id_b, spans_b, events_b) = b.join().expect("upgrade B panicked");

    assert_ne!(id_a, id_b);
    assert!(!spans_a.is_empty() && !spans_b.is_empty());
    assert!(!events_a.is_empty() && !events_b.is_empty());
    assert_self_contained(&spans_a, &events_a);
    assert_self_contained(&spans_b, &events_b);

    // Both runs reconstruct incidents, and each run's chains stay anchored
    // in its own log — the other run's fault never leaks into the story.
    let incidents_a = pod_diagnosis::obs::incidents(&events_a);
    let incidents_b = pod_diagnosis::obs::incidents(&events_b);
    assert!(incidents_a.iter().any(|c| c.complete()));
    assert!(incidents_b.iter().any(|c| c.complete()));
    let causes_a: BTreeSet<String> = incidents_a
        .iter()
        .flat_map(|c| c.root_causes.iter().map(|r| r.name.to_string()))
        .collect();
    let causes_b: BTreeSet<String> = incidents_b
        .iter()
        .flat_map(|c| c.root_causes.iter().map(|r| r.name.to_string()))
        .collect();
    assert!(
        causes_a.contains("lc-wrong-ami"),
        "A diagnosed {causes_a:?}"
    );
    assert!(
        causes_b.contains("elb-unavailable"),
        "B diagnosed {causes_b:?}"
    );
    assert!(
        !causes_a.contains("elb-unavailable"),
        "cross-linked: {causes_a:?}"
    );
    assert!(
        !causes_b.contains("lc-wrong-ami"),
        "cross-linked: {causes_b:?}"
    );
}

#[test]
fn sequential_runs_on_one_cloud_reset_cleanly() {
    // Same scenario config reused: begin_run must give the second run a
    // fresh trace with no events or spans carried over.
    let config = ScenarioConfig {
        seed: 303,
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario(&config);
    let obs = scenario.cloud.obs();
    obs.begin_run("first");
    {
        let _span = obs.span("upgrade.step");
        obs.event("log.line", "asgard.log");
    }
    let records = obs.trace().records();
    assert_eq!(records.iter().filter(|r| r.is_span()).count(), 1);
    assert_eq!(records.iter().filter(|r| !r.is_span()).count(), 1);
    obs.begin_run("second");
    assert_eq!(obs.trace().trace_id(), "second");
    assert!(obs.trace().records().is_empty());
    assert_eq!(obs.trace().events_dropped(), 0);
}

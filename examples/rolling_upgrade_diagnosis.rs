//! Experiment E6: reproduce the paper's sample diagnosis transcript
//! (Section III.B.4) — a wrong-AMI fault whose diagnosis walks the fault
//! tree, excludes the other potential faults one by one, and pinpoints the
//! rogue AMI as the root cause.
//!
//! Run with `cargo run --example rolling_upgrade_diagnosis`.

use pod_diagnosis::cloud::Cloud;
use pod_diagnosis::eval::{build_engine, build_scenario, ScenarioConfig};
use pod_diagnosis::log::{LogEvent, LogQuery};
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

    fn on_tick(&mut self, cloud: &Cloud, now: SimTime) {
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

fn main() {
    let config = ScenarioConfig {
        seed: 1119, // 2013-11-19, the date in the paper's sample log
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario(&config);
    scenario.cloud.obs().begin_run(&scenario.trace_id);
    let engine = build_engine(&scenario, &config);
    let mut monitor = Monitor {
        engine,
        scenario: &scenario,
        injection: Some((
            SimTime::from_secs(70),
            FaultInjector::new(FaultType::AmiChangedDuringUpgrade),
        )),
        rng: SimRng::seed_from(13),
    };
    let mut upgrade = RollingUpgrade::new(
        scenario.cloud.clone(),
        scenario.upgrade.clone(),
        scenario.trace_id.clone(),
    );
    upgrade.run(&mut monitor);
    let summary = monitor.engine.finish();

    println!("== operation log (tagged lines forwarded to central storage) ==");
    for e in scenario
        .storage
        .query(&LogQuery::new().with_source("asgard.log"))
    {
        println!("{e}");
    }

    println!();
    println!("== assertion-evaluation log ==");
    for e in scenario
        .storage
        .query(&LogQuery::new().with_type("assertion"))
        .iter()
        .take(14)
    {
        println!("{e}");
    }

    println!();
    println!("== diagnosis transcript (compare with Section III.B.4 of the paper) ==");
    for e in scenario
        .storage
        .query(&LogQuery::new().with_type("diagnosis"))
    {
        println!("{e}");
    }

    println!();
    println!("== operator report ==");
    for d in &summary.detections {
        if let Some(diag) = &d.diagnosis {
            println!(
                "[{}] detected via {:?} (step {}): {} — {} potential faults, {} excluded, \
                 {} tests run in {}",
                d.at,
                d.source,
                d.step.as_deref().unwrap_or("-"),
                d.description,
                diag.potential_faults,
                diag.excluded,
                diag.tests_run,
                diag.duration,
            );
            for cause in &diag.root_causes {
                println!("    ROOT CAUSE: {}", cause.description);
            }
        }
    }

    let obs = scenario.cloud.obs();
    println!();
    println!("== incident timelines (causal chains, virtual time) ==");
    let records = obs.trace().records();
    print!("{}", pod_diagnosis::obs::render_timelines(&records));
    println!();
    println!("== span tree (virtual time) ==");
    print!("{}", obs.trace().render_tree());
    println!();
    println!("== span flame summary ==");
    print!("{}", obs.trace().render_flame());
    println!();
    println!("== metrics summary ==");
    print!("{}", pod_diagnosis::obs::render_summary(&obs.snapshot()));
    let spans_dropped = obs.trace().spans_dropped();
    let events_dropped = obs.trace().events_dropped();
    if spans_dropped > 0 || events_dropped > 0 {
        println!(
            "WARNING: retention caps hit — {spans_dropped} span(s) and {events_dropped} causal \
             event(s) dropped; the trace exports below are incomplete"
        );
    } else {
        println!("spans dropped: 0, causal events dropped: 0");
    }

    let chrome = pod_diagnosis::obs::chrome_trace(&scenario.trace_id, &records);
    std::fs::write("TRACE_e6.json", chrome).expect("write chrome trace");
    let otlp = pod_diagnosis::obs::otlp_json(&scenario.trace_id, &records);
    std::fs::write("TRACE_e6_otlp.json", otlp).expect("write otlp trace");
    let spans = records.iter().filter(|r| r.is_span()).count();
    println!(
        "exported {} spans and {} causal events to TRACE_e6.json (Chrome trace-event) and \
         TRACE_e6_otlp.json (OTLP-style JSON)",
        spans,
        records.len() - spans
    );
}

//! The `campaign` workload: the paper's fault-injection campaign with the
//! loop closed — 40 runs per fault type (320 runs), recovery on with eager
//! dispatch — as a closed loop with one client: one
//! `pod_eval::execute_run` after another, in `Campaign::plans()` order.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use pod_eval::{execute_run, Campaign, CampaignConfig, MetricSet, RunPlan, RunRecord, TimingStats};
use pod_obs::Snapshot;
use pod_orchestrator::FaultType;

use crate::cpu::{self, span, Layer};
use crate::registry::registry_counts;
use crate::table::Table;
use crate::{quantile, ratio, Outcome, Params};

const RUNS_PER_FAULT: usize = 40;
/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// The paper-band floor for recall, as `tests/full_reproduction.rs` uses
/// it for campaigns other than the pinned 160-run one.
const RECALL_FLOOR: f64 = 0.95;

fn campaign_plans(seed: u64) -> Vec<RunPlan> {
    Campaign::new(CampaignConfig {
        runs_per_fault: RUNS_PER_FAULT,
        seed,
        recovery: true,
        eager_recovery: true,
        ..CampaignConfig::default()
    })
    .plans()
}

/// Log lines the run's engine ingested.
fn lines(r: &RunRecord) -> u64 {
    r.obs.counter("pipeline.pushed")
}

/// A canonical rendering of what one run decided: its classified outcome
/// and every recovery transcript. Same seed ⇒ same text.
fn signature(r: &RunRecord) -> String {
    let mut s = format!("{:?}|{:?}\n", r.plan.fault, r.outcome);
    for rec in &r.recoveries {
        let _ = writeln!(s, "{}|fit={}", rec.run.digest(), rec.conformance.fit);
    }
    s
}

/// Missed, misdiagnosed, or a repair escalated: the campaign's quality
/// failure (reported, not gated).
fn quality_failed(r: &RunRecord) -> bool {
    !r.outcome.fault_detected
        || !r.outcome.fault_diagnosed_correctly
        || r.recoveries
            .iter()
            .any(|rec| !rec.run.outcome.is_recovered())
}

/// One closed-loop pass; returns the records and per-run CPU nanoseconds.
fn pass(plans: &[RunPlan]) -> (Vec<RunRecord>, Vec<u64>) {
    plans
        .iter()
        .map(|plan| {
            let c0 = cpu::cpu_ns();
            let record = black_box(execute_run(black_box(plan)));
            (record, cpu::cpu_ns() - c0)
        })
        .unzip()
}

/// Checks a pass against the reference pass, or makes it the reference.
fn check_pass(out: &mut Outcome, reference: &mut Option<Vec<String>>, records: &[RunRecord]) {
    let sigs: Vec<String> = records.iter().map(signature).collect();
    match reference {
        None => *reference = Some(sigs),
        Some(first) => out.check(*first == sigs, || {
            "two same-seed passes decided differently".into()
        }),
    }
}

pub fn run(p: &Params) -> Outcome {
    if p.trace {
        traced_run(p)
    } else {
        timed_run(p)
    }
}

fn timed_run(p: &Params) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: plan generation plus cold runs of the first five plans of
    // each fault type (every fifth plan uses the 20-instance cluster).
    let mut setups = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let plans = campaign_plans(p.seed);
        for f in 0..FaultType::all().len() {
            for plan in &plans[f * RUNS_PER_FAULT..f * RUNS_PER_FAULT + 5] {
                black_box(execute_run(plan));
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut reference = None;
    let mut first: Option<Vec<RunRecord>> = None;
    let mut run_ms = Vec::new();
    let mut us_per_line = Vec::new();
    let start = Instant::now();
    while first.is_none() || start.elapsed().as_secs_f64() < p.seconds {
        let plans = campaign_plans(p.seed);
        let (records, ns) = pass(&plans);
        check_pass(&mut out, &mut reference, &records);
        let pass_lines: u64 = records.iter().map(lines).sum();
        us_per_line.push(ns.iter().sum::<u64>() as f64 / 1e3 / pass_lines as f64);
        run_ms.extend(ns.iter().map(|&n| n as f64 / 1e6));
        first.get_or_insert(records);
    }
    let records = first.expect("at least one pass");

    let mut set = MetricSet::default();
    let mut diagnosis = Vec::new();
    let mut mttr = Vec::new();
    for r in &records {
        set.add(&r.outcome);
        // Figure 6: one diagnosis time per run, the first.
        diagnosis.extend(r.outcome.diagnosis_times.first().copied());
        for rec in &r.recoveries {
            if rec.run.outcome.is_recovered() {
                mttr.extend(rec.run.mttr());
            }
        }
        if !r.outcome.fault_detected {
            eprintln!(
                "campaign: missed {:?} (transient={}, injected at {:?})",
                r.plan.fault,
                r.plan.transient_after.is_some(),
                r.truth.injected_at
            );
        }
    }
    let diagnosis = TimingStats::new(diagnosis);
    let mttr = TimingStats::new(mttr);
    out.attempted = records.len() as u64;
    out.failed = 0;
    out.check(records.len() == RUNS_PER_FAULT * 8, || {
        format!("{} runs", records.len())
    });
    out.check(set.detection_recall() >= RECALL_FLOOR, || {
        format!(
            "recall {} below the paper band {RECALL_FLOOR}",
            set.detection_recall()
        )
    });
    out.check(!mttr.is_empty() && !diagnosis.is_empty(), || {
        "no MTTR or diagnosis samples".into()
    });
    eprintln!(
        "campaign: {} runs, {} passes, {} diagnoses (Fig. 6), {} MTTR samples, recall {}, {} quality failures",
        records.len(),
        us_per_line.len(),
        diagnosis.len(),
        mttr.len(),
        set.detection_recall(),
        records.iter().filter(|r| quality_failed(r)).count()
    );

    out.metric("cpu_us_per_line", quantile(&us_per_line, 0.5));
    out.metric("run_cpu_ms_p50", quantile(&run_ms, 0.5));
    out.metric("run_cpu_ms_p90", quantile(&run_ms, 0.9));
    out.metric("mttr_p50_s", mttr.percentile(0.5).as_secs_f64());
    out.metric("mttr_p90_s", mttr.percentile(0.9).as_secs_f64());
    out.metric("diagnosis_s_p50", diagnosis.percentile(0.5).as_secs_f64());
    out.metric("diagnosis_s_p90", diagnosis.percentile(0.9).as_secs_f64());
    out.metric("detection_precision", set.detection_precision());
    out.metric("detection_recall", set.detection_recall());
    out.metric("diagnosis_accuracy", set.diagnosis_accuracy_over_detected());
    out.metric("peak_rss_mb", cpu::peak_rss_mb());
    out.metric("setup_s", quantile(&setups, 0.5));
    out
}

fn traced_run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = None;
    let mut counted = None;
    let mut table = Table::default();
    let start = Instant::now();
    while table.calls == 0 || start.elapsed().as_secs_f64() < p.seconds {
        // Each run untraced, then traced, so both sides see the same
        // machine conditions.
        let plans = campaign_plans(p.seed);
        let mut records = Vec::with_capacity(plans.len());
        let mut traced = Vec::with_capacity(plans.len());
        for plan in &plans {
            let c0 = cpu::cpu_ns();
            records.push(black_box(execute_run(black_box(plan))));
            table.untraced_ns += cpu::cpu_ns() - c0;
            let (record, totals, ns) =
                cpu::traced(|| span(Layer::CampaignRun, || execute_run(plan)));
            table.add_call(&mut out, &totals, ns, lines(&record));
            traced.push(record);
        }
        check_pass(&mut out, &mut reference, &records);
        check_pass(&mut out, &mut reference, &traced);

        let mut all = Snapshot::default();
        for r in &records {
            all.merge(&r.obs);
        }
        let ops = records.len() as f64;
        let recoveries: Vec<_> = records.iter().flat_map(|r| &r.recoveries).collect();
        let mut m = registry_counts(&all, ops);
        m.insert(
            "recovery.escalated_share",
            ratio(
                recoveries
                    .iter()
                    .filter(|r| !r.run.outcome.is_recovered())
                    .count() as f64,
                recoveries.len() as f64,
            ),
        );
        m.insert("obs.kept_share", 1.0);
        m.insert(
            "obs.spans_dropped",
            records.iter().map(|r| r.spans_dropped).sum::<u64>() as f64,
        );
        m.insert(
            "obs.events_dropped",
            records.iter().map(|r| r.events_dropped).sum::<u64>() as f64,
        );
        m.insert(
            "quality.failed_share",
            records.iter().filter(|r| quality_failed(r)).count() as f64 / ops,
        );
        match &counted {
            None => counted = Some(m),
            Some(c) => out.check(*c == m, || {
                "per-layer counts differ between same-seed passes".into()
            }),
        }
        out.attempted = records.len() as u64;
    }
    let counted = counted.expect("at least one pass");

    table.report(&mut out);
    let run = Layer::CampaignRun as usize;
    out.metric(
        "alloc.campaign_run_per_run",
        table.layers.allocs[run] as f64 / table.calls as f64,
    );
    out.metric(
        "alloc.campaign_run_bytes_per_run",
        table.layers.bytes[run] as f64 / table.calls as f64,
    );
    // No gateway, no wire parse, and no public seam inside `execute_run`.
    for name in [
        "gateway.self_us_per_line",
        "gateway.lines_per_batch",
        "gateway.queue_wait_p50_ms",
        "gateway.queue_wait_p99_ms",
        "gateway.blocked",
        "gateway.shed",
        "log.parse_us_per_line",
        "log.unclassified_share",
        "core.self_us_per_line",
        "core.finish_us_per_op",
        "core.build_ms_per_op",
        "recovery.self_us_per_repair",
    ] {
        out.metric(name, 0.0);
    }
    for (name, value) in &counted {
        out.metric(name, *value);
    }
    table.print(p, 0);
    out
}

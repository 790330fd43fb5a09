//! The two gateway soaks: `storm-soak` (every tenant faulty, recovery on)
//! and `healthy-soak` (one tenant in eight faulty, sampled telemetry, no
//! recovery).
//!
//! Inputs come from `pod_eval::collect_streams`, untimed. The timed call
//! is `pod_eval::replay_with_recovery` (storm) or
//! `pod_eval::replay_telemetry(.., Sampled)` (healthy). Recovery mutates the
//! tenants' simulated clouds, so every call gets freshly generated streams;
//! the same seed must give a byte-identical `SoakReport::digest()` every
//! time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use pod_core::{PodEngine, RunSummary};
use pod_eval::{
    build_engine, classify_run, collect_streams, replay_telemetry, replay_with_recovery,
    GroundTruth, MetricSet, SoakConfig, SoakReport, SoakStreams, TimingStats,
};
use pod_gateway::{DiagnosisSink, Gateway, GatewayConfig, OpReport};
use pod_log::LogEvent;
use pod_obs::{Snapshot, TelemetryMode};
use pod_recovery::{RecoveryConfig, RecoveryStorm, StormConfig, StormStats};
use pod_sim::{SimDuration, SimTime};

use crate::cpu::{self, span, Layer};
use crate::registry::registry_counts;
use crate::table::Table;
use crate::{quantile, ratio, Outcome, Params};

/// Tenants per soak: the largest power of two under the gateway's
/// admission ceiling (8 shards × 32 operations; FNV routing overfills a
/// shard from about 192 tenants on).
const TENANTS: usize = 128;
/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Timed calls per run, at least, however short `--seconds` is.
const MIN_TIMED: usize = 5;
/// Traced pairs (untraced + traced call) per run, at least.
const MIN_TRACED: usize = 2;

/// Soaks, each from its own seed derived from `--seed`, whose detections
/// and repairs the exact metrics pool. The healthy soak has one faulty
/// tenant in eight, so it pools more soaks for a comparable sample.
fn exact_soaks(storm: bool) -> usize {
    if storm {
        2
    } else {
        12
    }
}

/// The `k`-th soak seed of a run; the first is `--seed` itself.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn soak_config(storm: bool, seed: u64) -> SoakConfig {
    SoakConfig {
        ops: TENANTS,
        seed,
        noise_rate: 0.05,
        interference_every: 4,
        fault_every: if storm { 1 } else { 8 },
    }
}

fn mode(storm: bool) -> TelemetryMode {
    // `replay_with_recovery` always runs under full telemetry.
    if storm {
        TelemetryMode::Full
    } else {
        TelemetryMode::Sampled
    }
}

/// The timed public call.
fn timed_call(storm: bool, streams: &SoakStreams) -> SoakReport {
    if storm {
        replay_with_recovery(streams, &GatewayConfig::default(), StormConfig::default())
    } else {
        replay_telemetry(streams, &GatewayConfig::default(), TelemetryMode::Sampled)
    }
}

/// Every tenant registry's snapshot, in stream order.
fn tenant_snapshots(streams: &SoakStreams) -> Vec<(Snapshot, u64, u64)> {
    streams
        .ops
        .iter()
        .map(|op| {
            let obs = op.scenario.cloud.obs();
            (
                obs.snapshot(),
                obs.tracer().dropped(),
                obs.events().dropped(),
            )
        })
        .collect()
}

/// The output checks on one timed call. Returns the number of failed
/// tenants: lines lost or leaked, or an incident neither recovered nor
/// escalated.
fn check_report(out: &mut Outcome, storm: bool, streams: &SoakStreams, r: &SoakReport) -> u64 {
    let s = &r.stats;
    out.check(r.leaks.is_empty(), || {
        format!("cross-tenant leaks: {:?}", r.leaks)
    });
    out.check(
        s.lines_submitted == s.lines_processed + s.total_shed(),
        || {
            format!(
                "submitted {} != processed {} + shed {}",
                s.lines_submitted,
                s.lines_processed,
                s.total_shed()
            )
        },
    );
    out.check(s.lines_submitted == streams.lines_total, || {
        format!(
            "submitted {} of {} lines",
            s.lines_submitted, streams.lines_total
        )
    });
    out.check(s.admission_denied == 0, || {
        format!("{} tenants refused admission", s.admission_denied)
    });
    if storm {
        out.check(r.kept_traces == r.ops.len(), || {
            format!(
                "full telemetry kept {} of {} traces",
                r.kept_traces,
                r.ops.len()
            )
        });
    } else {
        out.check(r.kept_traces + r.discarded_traces == r.ops.len(), || {
            format!(
                "sampler kept {} + discarded {} != {} ops",
                r.kept_traces,
                r.discarded_traces,
                r.ops.len()
            )
        });
    }
    match (&r.recovery, storm) {
        (Some(rec), true) => {
            out.check(rec.none_dropped(), || "storm dropped an incident".into());
            out.check(rec.recovered + rec.escalated == rec.attempted, || {
                format!(
                    "recovered {} + escalated {} != attempted {}",
                    rec.recovered, rec.escalated, rec.attempted
                )
            });
        }
        (None, false) => {}
        _ => out.check(false, || "recovery stage presence mismatch".into()),
    }
    let mut failed = 0;
    for (i, op) in r.ops.iter().enumerate() {
        let lost = op.lines_delivered != op.lines_submitted;
        let leaked = r.leaks.iter().any(|l| l.starts_with(&op.trace_id));
        let dropped = r.recovery.as_ref().is_some_and(|rec| {
            rec.tenants[i].recovered + rec.tenants[i].escalated != rec.tenants[i].attempted
        });
        failed += (lost || leaked || dropped) as u64;
    }
    failed
}

/// Tenants whose injected fault the quality metrics score: faulty tenants
/// without shared-account interference (the soak does not expose its
/// interference schedule, which the classifier needs to credit
/// interference detections).
fn scored(config: &SoakConfig, i: usize, streams: &SoakStreams) -> bool {
    let interfered =
        config.interference_every > 0 && (i + 1).is_multiple_of(config.interference_every);
    streams.ops[i].fault.is_some() && streams.ops[i].injected_at.is_some() && !interfered
}

/// Table I quality and diagnosis times of one replay.
fn quality(
    config: &SoakConfig,
    streams: &SoakStreams,
    reports: &[OpReport],
) -> (MetricSet, Vec<f64>) {
    let mut set = MetricSet::default();
    let mut diagnosis_s = Vec::new();
    for (i, (stream, report)) in streams.ops.iter().zip(reports).enumerate() {
        for d in &report.summary.detections {
            if let Some(diag) = &d.diagnosis {
                diagnosis_s.push(diag.duration.as_secs_f64());
            }
        }
        if scored(config, i, streams) {
            let truth = GroundTruth {
                fault: stream.fault.expect("scored tenants are faulty"),
                injected_at: stream
                    .injected_at
                    .expect("scored tenants carry their fault"),
                reverted_at: None,
                interferences: Vec::new(),
            };
            set.add(&classify_run(&truth, &report.summary.detections));
        }
    }
    (set, diagnosis_s)
}

/// A `pod_core` engine whose gateway-facing calls are timed spans.
#[derive(Debug)]
struct TimedSink(PodEngine);

impl DiagnosisSink for TimedSink {
    fn ingest_batch(&mut self, events: Vec<LogEvent>) {
        span(Layer::CoreIngest, || self.0.ingest_batch(events));
    }

    fn finish(&mut self) -> RunSummary {
        span(Layer::CoreFinish, || self.0.finish())
    }

    fn detections(&self) -> usize {
        self.0.detections().len()
    }
}

/// One repair of the recovery storm, as the transcript records it.
struct Repair {
    detection_index: usize,
    path: &'static str,
    digest: String,
    mttr: Option<SimDuration>,
}

/// What the benchmark's own replay produced.
struct OwnReplay {
    reports: Vec<OpReport>,
    stats_json: String,
    /// Per tenant, every repair the storm ran.
    repairs: Vec<Vec<Repair>>,
    storm_stats: Option<StormStats>,
}

impl OwnReplay {
    /// The same canonical text as `SoakReport::digest`.
    fn digest(&self, streams: &SoakStreams) -> String {
        let mut out = String::new();
        for (stream, report) in streams.ops.iter().zip(&self.reports) {
            let _ = write!(
                out,
                "== {} fault={:?} shard={} delivered={} ==\n{}\n",
                stream.scenario.trace_id,
                stream.fault,
                report.shard,
                report.lines,
                report.summary.digest()
            );
        }
        out.push_str(&self.stats_json);
        out.push('\n');
        if let Some(s) = self.storm_stats {
            let _ = writeln!(
                out,
                "== recovery storm: requests={} admitted={} throttled={} deferred={} swept={} \
                 peak_concurrent={} ==",
                s.requests, s.admitted, s.throttled, s.deferred, s.swept, s.peak_concurrent
            );
            for (stream, records) in streams.ops.iter().zip(&self.repairs) {
                let _ = writeln!(
                    out,
                    "== {} fault={:?} ==",
                    stream.scenario.trace_id, stream.fault
                );
                for r in records {
                    let _ = writeln!(
                        out,
                        "-- incident {} path={} --\n{}",
                        r.detection_index, r.path, r.digest
                    );
                }
            }
        }
        out
    }

    fn repair_count(&self) -> usize {
        self.repairs.iter().map(Vec::len).sum()
    }
}

/// The replay rebuilt from public calls, every layer seam a [`span`]: the
/// same gateway, engines and recovery storm as `pod_eval`'s replay, so the
/// per-op digests and recovery transcript must match the timed call's.
fn own_replay(streams: &SoakStreams, storm: bool) -> OwnReplay {
    let mode = mode(storm);
    let mut gw = Gateway::new(GatewayConfig::default());
    gw.obs().set_mode(mode);
    let storm = storm.then(|| {
        Rc::new(RefCell::new(RecoveryStorm::new(
            gw.obs(),
            gw.clock().clone(),
            StormConfig::default(),
        )))
    });
    let mut op_ids = Vec::with_capacity(streams.ops.len());
    let mut tenants = Vec::with_capacity(streams.ops.len());
    for stream in &streams.ops {
        let sc = &stream.scenario;
        sc.cloud.obs().set_mode(mode);
        sc.cloud.obs().begin_run(&sc.trace_id);
        let op = span(Layer::CoreBuild, || {
            let mut engine = build_engine(sc, &stream.scenario_config);
            if let Some(storm) = &storm {
                let tenant = storm.borrow_mut().register_tenant(
                    sc.cloud.clone(),
                    sc.storage.clone(),
                    sc.env.clone(),
                    sc.trace_id.clone(),
                    RecoveryConfig::default(),
                );
                tenants.push(tenant);
                let hook = Rc::clone(storm);
                engine.set_detection_hook(move |notice| {
                    span(Layer::Recovery, || {
                        hook.borrow_mut().on_notice(tenant, notice)
                    })
                });
            }
            let process_id = engine.process_id().to_string();
            gw.register(process_id, sc.trace_id.clone(), Box::new(TimedSink(engine)))
                .expect("per-shard admission limit accommodates the soak")
        });
        op_ids.push(op);
    }
    if let Some(storm) = &storm {
        let hook = Rc::clone(storm);
        gw.set_incident_hook(move |_op, now, _new| {
            span(Layer::Recovery, || hook.borrow_mut().observe(now))
        });
    }
    let mut merged: Vec<(SimTime, usize, usize)> = Vec::with_capacity(streams.lines_total as usize);
    for (i, stream) in streams.ops.iter().enumerate() {
        for (seq, (at, _)) in stream.lines.iter().enumerate() {
            merged.push((*at, i, seq));
        }
    }
    merged.sort_unstable();
    for (at, i, seq) in merged {
        let raw = &streams.ops[i].lines[seq].1;
        span(Layer::Gateway, || gw.submit(op_ids[i], at, raw));
    }
    let reports = span(Layer::Gateway, || gw.finish());
    let stats_json = gw.stats().to_json().to_string();
    let repairs = match &storm {
        Some(storm) => reports
            .iter()
            .zip(&tenants)
            .map(|(report, &tenant)| {
                let records = span(Layer::Recovery, || {
                    storm.borrow_mut().sweep(tenant, &report.summary.detections)
                });
                records
                    .iter()
                    .map(|r| Repair {
                        detection_index: r.detection_index,
                        path: r.path.tag(),
                        digest: r.run.digest(),
                        mttr: r.run.mttr(),
                    })
                    .collect()
            })
            .collect(),
        None => Vec::new(),
    };
    OwnReplay {
        reports,
        stats_json,
        repairs,
        storm_stats: storm.map(|s| s.borrow().stats()),
    }
}

pub fn run(p: &Params, storm: bool) -> Outcome {
    if p.trace {
        traced_run(p, storm)
    } else {
        timed_run(p, storm)
    }
}

fn timed_run(p: &Params, storm: bool) -> Outcome {
    let mut out = Outcome::default();
    let config = soak_config(storm, p.seed);

    // Set-up: input generation plus the first call on those inputs.
    let mut setups = Vec::new();
    let mut reference: Option<SoakReport> = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let streams = collect_streams(&config);
        let report = timed_call(storm, &streams);
        setups.push(t.elapsed().as_secs_f64());
        out.failed = check_report(&mut out, storm, &streams, &report);
        out.attempted = report.ops.len() as u64;
        match &reference {
            None => reference = Some(report),
            Some(first) => out.check(first.digest() == report.digest(), || {
                "two same-seed replays gave different digests".into()
            }),
        }
    }
    let reference = reference.expect("at least one set-up round");
    let reference_digest = reference.digest();

    // Exact passes (untimed): the benchmark's own replay over fresh inputs of
    // `exact_soaks` seeds derived from `--seed` gives the detections the
    // quality and diagnosis metrics score, and the repairs MTTR samples.
    let mut set = MetricSet::default();
    let mut diagnosis_s = Vec::new();
    let mut mttr = Vec::new();
    for k in 0..exact_soaks(storm) {
        let config = soak_config(storm, sub_seed(p.seed, k));
        let streams = collect_streams(&config);
        let driven = own_replay(&streams, storm);
        if k == 0 {
            out.check(driven.digest(&streams) == reference_digest, || {
                "own replay's digest differs from the timed call's".into()
            });
        }
        let (s, d) = quality(&config, &streams, &driven.reports);
        set.merge(&s);
        diagnosis_s.extend(d);
        if storm {
            mttr.extend(driven.repairs.iter().flatten().filter_map(|r| r.mttr));
        } else {
            // The healthy fleet's incidents repaired by the same recovery
            // stage, on fresh inputs of the same seed.
            let streams = collect_streams(&config);
            let r =
                replay_with_recovery(&streams, &GatewayConfig::default(), StormConfig::default());
            let rec = r.recovery.expect("recovery report");
            out.check(rec.none_dropped(), || {
                "healthy-fleet recovery dropped an incident".into()
            });
            mttr.extend_from_slice(rec.mttr.samples());
        }
    }
    let mttr = TimingStats::new(mttr);
    out.check(!mttr.is_empty(), || "no MTTR samples".into());
    out.check(!diagnosis_s.is_empty(), || "no diagnoses".into());
    out.check(set.runs > 0 && set.detection_recall() >= 0.95, || {
        format!(
            "soak recall {} below the paper band 0.95",
            set.detection_recall()
        )
    });

    // Timed loop: fresh inputs (untimed), then the timed call.
    let mut cpu_ms = Vec::new();
    let mut us_per_line = Vec::new();
    let start = Instant::now();
    while cpu_ms.len() < MIN_TIMED || start.elapsed().as_secs_f64() < p.seconds {
        let streams = collect_streams(&config);
        let c0 = cpu::cpu_ns();
        let report = black_box(timed_call(storm, black_box(&streams)));
        let ns = cpu::cpu_ns() - c0;
        check_report(&mut out, storm, &streams, &report);
        out.check(report.digest() == reference_digest, || {
            "a timed replay's digest differs from the reference".into()
        });
        cpu_ms.push(ns as f64 / 1e6);
        us_per_line.push(ns as f64 / 1e3 / streams.lines_total as f64);
    }
    eprintln!(
        "{}: {} tenants, {} lines, {} timed calls (CPU ms min {:.1} p50 {:.1} max {:.1}), {} diagnoses, \
         {} MTTR samples, {} scored tenants",
        p.workload,
        reference.ops.len(),
        reference.lines_total,
        cpu_ms.len(),
        quantile(&cpu_ms, 0.0),
        quantile(&cpu_ms, 0.5),
        quantile(&cpu_ms, 1.0),
        diagnosis_s.len(),
        mttr.len(),
        set.runs
    );

    out.metric("cpu_us_per_line", quantile(&us_per_line, 0.5));
    out.metric("run_cpu_ms_p50", quantile(&cpu_ms, 0.5));
    out.metric("run_cpu_ms_p90", quantile(&cpu_ms, 0.9));
    out.metric("mttr_p50_s", mttr.percentile(0.5).as_secs_f64());
    out.metric("mttr_p90_s", mttr.percentile(0.9).as_secs_f64());
    out.metric("diagnosis_s_p50", quantile(&diagnosis_s, 0.5));
    out.metric("diagnosis_s_p90", quantile(&diagnosis_s, 0.9));
    out.metric("detection_precision", set.detection_precision());
    out.metric("detection_recall", set.detection_recall());
    out.metric("diagnosis_accuracy", set.diagnosis_accuracy_over_detected());
    out.metric("peak_rss_mb", cpu::peak_rss_mb());
    out.metric("setup_s", quantile(&setups, 0.5));
    out
}

/// Deterministic per-layer counts of one timed call, read from the
/// gateway's and every tenant's `pod-obs` registry.
fn counts(r: &SoakReport, tenants: &Snapshot, dropped: (u64, u64)) -> BTreeMap<&'static str, f64> {
    let mut all = r.snapshot.clone();
    all.merge(tenants);
    let ops = r.ops.len() as f64;
    let (escalated_share, failed_tenants) = match &r.recovery {
        Some(rec) => (
            ratio(rec.escalated as f64, rec.attempted as f64),
            rec.tenants.iter().filter(|t| t.escalated > 0).count() as f64,
        ),
        None => (0.0, 0.0),
    };
    let mut m = registry_counts(&all, ops);
    let s = &r.stats;
    let wait = |q| {
        r.snapshot
            .histogram("gateway.queue_wait_us")
            .and_then(|h| h.quantile(q))
            .unwrap_or(0) as f64
            / 1e3
    };
    m.insert(
        "gateway.lines_per_batch",
        ratio(s.lines_processed as f64, s.batches as f64),
    );
    m.insert("gateway.queue_wait_p50_ms", wait(0.5));
    m.insert("gateway.queue_wait_p99_ms", wait(0.99));
    m.insert("gateway.blocked", s.blocked as f64);
    m.insert("gateway.shed", s.total_shed() as f64);
    m.insert(
        "log.unclassified_share",
        ratio(s.unclassified as f64, s.lines_submitted as f64),
    );
    m.insert("recovery.escalated_share", escalated_share);
    m.insert("obs.kept_share", r.kept_traces as f64 / ops);
    m.insert("obs.spans_dropped", dropped.0 as f64);
    m.insert("obs.events_dropped", dropped.1 as f64);
    m.insert("quality.failed_share", failed_tenants / ops);
    m
}

fn traced_run(p: &Params, storm: bool) -> Outcome {
    let mut out = Outcome::default();
    let config = soak_config(storm, p.seed);
    let mut reference: Option<(String, BTreeMap<&'static str, f64>)> = None;
    let mut table = Table::default();
    let (mut parse_ns, mut ops, mut repairs) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while table.calls < MIN_TRACED || start.elapsed().as_secs_f64() < p.seconds {
        // Untraced: the timed public call, plus its registry counts.
        let streams = collect_streams(&config);
        let before = tenant_snapshots(&streams);
        let c0 = cpu::cpu_ns();
        let report = black_box(timed_call(storm, black_box(&streams)));
        table.untraced_ns += cpu::cpu_ns() - c0;
        out.failed = check_report(&mut out, storm, &streams, &report);
        out.attempted = report.ops.len() as u64;
        let mut tenants = Snapshot::default();
        let mut dropped = (0, 0);
        for ((snap, spans, events), after) in before.iter().zip(tenant_snapshots(&streams)) {
            tenants.merge(&after.0.diff(snap));
            dropped.0 += after.1 - spans;
            dropped.1 += after.2 - events;
        }
        let counted = counts(&report, &tenants, dropped);
        let digest = report.digest();
        match &reference {
            None => reference = Some((digest.clone(), counted)),
            Some((d, c)) => {
                out.check(*d == digest, || {
                    "same-seed replays gave different digests".into()
                });
                out.check(*c == counted, || {
                    "per-layer counts differ between same-seed calls".into()
                });
            }
        }
        drop(report);
        drop(streams);

        // Traced: the benchmark's own replay, every layer seam a span.
        let streams = collect_streams(&config);
        let (driven, totals, ns) = cpu::traced(|| own_replay(&streams, storm));
        out.check(driven.digest(&streams) == digest, || {
            "traced replay's digest differs from the untraced call's".into()
        });
        table.add_call(&mut out, &totals, ns, streams.lines_total);
        repairs += driven.repair_count() as u64;
        drop(driven);

        // The edge parse, timed over the same wire lines.
        let c0 = cpu::cpu_ns();
        for op in &streams.ops {
            for (at, raw) in &op.lines {
                black_box(pod_log::parse_line(black_box(raw), *at));
            }
        }
        parse_ns += cpu::cpu_ns() - c0;
        ops += streams.ops.len() as u64;
    }
    let (_, counted) = reference.expect("at least one traced pair");

    let self_ns = |l: Layer| table.layers.self_ns[l as usize];
    let per_line = |ns: u64| ns as f64 / 1e3 / table.lines as f64;
    table.report(&mut out);
    out.metric("alloc.campaign_run_per_run", 0.0);
    out.metric("alloc.campaign_run_bytes_per_run", 0.0);
    out.metric(
        "gateway.self_us_per_line",
        per_line(self_ns(Layer::Gateway)),
    );
    out.metric("log.parse_us_per_line", per_line(parse_ns));
    out.metric(
        "core.self_us_per_line",
        per_line(self_ns(Layer::CoreIngest)),
    );
    out.metric(
        "core.finish_us_per_op",
        self_ns(Layer::CoreFinish) as f64 / 1e3 / ops as f64,
    );
    out.metric(
        "core.build_ms_per_op",
        self_ns(Layer::CoreBuild) as f64 / 1e6 / ops as f64,
    );
    out.metric(
        "recovery.self_us_per_repair",
        ratio(self_ns(Layer::Recovery) as f64 / 1e3, repairs as f64),
    );
    for (name, value) in &counted {
        out.metric(name, *value);
    }
    table.print(p, parse_ns);
    out
}

//! Allocation gate for the per-line ingest path. Allocation counts are
//! deterministic, so they are gated exactly: a counting global allocator
//! counts the allocations made on this test's own thread while a counted
//! section runs, and each bound is the measured count plus under 5 %
//! headroom. A change that adds copying to `PodEngine::ingest_batch` or to
//! token replay fails here before it shows up as CPU time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pod_diagnosis::core::{PodEngine, RunSummary};
use pod_diagnosis::eval::{build_engine, collect_streams, SoakConfig};
use pod_diagnosis::faulttree::steps;
use pod_diagnosis::gateway::{DiagnosisSink, Gateway, GatewayConfig};
use pod_diagnosis::log::LogEvent;
use pod_diagnosis::obs::TelemetryMode;
use pod_diagnosis::orchestrator::process_def::rolling_upgrade_model;
use pod_diagnosis::process::{Conformance, ConformanceChecker};

/// Allocations per wire line through `PodEngine::ingest_batch` for the
/// healthy tenant below: measured 79.52 (1,988 over 25 lines).
const INGEST_ALLOCS_PER_LINE_MAX: f64 = 83.0;

/// Allocations of one fit replay that needs no silent move: the fired
/// marking and the history entry.
const FIT_REPLAY_ALLOCS_MAX: u64 = 2;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

/// An engine whose `ingest_batch` calls are counted, everything else not.
#[derive(Debug)]
struct CountedSink {
    engine: PodEngine,
    allocs: std::rc::Rc<Cell<u64>>,
}

impl DiagnosisSink for CountedSink {
    fn ingest_batch(&mut self, events: Vec<LogEvent>) {
        let ((), n) = counted(|| self.engine.ingest_batch(events));
        self.allocs.set(self.allocs.get() + n);
    }

    fn finish(&mut self) -> RunSummary {
        self.engine.finish()
    }

    fn detections(&self) -> usize {
        self.engine.detections().len()
    }
}

#[test]
fn healthy_ingest_stays_under_its_allocation_bound() {
    // One healthy tenant with noise, replayed the way the healthy soak
    // does: default gateway, sampled telemetry.
    let streams = collect_streams(&SoakConfig {
        ops: 1,
        seed: 2014,
        noise_rate: 0.05,
        interference_every: 0,
        fault_every: 0,
    });
    let stream = &streams.ops[0];
    assert!(stream.fault.is_none() && stream.upgrade_completed);
    let mut gw = Gateway::new(GatewayConfig::default());
    gw.obs().set_mode(TelemetryMode::Sampled);
    let sc = &stream.scenario;
    sc.cloud.obs().set_mode(TelemetryMode::Sampled);
    sc.cloud.obs().begin_run(&sc.trace_id);
    let engine = build_engine(sc, &stream.scenario_config);
    let allocs = std::rc::Rc::new(Cell::new(0));
    let sink = CountedSink {
        engine,
        allocs: allocs.clone(),
    };
    let op = gw
        .register("rolling-upgrade", sc.trace_id.clone(), Box::new(sink))
        .expect("one tenant is admitted");
    for (at, raw) in &stream.lines {
        gw.submit(op, *at, raw);
    }
    let reports = gw.finish();
    assert_eq!(
        reports[0].lines, streams.lines_total,
        "every line delivered"
    );
    assert!(reports[0].summary.detections.is_empty(), "healthy run");

    let per_line = allocs.get() as f64 / streams.lines_total as f64;
    println!(
        "ingest: {} allocations over {} lines = {per_line:.2}/line",
        allocs.get(),
        streams.lines_total
    );
    assert!(
        per_line <= INGEST_ALLOCS_PER_LINE_MAX,
        "ingest_batch allocates {per_line:.2} times per line, bound {INGEST_ALLOCS_PER_LINE_MAX}"
    );
}

#[test]
fn fit_replay_allocates_only_its_result() {
    let mut checker = ConformanceChecker::new(&rolling_upgrade_model());
    // The first replay creates the trace's state; the second is steady
    // state and needs no silent move.
    assert_eq!(checker.replay("run", steps::START), Conformance::Fit);
    let (verdict, n) = counted(|| checker.replay("run", steps::UPDATE_LC));
    assert_eq!(verdict, Conformance::Fit);
    println!("fit replay: {n} allocations");
    assert!(
        n <= FIT_REPLAY_ALLOCS_MAX,
        "a fit replay allocates {n} times, bound {FIT_REPLAY_ALLOCS_MAX}"
    );
}

//! Measurement primitives: the thread CPU clock, a counting global
//! allocator, and a span ledger that charges CPU time and allocations to
//! the innermost open layer (self time, children subtracted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU nanoseconds this thread has consumed. All load runs on the main
/// thread, so this is the program's CPU time.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The layers traced calls attribute CPU time and allocations to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code: feed merge, loops, timer overhead.
    Unattributed = 0,
    /// `Gateway::submit` + `Gateway::finish`, edge parse included.
    Gateway,
    /// `PodEngine::ingest_batch`, detection hook excluded.
    CoreIngest,
    /// `PodEngine::finish`.
    CoreFinish,
    /// `build_engine` + `Gateway::register`.
    CoreBuild,
    /// `RecoveryStorm::{on_notice, observe, sweep}`.
    Recovery,
    /// One whole `pod_eval::execute_run` (campaign).
    CampaignRun,
}

pub const LAYERS: [Layer; 7] = [
    Layer::Unattributed,
    Layer::Gateway,
    Layer::CoreIngest,
    Layer::CoreFinish,
    Layer::CoreBuild,
    Layer::Recovery,
    Layer::CampaignRun,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unattributed => "unattributed",
            Layer::Gateway => "gateway",
            Layer::CoreIngest => "core_ingest",
            Layer::CoreFinish => "core_finish",
            Layer::CoreBuild => "core_build",
            Layer::Recovery => "recovery",
            Layer::CampaignRun => "campaign_run",
        }
    }
}

const N: usize = LAYERS.len();

/// Counts every allocation while enabled, charged to the current layer.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
static BYTES: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];

#[inline]
fn count(size: usize) {
    if COUNTING.load(Relaxed) {
        let layer = CURRENT.load(Relaxed);
        ALLOCS[layer].fetch_add(1, Relaxed);
        BYTES[layer].fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Per-layer totals of one or more traced passes.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub self_ns: [u64; N],
    pub allocs: [u64; N],
    pub bytes: [u64; N],
}

impl LayerTotals {
    pub fn add(&mut self, other: &LayerTotals) {
        for i in 0..N {
            self.self_ns[i] += other.self_ns[i];
            self.allocs[i] += other.allocs[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

struct Ledger {
    stack: Vec<Layer>,
    last: u64,
    self_ns: [u64; N],
}

thread_local! {
    static LEDGER: RefCell<Option<Ledger>> = const { RefCell::new(None) };
}

fn switch(f: impl FnOnce(&mut Vec<Layer>)) {
    LEDGER.with(|l| {
        if let Some(ledger) = l.borrow_mut().as_mut() {
            let now = cpu_ns();
            let top = *ledger.stack.last().expect("ledger stack never empties");
            ledger.self_ns[top as usize] += now - ledger.last;
            f(&mut ledger.stack);
            CURRENT.store(*ledger.stack.last().unwrap() as usize, Relaxed);
            // The switch itself is timer overhead: unattributed.
            ledger.last = cpu_ns();
            ledger.self_ns[Layer::Unattributed as usize] += ledger.last - now;
        }
    });
}

/// Runs `f` inside a `layer` span. Outside [`traced`] this is a plain call.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    switch(|stack| stack.push(layer));
    let out = f();
    switch(|stack| {
        stack.pop();
    });
    out
}

/// Runs `f` with the ledger and the counting allocator on; everything not
/// inside a [`span`] is charged to [`Layer::Unattributed`]. Returns `f`'s
/// result, the per-layer totals and the CPU nanoseconds of the whole call
/// as measured independently of the ledger.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, LayerTotals, u64) {
    for i in 0..N {
        ALLOCS[i].store(0, Relaxed);
        BYTES[i].store(0, Relaxed);
    }
    CURRENT.store(0, Relaxed);
    let start = cpu_ns();
    LEDGER.with(|l| {
        *l.borrow_mut() = Some(Ledger {
            stack: vec![Layer::Unattributed],
            last: cpu_ns(),
            self_ns: [0; N],
        })
    });
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let ledger = LEDGER
        .with(|l| l.borrow_mut().take())
        .expect("ledger installed");
    let end = cpu_ns();
    let mut totals = LayerTotals {
        self_ns: ledger.self_ns,
        ..LayerTotals::default()
    };
    totals.self_ns[0] += end - ledger.last;
    for i in 0..N {
        totals.allocs[i] = ALLOCS[i].load(Relaxed);
        totals.bytes[i] = BYTES[i].load(Relaxed);
    }
    (out, totals, end - start)
}

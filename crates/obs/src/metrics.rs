//! The metrics registry: counters, gauges, fixed-bucket and log-scale
//! histograms, and point-in-time snapshots with diff/merge support.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist2::{Exemplar, LogHistogram, EXEMPLAR_CAP};

/// Default histogram bounds for virtual-time latencies, in microseconds:
/// roughly exponential from 100 µs to 60 s. The paper's interesting
/// latencies (≈10 ms conformance calls, 70–90 ms API calls, 1.29–10.44 s
/// diagnoses) all land in distinct buckets.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// A monotonically increasing counter. Cloning shares the underlying cell,
/// so handles can be cached on hot paths and bumped lock-free.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, open spans, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of the first `bounds.len()` buckets; one
    /// implicit overflow bucket follows.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations (microseconds, depths,
/// attempt counts...). Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let h = &self.0;
        let idx = h.bounds.partition_point(|&b| b < value);
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.min.fetch_min(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        HistogramSnapshot {
            bounds: h.bounds.clone(),
            buckets: h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            min: h.min.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the leading buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the last
    /// is the overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the buckets.
    ///
    /// **Semantics:** the estimate is the *inclusive upper bound* of the
    /// bucket containing the target rank, clamped to the observed
    /// `[min, max]` — so it is monotone in `q`, never under-reports, and is
    /// always bounded by real observations. `q = 0` returns the exact
    /// `min`, `q = 1` the exact `max`.
    ///
    /// **Error bound:** the estimate exceeds the true quantile by at most
    /// one bucket's width. For the log-scale layout used by
    /// [`LogHistogram`](crate::LogHistogram) (8 sub-buckets per octave)
    /// that is a relative error ≤ 1/8 = 12.5%; for fixed bounds such as
    /// [`LATENCY_BOUNDS_US`] it is the gap to the next configured bound
    /// (values past the last bound fall in the overflow bucket, where the
    /// estimate is the observed `max`). Returns `None` when the histogram
    /// is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        let mut estimate = self.max;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                estimate = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                break;
            }
        }
        Some(estimate.clamp(self.min, self.max))
    }

    /// The counts-since `earlier`: buckets, count and sum subtract
    /// (saturating); min/max are kept from `self` since decomposing
    /// extremes is not possible.
    fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }

    /// Merges another snapshot into this one (campaign aggregation across
    /// runs).
    ///
    /// Identical bounds merge bucket-by-bucket. Mismatched bounds **widen**:
    /// both sides are re-bucketed onto the union of the two bounds vectors,
    /// which is lossless at bucket granularity (every source bucket's upper
    /// bound appears in the union, so no count ever moves to a different
    /// bound than it was recorded under). Release builds therefore can no
    /// longer silently add buckets of incompatible layouts positionally.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.bounds != other.bounds {
            let mut union = Vec::with_capacity(self.bounds.len().max(other.bounds.len()));
            union.extend_from_slice(&self.bounds);
            union.extend_from_slice(&other.bounds);
            union.sort_unstable();
            union.dedup();
            *self = self.rebucket(&union);
            let other = other.rebucket(&union);
            debug_assert_eq!(self.bounds, other.bounds);
            self.merge(&other);
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Re-expresses this snapshot over `bounds`, a superset of
    /// `self.bounds`: each bucket's count moves to the bucket whose upper
    /// bound equals its own; the overflow bucket stays overflow.
    fn rebucket(&self, bounds: &[u64]) -> HistogramSnapshot {
        let mut buckets = vec![0u64; bounds.len() + 1];
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let slot = match self.bounds.get(i) {
                Some(&bound) => bounds.partition_point(|&b| b < bound),
                None => bounds.len(), // overflow stays overflow
            };
            buckets[slot] += n;
        }
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            buckets,
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// Point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name (log-scale histograms export over their
    /// shared log-scale bounds).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Tail exemplars by histogram name, largest value first.
    pub exemplars: BTreeMap<String, Vec<Exemplar>>,
}

impl Snapshot {
    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Counters whose names start with `prefix`, in name order.
    ///
    /// The gateway uses this to roll per-shard counters
    /// (`gateway.shard.3.shed` …) into reports without enumerating shard
    /// ids by hand.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// Sum of all counters whose names start with `prefix`.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.counters_with_prefix(prefix)
            .iter()
            .map(|(_, v)| v)
            .sum()
    }

    /// The named histogram's tail exemplars (empty when absent).
    pub fn exemplars(&self, name: &str) -> &[Exemplar] {
        self.exemplars.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self.gauges.is_empty()
            && self.histograms.values().all(|h| h.count == 0)
            && self.exemplars.is_empty()
    }

    /// The change from `earlier` to `self`: counters and histogram
    /// tallies subtract (saturating); gauges keep their current value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| match earlier.histograms.get(k) {
                Some(e) => (k.clone(), h.diff(e)),
                None => (k.clone(), h.clone()),
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            exemplars: self.exemplars.clone(),
        }
    }

    /// Accumulates `other` into this snapshot (campaign aggregation):
    /// counters and histograms add (mismatched histogram bounds widen onto
    /// their union instead of being silently replaced); gauges keep the
    /// latest value; exemplar reservoirs combine and keep the largest
    /// values.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, tail) in &other.exemplars {
            let mine = self.exemplars.entry(k.clone()).or_default();
            mine.extend(tail.iter().cloned());
            mine.sort_by(|a, b| b.value.cmp(&a.value).then(a.at.cmp(&b.at)));
            mine.dedup();
            mine.truncate(EXEMPLAR_CAP);
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    log_histograms: BTreeMap<String, LogHistogram>,
}

/// The shared metrics registry. Cloning shares the same metric set;
/// handles returned from the accessors stay live after the registry is
/// dropped.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, created on first use with
    /// `bounds` (ascending inclusive upper bounds). Later callers get the
    /// existing histogram regardless of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// The log-scale histogram registered under `name`, created on first
    /// use. Snapshots export it as an ordinary [`HistogramSnapshot`] over
    /// the shared log-scale bounds, plus its tail exemplars under
    /// [`Snapshot::exemplars`]. On a name collision with a fixed-bucket
    /// histogram, the log-scale one wins in the snapshot.
    pub fn log_histogram(&self, name: &str) -> LogHistogram {
        let mut inner = self.inner.lock().unwrap();
        inner
            .log_histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let counters = inner
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = inner
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        let mut exemplars = BTreeMap::new();
        for (k, h) in &inner.log_histograms {
            histograms.insert(k.clone(), h.snapshot());
            let tail = h.exemplars();
            if !tail.is_empty() {
                exemplars.insert(k.clone(), tail);
            }
        }
        Snapshot {
            counters,
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms,
            exemplars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.incr();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5, "handles share the cell");
        let g = reg.gauge("depth");
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn prefix_queries_select_and_sum() {
        let reg = Registry::new();
        reg.counter("gateway.shard.0.shed").add(2);
        reg.counter("gateway.shard.1.shed").add(3);
        reg.counter("gateway.shed.oldest").add(7);
        reg.counter("other").incr();
        let snap = reg.snapshot();
        let shards = snap.counters_with_prefix("gateway.shard.");
        assert_eq!(
            shards,
            vec![("gateway.shard.0.shed", 2), ("gateway.shard.1.shed", 3)]
        );
        assert_eq!(snap.sum_counters("gateway.shard."), 5);
        assert_eq!(snap.sum_counters("gateway."), 12);
        assert_eq!(snap.sum_counters("missing."), 0);
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_histograms() {
        let reg = Registry::new();
        let c = reg.counter("calls");
        let h = reg.histogram("lat", &[10, 100]);
        c.add(2);
        h.record(5);
        let before = reg.snapshot();
        c.add(3);
        h.record(50);
        h.record(500);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("calls"), 3);
        let hs = delta.histogram("lat").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.buckets, vec![0, 1, 1]);
        assert_eq!(hs.sum, 550);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a_reg = Registry::new();
        a_reg.counter("calls").add(2);
        a_reg.histogram("lat", &[10]).record(4);
        let b_reg = Registry::new();
        b_reg.counter("calls").add(5);
        b_reg.histogram("lat", &[10]).record(40);
        let mut total = a_reg.snapshot();
        total.merge(&b_reg.snapshot());
        assert_eq!(total.counter("calls"), 7);
        let h = total.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (4, 40));
    }

    #[test]
    fn quantiles_track_bucket_bounds() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        for v in [1, 2, 3, 50, 60, 70, 800, 900, 5000, 6000] {
            h.record(v);
        }
        let s = reg.snapshot();
        let hs = s.histogram("lat").unwrap();
        assert_eq!(hs.quantile(0.0), Some(1), "q=0 clamps to min");
        assert_eq!(hs.quantile(1.0), Some(6000), "q=1 clamps to max");
        assert_eq!(hs.quantile(0.25), Some(10));
        assert_eq!(hs.quantile(0.5), Some(100));
        assert!(hs.quantile(0.9).unwrap() >= hs.quantile(0.5).unwrap());
        assert!(reg.snapshot().histogram("missing").is_none());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let reg = Registry::new();
        reg.histogram("lat", &[10]);
        assert_eq!(reg.snapshot().histogram("lat").unwrap().quantile(0.5), None);
    }

    #[test]
    fn quantiles_are_pinned_on_known_distributions() {
        // Uniform 1..=100 over decade-wide fixed buckets: every estimate is
        // the upper bound of the rank's bucket, so the error is at most one
        // bucket width (10 here).
        let reg = Registry::new();
        let h = reg.histogram("fixed", &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        for v in 1..=100 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("fixed").unwrap();
        assert_eq!(hs.quantile(0.50), Some(50));
        assert_eq!(hs.quantile(0.95), Some(100));
        assert_eq!(hs.quantile(0.99), Some(100));

        // Uniform 1..=1000 over the log-scale layout: estimates stay within
        // the documented 12.5% relative error of the true quantile.
        let lh = reg.log_histogram("log");
        for v in 1..=1000 {
            lh.record(v);
        }
        let snap = reg.snapshot();
        let ls = snap.histogram("log").unwrap();
        assert_eq!(ls.quantile(0.50), Some(511));
        assert_eq!(ls.quantile(0.95), Some(959));
        assert_eq!(ls.quantile(0.99), Some(1000), "clamped to observed max");
        for (q, truth) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let est = ls.quantile(q).unwrap();
            assert!(est >= truth, "upper-bound semantics");
            assert!(
                (est - truth) as f64 / truth as f64 <= 0.125,
                "q={q}: est {est} vs true {truth}"
            );
        }
    }

    #[test]
    fn merge_widens_mismatched_bounds_instead_of_replacing() {
        let a_reg = Registry::new();
        let ah = a_reg.histogram("lat", &[10, 100]);
        ah.record(5);
        ah.record(90);
        let b_reg = Registry::new();
        let bh = b_reg.histogram("lat", &[50, 1000]);
        bh.record(40);
        bh.record(900);
        bh.record(5000); // overflow on b's layout
        let mut total = a_reg.snapshot();
        total.merge(&b_reg.snapshot());
        let h = total.histogram("lat").unwrap();
        assert_eq!(h.bounds, vec![10, 50, 100, 1000], "union of both layouts");
        assert_eq!(h.count, 5, "nothing replaced, everything merged");
        assert_eq!(h.sum, 5 + 90 + 40 + 900 + 5000);
        // Counts stay under the bound they were recorded under: a's ≤10
        // bucket maps to the union's ≤10, a's ≤100 to ≤100, b's ≤50 to ≤50,
        // b's ≤1000 to ≤1000, b's overflow to overflow.
        assert_eq!(h.buckets, vec![1, 1, 1, 1, 1]);
        assert_eq!((h.min, h.max), (5, 5000));
    }

    #[test]
    fn snapshot_carries_log_histogram_exemplars() {
        use crate::hist2::Exemplar;
        use pod_sim::SimTime;
        let reg = Registry::new();
        let h = reg.log_histogram("gateway.queue_wait_us");
        h.record(10);
        h.record_with(9_000, || Exemplar {
            value: 9_000,
            at: SimTime::from_micros(42),
            event: Some(7),
            labels: vec![("op".into(), "i-0042".into())],
        });
        let snap = reg.snapshot();
        let tail = snap.exemplars("gateway.queue_wait_us");
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].value, 9_000);
        assert_eq!(snap.histogram("gateway.queue_wait_us").unwrap().count, 2);
        // merge keeps the largest exemplars from both sides.
        let mut total = snap.clone();
        total.merge(&snap);
        assert_eq!(total.exemplars("gateway.queue_wait_us").len(), 1, "deduped");
    }

    #[test]
    fn concurrent_counter_hammering_loses_nothing() {
        let reg = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = reg.counter("hammered");
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hammered").get(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_recording_is_consistent() {
        let reg = Registry::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = reg.histogram("lat", &[100, 1000]);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 250 + i % 7);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = reg.snapshot();
        let hs = s.histogram("lat").unwrap();
        assert_eq!(hs.count, 4000);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 4000);
    }
}

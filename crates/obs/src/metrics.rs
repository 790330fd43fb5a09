//! The metrics registry: counters, gauges and histograms, and
//! point-in-time snapshots with diff/merge support.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Exemplar, Histogram, HistogramSnapshot, EXEMPLAR_CAP};

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

/// Point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
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
    /// counters and histograms add; gauges keep the latest value; exemplar
    /// reservoirs combine and keep the largest values.
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

/// The handle registered under `name`, created on first use. Looks up by
/// `&str` first, so the name is copied only when the metric is new.
fn handle<T: Clone + Default>(map: &mut BTreeMap<String, T>, name: &str) -> T {
    if let Some(existing) = map.get(name) {
        return existing.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
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
        handle(&mut self.inner.lock().unwrap().counters, name)
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        handle(&mut self.inner.lock().unwrap().gauges, name)
    }

    /// The histogram registered under `name`, created on first use.
    /// Snapshots export its tail exemplars under [`Snapshot::exemplars`].
    pub fn histogram(&self, name: &str) -> Histogram {
        handle(&mut self.inner.lock().unwrap().histograms, name)
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let counters = inner
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let mut histograms = BTreeMap::new();
        let mut exemplars = BTreeMap::new();
        for (k, h) in &inner.histograms {
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
        let h = reg.histogram("lat");
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
        assert_eq!(hs.sum, 550);
        assert_eq!(
            (hs.min, hs.max),
            (5, 500),
            "extremes come from the later side"
        );
        assert_eq!(hs.buckets.iter().sum::<u64>(), 2, "the earlier 5 is gone");
        assert_eq!(hs.buckets[0], 0, "5's bucket is subtracted to zero");
        assert_eq!(hs.quantile(0.5), Some(51), "upper bound of 50's bucket");
        assert_eq!(hs.quantile(0.99), Some(500), "clamped to max");
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a_reg = Registry::new();
        a_reg.counter("calls").add(2);
        a_reg.histogram("lat").record(4);
        let b_reg = Registry::new();
        b_reg.counter("calls").add(5);
        b_reg.histogram("lat").record(40);
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
        let h = reg.histogram("lat");
        for v in [1, 2, 3, 50, 60, 70, 800, 900, 5000, 6000] {
            h.record(v);
        }
        let s = reg.snapshot();
        let hs = s.histogram("lat").unwrap();
        assert_eq!(hs.quantile(0.0), Some(1), "q=0 clamps to min");
        assert_eq!(hs.quantile(1.0), Some(6000), "q=1 clamps to max");
        assert_eq!(hs.quantile(0.25), Some(3), "values below 16 are exact");
        assert_eq!(hs.quantile(0.5), Some(63), "upper bound of 60's bucket");
        assert_eq!(hs.quantile(0.9), Some(5119), "upper bound of 5000's bucket");
        assert!(reg.snapshot().histogram("missing").is_none());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let reg = Registry::new();
        reg.histogram("lat");
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.quantile(0.5), None);
        assert!(hs.buckets.is_empty(), "nothing recorded, nothing stored");
    }

    #[test]
    fn quantiles_are_pinned_on_known_distributions() {
        // Every estimate is the upper bound of the rank's bucket, clamped
        // to the observed max, and stays within the documented 12.5%
        // relative error of the true quantile.
        let reg = Registry::new();
        let small = reg.histogram("small");
        for v in 1..=100 {
            small.record(v);
        }
        let large = reg.histogram("large");
        for v in 1..=1000 {
            large.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("small").unwrap();
        assert_eq!(hs.quantile(0.50), Some(51));
        assert_eq!(hs.quantile(0.95), Some(95));
        assert_eq!(hs.quantile(0.99), Some(100), "clamped to observed max");
        let ls = snap.histogram("large").unwrap();
        assert_eq!(ls.quantile(0.50), Some(511));
        assert_eq!(ls.quantile(0.95), Some(959));
        assert_eq!(ls.quantile(0.99), Some(1000), "clamped to observed max");
        for (h, scale) in [(hs, 1u64), (ls, 10)] {
            for (q, truth) in [(0.50, 50 * scale), (0.95, 95 * scale), (0.99, 99 * scale)] {
                let est = h.quantile(q).unwrap();
                assert!(est >= truth, "upper-bound semantics");
                assert!(
                    (est - truth) as f64 / truth as f64 <= 0.125,
                    "q={q}: est {est} vs true {truth}"
                );
            }
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let a_reg = Registry::new();
        let b_reg = Registry::new();
        let both_reg = Registry::new();
        for v in [5, 90] {
            a_reg.histogram("lat").record(v);
            both_reg.histogram("lat").record(v);
        }
        for v in [40, 900, 5000] {
            b_reg.histogram("lat").record(v);
            both_reg.histogram("lat").record(v);
        }
        let mut total = a_reg.snapshot();
        total.merge(&b_reg.snapshot());
        let both = both_reg.snapshot();
        assert_eq!(total.histogram("lat"), both.histogram("lat"));
        assert_eq!(total.histogram("lat").unwrap().count, 5);
        // Merging into or from an empty histogram changes nothing.
        let empty_reg = Registry::new();
        empty_reg.histogram("lat");
        let mut from_empty = empty_reg.snapshot();
        from_empty.merge(&both);
        assert_eq!(from_empty.histogram("lat"), both.histogram("lat"));
        let mut into = both.clone();
        into.merge(&empty_reg.snapshot());
        assert_eq!(into.histogram("lat"), both.histogram("lat"));
    }

    #[test]
    fn snapshot_carries_histogram_exemplars() {
        use pod_sim::SimTime;
        let reg = Registry::new();
        let h = reg.histogram("gateway.queue_wait_us");
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
                let h = reg.histogram("lat");
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

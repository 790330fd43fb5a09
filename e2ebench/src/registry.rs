//! Per-layer counts read from the existing `pod-obs` registries.

use std::collections::BTreeMap;

use pod_obs::Snapshot;

use crate::ratio;

/// The counts every workload reads from its merged registry snapshot;
/// `ops` is the number of operations (tenants or campaign runs).
pub fn registry_counts(all: &Snapshot, ops: f64) -> BTreeMap<&'static str, f64> {
    let c = |n: &str| all.counter(n) as f64;
    let mut m = BTreeMap::new();
    m.insert(
        "log.forwarded_share",
        ratio(c("pipeline.forwarded"), c("pipeline.pushed")),
    );
    m.insert("core.detections_per_op", c("engine.detections") / ops);
    m.insert(
        "core.diagnoses_per_detection",
        ratio(c("engine.diagnoses"), c("engine.detections")),
    );
    m.insert("process.replays", c("conformance.replays"));
    m.insert(
        "process.nonfit_share",
        ratio(
            c("conformance.replays") - c("conformance.fit"),
            c("conformance.replays"),
        ),
    );
    m.insert(
        "assert.consistent_calls_per_op",
        c("consistent.calls") / ops,
    );
    m.insert(
        "assert.retry_ratio",
        ratio(c("consistent.retries"), c("consistent.calls")),
    );
    m.insert("assert.timeouts", c("consistent.timeouts"));
    m.insert("cloud.api_calls_per_op", c("cloud.api.calls") / ops);
    m.insert(
        "cloud.throttled_share",
        ratio(c("cloud.api.throttled"), c("cloud.api.calls")),
    );
    m.insert(
        "cloud.stale_read_share",
        ratio(c("cloud.api.stale_reads"), c("cloud.api.calls")),
    );
    m.insert("cloud.errors", c("cloud.api.errors"));
    m.insert("faulttree.walks", c("faulttree.walks"));
    m.insert(
        "faulttree.tests_per_walk",
        ratio(c("faulttree.tests_run"), c("faulttree.walks")),
    );
    m.insert(
        "faulttree.memo_hit_ratio",
        ratio(
            c("faulttree.memo_hits"),
            c("faulttree.memo_hits") + c("faulttree.tests_run"),
        ),
    );
    m.insert(
        "recovery.prestage_hit_ratio",
        ratio(
            c("recovery.prestage.hit"),
            c("recovery.prestage.hit") + c("recovery.prestage.miss"),
        ),
    );
    m.insert("recovery.prestage_waste", c("recovery.prestage.waste"));
    m.insert(
        "recovery.steps_retried_ratio",
        ratio(c("recovery.steps_retried"), c("recovery.steps_applied")),
    );
    m.insert("recovery.storm_throttled", c("recovery.storm.throttled"));
    m.insert("recovery.storm_deferred", c("recovery.storm.deferred"));
    m
}

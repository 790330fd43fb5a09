//! Engine configuration and the shared expected-environment handle.

use std::sync::{Arc, Mutex, OnceLock};

use pod_assert::{AssertionLibrary, CloudAssertion, ExpectedEnv, RetryPolicy};
use pod_faulttree::{FaultTreeRepository, TestOrder};
use pod_log::RuleBook;
use pod_process::ProcessModel;
use pod_regex::{Regex, RegexSet};
use pod_sim::{LatencyModel, SimDuration};

/// The expected environment, shared between the engine and the operator /
/// experiment harness. Legitimate concurrent operations (a deliberate
/// scale-in) update it; an assertion evaluation that snapshotted the old
/// expectation mid-flight reproduces the paper's second false-positive
/// class.
///
/// Copy-on-write: a snapshot shares the current expectation by `Arc`, and
/// an update copies it only while an older snapshot still holds it, so
/// taking a snapshot per assertion copies nothing.
#[derive(Debug, Clone)]
pub struct SharedEnv {
    inner: Arc<Mutex<Arc<ExpectedEnv>>>,
}

impl SharedEnv {
    /// Wraps an initial expectation.
    pub fn new(env: ExpectedEnv) -> SharedEnv {
        SharedEnv {
            inner: Arc::new(Mutex::new(Arc::new(env))),
        }
    }

    /// The current expectation; later updates do not change it.
    pub fn snapshot(&self) -> Arc<ExpectedEnv> {
        Arc::clone(&self.inner.lock().unwrap())
    }

    /// Applies a mutation (e.g. the operator acknowledging a scale-in).
    pub fn update(&self, f: impl FnOnce(&mut ExpectedEnv)) {
        f(Arc::make_mut(&mut self.inner.lock().unwrap()));
    }
}

/// Static configuration of a [`crate::PodEngine`].
///
/// Patterns and rules arrive compiled. They are fixed artefacts of the
/// process, so a caller compiles them once and clones the config per
/// engine; the clone shares the compiled regexes and rule book by
/// reference count.
#[derive(Debug, Clone)]
pub struct PodConfig {
    /// The process model conformance checks against.
    pub model: ProcessModel,
    /// Transformation rules annotating log lines with process context.
    pub rules: RuleBook,
    /// Noise-filter keep patterns; `None` keeps every line.
    pub relevance_patterns: Option<RegexSet>,
    /// Patterns of known-error log lines.
    pub known_error_patterns: RegexSet,
    /// Pattern marking operation start (starts the periodic timer).
    pub operation_start_pattern: Regex,
    /// Pattern marking operation end (stops the timers).
    pub operation_end_pattern: Regex,
    /// Assertion bindings per activity.
    pub bindings: AssertionLibrary,
    /// Fault trees per assertion key.
    pub trees: FaultTreeRepository,
    /// Retry/timeout policy of the consistent API layer (post-step
    /// assertion evaluation).
    pub retry_policy: RetryPolicy,
    /// Retry/timeout policy of on-demand diagnostic tests (diagnosis wants
    /// quick answers, so this is tighter than the assertion policy).
    pub diagnosis_retry_policy: RetryPolicy,
    /// Fixed service overhead per diagnosis: selecting and instantiating
    /// the tree, pruning, fetching the recent log context.
    pub diagnosis_overhead: LatencyModel,
    /// Seed for the engine's own randomness (diagnosis overhead sampling).
    pub engine_seed: u64,
    /// Visiting order of fault-tree siblings.
    pub test_order: TestOrder,
    /// The activity that starts a silent wait (arms the step timer).
    pub wait_activity: Option<String>,
    /// The activity whose log line completes the wait (cancels the timer).
    pub completion_activity: Option<String>,
    /// Activities during which one in-flight replacement is expected (the
    /// process-aware floor of the periodic capacity check).
    pub in_flight_activities: Vec<String>,
    /// Timeout for the step timer — "set based on experiments, at the 95%
    /// percentile" of historical step durations.
    pub step_timeout: SimDuration,
    /// Period of the operation-wide periodic health check.
    pub periodic_interval: SimDuration,
    /// Virtual cost of one conformance-checking call (the paper measured
    /// ≈ 10 ms per local call).
    pub conformance_latency: SimDuration,
    /// Minimum spacing between two diagnoses for the same tree key; a
    /// detection inside the window is recorded without re-diagnosing.
    pub diagnosis_cooldown: SimDuration,
    /// Delay between a detection and the start of its diagnosis (the
    /// central log processor picks failures up from storage). Transient
    /// faults reverted inside this window reproduce the paper's third
    /// wrong-diagnosis class.
    pub diagnosis_dispatch_delay: SimDuration,
    /// Extra assertions evaluated at every periodic tick, besides the
    /// process-aware capacity checks — the paper's "regression test"
    /// assertions (e.g. resource availability).
    pub periodic_assertions: Vec<CloudAssertion>,
    /// How many instances are replaced at a time (the upgrade's `k`).
    pub batch_size: u32,
}

// Callers keep one compiled config per process in a `OnceLock` and share
// its patterns and rule book by `Arc`, which needs them `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Regex>();
    assert_send_sync::<RegexSet>();
    assert_send_sync::<RuleBook>();
    assert_send_sync::<PodConfig>();
};

impl PodConfig {
    /// A configuration with engine defaults; the caller supplies the
    /// process artefacts (model, rules, bindings, trees, patterns). The
    /// default start and end patterns match only an empty line.
    pub fn new(
        model: ProcessModel,
        rules: RuleBook,
        bindings: AssertionLibrary,
        trees: FaultTreeRepository,
    ) -> PodConfig {
        static EMPTY_LINE: OnceLock<Regex> = OnceLock::new();
        let empty_line = EMPTY_LINE.get_or_init(|| Regex::new("^$").expect("static pattern"));
        PodConfig {
            model,
            rules,
            relevance_patterns: None,
            known_error_patterns: RegexSet::default(),
            operation_start_pattern: empty_line.clone(),
            operation_end_pattern: empty_line.clone(),
            bindings,
            trees,
            retry_policy: RetryPolicy::default(),
            diagnosis_retry_policy: RetryPolicy {
                max_retries: 2,
                base_backoff: SimDuration::from_millis(250),
                multiplier: 2.0,
                timeout: SimDuration::from_secs(12),
            },
            diagnosis_overhead: LatencyModel::Shifted {
                offset: SimDuration::from_millis(600),
                base: Box::new(LatencyModel::lognormal_median_millis(500.0, 0.8)),
            },
            engine_seed: 0,
            test_order: TestOrder::ByProbability,
            wait_activity: None,
            completion_activity: None,
            in_flight_activities: Vec::new(),
            step_timeout: SimDuration::from_secs(150),
            periodic_interval: SimDuration::from_secs(60),
            conformance_latency: SimDuration::from_millis(10),
            diagnosis_cooldown: SimDuration::from_secs(45),
            diagnosis_dispatch_delay: SimDuration::from_secs(5),
            periodic_assertions: Vec::new(),
            batch_size: 1,
        }
    }
}

//! The trace: one ring of [`TraceRecord`]s per run on the virtual clock.
//!
//! A run's causal story — log line → verdict → detection → fault-tree
//! tests → root cause — and the spans measuring where its time went are
//! one stream. A *span* is a record with an end (upgrade step →
//! conformance replay → assertion eval → fault-tree walk → diagnostic test
//! → cloud API call); a causal *event* is an instantaneous record emitted
//! at a pipeline hand-off (a log line raising triggers, a conformance
//! verdict, an assertion result, a consistent-layer retry, a fault-tree
//! test, a diagnosis), linked to the event that caused it. Both land in
//! one ring behind one lock, and an event picks up the innermost open span
//! under that same lock.
//!
//! Causality crosses layer boundaries (the engine calls the evaluator,
//! which calls the consistent API…), so threading explicit cause ids
//! through every signature would be invasive. Instead the trace keeps an
//! ambient **cause stack**: a caller pushes the current cause with
//! [`Trace::scope`] and every event emitted while the scope is alive is
//! caused by it by default. Explicit causes override the stack via
//! [`Parent::Of`].
//!
//! Ids keep one sequence per kind: span ids count spans, event ids count
//! events. A record's `cause` names an event and its `span` names a span.
//!
//! # Examples
//!
//! ```
//! use pod_obs::{Parent, Trace};
//! use pod_sim::Clock;
//!
//! let trace = Trace::new(Clock::new());
//! trace.begin_trace("run-1");
//! let line = trace.emit("log.line", "asgard.log", Parent::Ambient);
//! let _scope = trace.scope(Some(line.id()));
//! let span = trace.span("conformance.replay");
//! let verdict = trace.emit("conformance.verdict", "conformance:unfit", Parent::Ambient);
//! let records = trace.records();
//! assert_eq!(records[1].cause, Some(line.id().get()));
//! assert_eq!(records[1].span, Some(span.id()));
//! assert_eq!(verdict.id().get(), 1);
//! ```

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

use pod_sim::{Clock, SimDuration, SimTime};

/// Upper bound on retained records per trace. The buffer is a true ring:
/// beyond the cap the *oldest* record is evicted (and counted per kind in
/// [`Trace::spans_dropped`] / [`Trace::events_dropped`]) so the most
/// recent causality is always available.
pub(crate) const TRACE_CAP: usize = 20_480;

/// The `kind` of every span record.
const SPAN_KIND: &str = "span";

/// Identifier of a causal event within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// The raw id (ascending in emission order within a trace).
    pub fn get(self) -> u64 {
        self.0
    }
}

/// How an emitted event is linked to its cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// Use the innermost active cause scope (none → root event).
    Ambient,
    /// Emit a root event regardless of active scopes.
    None,
    /// Link to this event explicitly.
    Of(EventId),
}

/// One record of a trace: a finished span (`end` is set) or a causal
/// event (`end` is `None`).
///
/// `kind` and attribute keys are `&'static str`: every call site names
/// them with literals, and the hot paths (one event per acted-on log line,
/// per-line `conformance.replay` spans) must not allocate for strings the
/// binary already contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Unique id within the trace among records of its kind (spans and
    /// events count separately, each ascending from 0).
    pub id: u64,
    /// The causing event, if any (always `None` for a span).
    pub cause: Option<u64>,
    /// The enclosing span: a span's parent, or the innermost span open
    /// when an event was emitted.
    pub span: Option<u64>,
    /// Virtual-clock start (a span) or emission time (an event).
    pub start: SimTime,
    /// Virtual-clock end; `Some` exactly for spans.
    pub end: Option<SimTime>,
    /// Hand-off kind, e.g. `log.line`, `conformance.verdict`,
    /// `detection`; `span` for every span.
    pub kind: &'static str,
    /// A span's name (e.g. `faulttree.walk`) or an event's short label
    /// (the verdict tag, the fault-tree node id). A `Cow` so static labels
    /// record without allocating.
    pub name: Cow<'static, str>,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

impl TraceRecord {
    /// Whether the record is a span (it has an end).
    pub fn is_span(&self) -> bool {
        self.end.is_some()
    }

    /// The span's virtual duration (zero for an event).
    pub fn duration(&self) -> SimDuration {
        self.end
            .map_or(SimDuration::ZERO, |end| end.duration_since(self.start))
    }
}

/// One frame of the ambient cause stack.
#[derive(Debug)]
enum CauseFrame {
    /// An already-recorded event id.
    Resolved(u64),
    /// A lazy root, captured but recorded (and given an id and cause) only
    /// on first use as an ambient cause.
    Pending(TraceRecord),
}

#[derive(Debug, Default)]
struct TraceInner {
    trace_id: String,
    next_span: u64,
    next_event: u64,
    ring: VecDeque<TraceRecord>,
    spans_dropped: u64,
    events_dropped: u64,
    /// Open spans, innermost last.
    open: Vec<TraceRecord>,
    causes: Vec<CauseFrame>,
}

impl TraceInner {
    fn push(&mut self, record: TraceRecord) {
        if self.ring.len() >= TRACE_CAP {
            match self.ring.pop_front() {
                Some(old) if old.is_span() => self.spans_dropped += 1,
                _ => self.events_dropped += 1,
            }
        }
        self.ring.push_back(record);
    }

    /// A record under the innermost open span; the caller sets its id,
    /// and its cause or end.
    fn record(
        &self,
        kind: &'static str,
        name: Cow<'static, str>,
        start: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) -> TraceRecord {
        TraceRecord {
            id: 0,
            cause: None,
            span: self.open.last().map(|s| s.id),
            start,
            end: None,
            kind,
            name,
            attrs,
        }
    }

    /// Resolves the innermost ambient cause, materialising any pending
    /// frames (bottom-up, so a pending frame's own cause is the frame
    /// beneath it) into real ring records first.
    fn resolve_ambient(&mut self) -> Option<u64> {
        let mut cause = None;
        for i in 0..self.causes.len() {
            let id = match self.causes[i] {
                CauseFrame::Resolved(id) => id,
                CauseFrame::Pending(_) => {
                    let id = self.next_event;
                    self.next_event += 1;
                    let CauseFrame::Pending(mut record) =
                        std::mem::replace(&mut self.causes[i], CauseFrame::Resolved(id))
                    else {
                        unreachable!("matched above");
                    };
                    record.id = id;
                    record.cause = cause;
                    self.push(record);
                    id
                }
            };
            cause = Some(id);
        }
        cause
    }
}

/// The shared trace store: spans and causal events of one run in one ring.
/// Cloning shares the ring, the open-span stack and the cause stack.
#[derive(Debug, Clone)]
pub struct Trace {
    clock: Clock,
    inner: Arc<Mutex<TraceInner>>,
}

impl Trace {
    /// Creates a trace reading timestamps from `clock`.
    pub fn new(clock: Clock) -> Trace {
        Trace {
            clock,
            inner: Arc::new(Mutex::new(TraceInner::default())),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap()
    }

    /// Starts a fresh trace identified by `trace_id` (normally the run
    /// id), discarding every record, open span and scope of the previous
    /// one.
    pub fn begin_trace(&self, trace_id: &str) {
        *self.lock() = TraceInner {
            trace_id: trace_id.to_string(),
            ..TraceInner::default()
        };
    }

    /// The current trace id (empty before the first
    /// [`begin_trace`](Trace::begin_trace)).
    pub fn trace_id(&self) -> String {
        self.lock().trace_id.clone()
    }

    /// Opens a span nested under the innermost open span. The span is
    /// recorded when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let start = self.clock.now();
        let mut inner = self.lock();
        let id = inner.next_span;
        inner.next_span += 1;
        let span = TraceRecord {
            id,
            ..inner.record(SPAN_KIND, name.into(), start, Vec::new())
        };
        inner.open.push(span);
        SpanGuard {
            trace: Some(self.clone()),
            id,
        }
    }

    /// Records an already-completed span retroactively: it starts at
    /// `started_at`, ends now, and nests under the innermost *open* span.
    ///
    /// This is the cheap half of outcome-conditional tracing: a hot path
    /// notes its virtual start time (a clock read, no lock, no
    /// allocation), runs to completion, and only materialises the span
    /// when the outcome turns out to be anomalous. Because spans measure
    /// *virtual* time, the retroactive record is exactly what an eagerly
    /// opened span would have captured — minus the two lock round-trips
    /// and the allocation every healthy call would otherwise pay.
    /// Returns the span id.
    pub fn record_span(
        &self,
        name: &'static str,
        started_at: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) -> u64 {
        let end = Some(self.clock.now());
        let mut inner = self.lock();
        let id = inner.next_span;
        inner.next_span += 1;
        let span = TraceRecord {
            id,
            end,
            ..inner.record(SPAN_KIND, name.into(), started_at, attrs)
        };
        inner.push(span);
        id
    }

    fn set_span_attr(&self, id: u64, key: &'static str, value: String) {
        if let Some(open) = self.lock().open.iter_mut().find(|s| s.id == id) {
            open.attrs.push((key, value));
        }
    }

    fn finish(&self, id: u64) {
        let end = self.clock.now();
        let mut inner = self.lock();
        let Some(pos) = inner.open.iter().rposition(|s| s.id == id) else {
            return;
        };
        let mut record = inner.open.remove(pos);
        record.end = Some(end);
        inner.push(record);
    }

    /// Emits one event under the innermost open span and returns a handle
    /// for attaching attributes.
    pub fn emit(&self, kind: &'static str, name: &str, parent: Parent) -> Emitted {
        let id = self.emit_with(kind, name.to_string(), parent, Vec::new());
        Emitted {
            trace: Some(self.clone()),
            id,
        }
    }

    /// Emits one event with its attributes attached in a single lock
    /// acquisition and without constructing a handle — the hot-path
    /// variant of [`Trace::emit`] for per-line call sites (the log
    /// pipeline, the conformance checker). `name` and attribute values are
    /// moved in, so a caller that already owns them pays no extra clone.
    pub fn emit_with(
        &self,
        kind: &'static str,
        name: impl Into<Cow<'static, str>>,
        parent: Parent,
        attrs: Vec<(&'static str, String)>,
    ) -> EventId {
        let start = self.clock.now();
        let mut inner = self.lock();
        let cause = match parent {
            Parent::Ambient => inner.resolve_ambient(),
            Parent::None => None,
            Parent::Of(p) => Some(p.get()),
        };
        let id = inner.next_event;
        inner.next_event += 1;
        let event = TraceRecord {
            id,
            cause,
            ..inner.record(kind, name.into(), start, attrs)
        };
        inner.push(event);
        EventId(id)
    }

    /// Pushes `cause` (when present) onto the ambient cause stack; the
    /// returned guard pops it on drop. A `None` cause is a no-op scope, so
    /// call sites can thread `Option<EventId>` without branching.
    pub fn scope(&self, cause: Option<EventId>) -> CauseScope {
        let Some(cause) = cause else {
            return CauseScope { trace: None };
        };
        self.lock().causes.push(CauseFrame::Resolved(cause.get()));
        CauseScope {
            trace: Some(self.clone()),
        }
    }

    /// Pushes a *pending* cause: the ingredients of a root event (kind,
    /// name, attrs, the innermost open span and the clock time) captured
    /// now but recorded only if some event is actually emitted under the
    /// scope with [`Parent::Ambient`].
    ///
    /// This keeps healthy hot paths silent: the log pipeline scopes every
    /// forwarded line as a pending `log.line`, yet only the handful of
    /// lines whose triggers produce a verdict, assertion result, or
    /// detection ever materialise into the ring. When nothing emits under
    /// the scope, dropping the guard discards the frame — no id, no ring
    /// slot, no allocation beyond the moved-in strings.
    pub fn scope_pending(
        &self,
        kind: &'static str,
        name: impl Into<Cow<'static, str>>,
        attrs: Vec<(&'static str, String)>,
    ) -> CauseScope {
        let start = self.clock.now();
        let mut inner = self.lock();
        let pending = inner.record(kind, name.into(), start, attrs);
        inner.causes.push(CauseFrame::Pending(pending));
        CauseScope {
            trace: Some(self.clone()),
        }
    }

    /// The innermost ambient cause, if a scope is active. Resolving the
    /// cause to a concrete id materialises pending frames, exactly as an
    /// ambient emission would.
    pub fn current_cause(&self) -> Option<EventId> {
        self.lock().resolve_ambient().map(EventId)
    }

    fn set_event_attr(&self, id: u64, key: &'static str, value: String) {
        let mut inner = self.lock();
        // Events ascend by id in the ring; an evicted event is silently
        // skipped, and a span sharing the numeric id is never touched.
        if let Some(record) = inner
            .ring
            .iter_mut()
            .rev()
            .find(|r| !r.is_span() && r.id == id)
        {
            record.attrs.push((key, value));
        }
    }

    /// All retained records — spans in completion order, events in
    /// emission order, interleaved as they were recorded.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Runs `f` over the retained records without cloning them — the
    /// accounting path ([`crate::incident_count`], the latency budget)
    /// reads every record of a run, and a deep copy of every `String` in
    /// the ring would dwarf the cost being measured.
    pub fn with_records<R>(&self, f: impl FnOnce(&[TraceRecord]) -> R) -> R {
        // O(1) unless the ring wrapped, which only happens past TRACE_CAP.
        f(self.lock().ring.make_contiguous())
    }

    /// Spans evicted from the ring after the retention cap was reached.
    pub fn spans_dropped(&self) -> u64 {
        self.lock().spans_dropped
    }

    /// Events evicted from the ring after the retention cap was reached.
    pub fn events_dropped(&self) -> u64 {
        self.lock().events_dropped
    }

    /// Renders the finished spans as an indented tree in start order.
    pub fn render_tree(&self) -> String {
        let inner = self.lock();
        let mut spans: Vec<&TraceRecord> = inner.ring.iter().filter(|r| r.is_span()).collect();
        spans.sort_by_key(|s| (s.start, s.id));
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut children: BTreeMap<Option<u64>, Vec<&TraceRecord>> = BTreeMap::new();
        for span in &spans {
            // Spans whose parent was evicted render as roots.
            let parent = span.span.filter(|p| ids.contains(p));
            children.entry(parent).or_default().push(span);
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} ({} spans{})",
            if inner.trace_id.is_empty() {
                "<unnamed>"
            } else {
                &inner.trace_id
            },
            spans.len(),
            if inner.spans_dropped > 0 {
                format!(", {} dropped", inner.spans_dropped)
            } else {
                String::new()
            }
        );
        fn walk(
            out: &mut String,
            children: &BTreeMap<Option<u64>, Vec<&TraceRecord>>,
            parent: Option<u64>,
            depth: usize,
        ) {
            let Some(list) = children.get(&parent) else {
                return;
            };
            for span in list {
                let attrs = if span.attrs.is_empty() {
                    String::new()
                } else {
                    let parts: Vec<String> =
                        span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("  {}", parts.join(" "))
                };
                let _ = writeln!(
                    out,
                    "{}{} [{} +{}]{}",
                    "  ".repeat(depth + 1),
                    span.name,
                    span.start,
                    span.duration(),
                    attrs,
                );
                walk(out, children, Some(span.id), depth + 1);
            }
        }
        walk(&mut out, &children, None, 0);
        out
    }

    /// Renders a flame-style aggregation: per span name, call count, total
    /// and self virtual time, with bars scaled to the hottest name.
    pub fn render_flame(&self) -> String {
        self.with_records(|records| {
            let mut rows: Vec<(&str, SpanTime)> = span_times(records).into_iter().collect();
            if rows.is_empty() {
                return "flame: no spans recorded\n".to_string();
            }
            rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
            let peak = rows[0].1.total_us.max(1);
            let mut out = format!(
                "{:<34} {:>6} {:>12} {:>12}  flame\n",
                "span", "count", "total", "self"
            );
            for (name, t) in rows {
                let width = ((t.total_us as f64 / peak as f64) * 24.0).round() as usize;
                let _ = writeln!(
                    out,
                    "{:<34} {:>6} {:>12} {:>12}  {}",
                    name,
                    t.count,
                    SimDuration::from_micros(t.total_us).to_string(),
                    SimDuration::from_micros(t.self_us).to_string(),
                    "#".repeat(width.max(1)),
                );
            }
            out
        })
    }
}

/// One span name's share of a trace (see [`span_times`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed virtual duration (µs).
    pub total_us: u64,
    /// Summed *self* time (µs): each span's duration minus the time spent
    /// in its child spans, so self times add up to wall (virtual) time
    /// instead of double-counting nested work.
    pub self_us: u64,
}

/// Folds the spans of `records` by name into call count, total and self
/// virtual time. Events are skipped.
pub fn span_times(records: &[TraceRecord]) -> BTreeMap<&str, SpanTime> {
    let spans = || records.iter().filter(|r| r.is_span());
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans() {
        if let Some(parent) = span.span {
            *child_us.entry(parent).or_insert(0) += span.duration().as_micros();
        }
    }
    let mut by_name: BTreeMap<&str, SpanTime> = BTreeMap::new();
    for span in spans() {
        let total = span.duration().as_micros();
        let time = by_name.entry(&*span.name).or_default();
        time.count += 1;
        time.total_us += total;
        time.self_us += total.saturating_sub(child_us.get(&span.id).copied().unwrap_or(0));
    }
    by_name
}

/// RAII guard for an open span; dropping it records the span, ending at
/// the clock's current virtual time.
///
/// When telemetry is off ([`crate::TelemetryMode::Off`]) the guard is
/// inert: it holds no trace, and `attr`/drop are no-ops, so call sites
/// need no mode checks of their own.
#[derive(Debug)]
pub struct SpanGuard {
    trace: Option<Trace>,
    id: u64,
}

impl SpanGuard {
    /// An inert guard recording nothing (telemetry off).
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard {
            trace: None,
            id: u64::MAX,
        }
    }

    /// Attaches a key/value attribute to the span.
    pub fn attr(&self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(trace) = &self.trace {
            trace.set_span_attr(self.id, key, value.to_string());
        }
    }

    /// The span's id within the trace (`u64::MAX` for an inert guard).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(trace) = &self.trace {
            trace.finish(self.id);
        }
    }
}

/// Handle to a just-emitted event.
///
/// When telemetry is off ([`crate::TelemetryMode::Off`]) the handle is
/// inert: it holds no trace, `attr` is a no-op and `id` is a dummy, so call
/// sites need no mode checks of their own.
#[derive(Debug)]
pub struct Emitted {
    trace: Option<Trace>,
    id: EventId,
}

impl Emitted {
    /// An inert handle recording nothing (telemetry off).
    pub(crate) fn disabled() -> Emitted {
        Emitted {
            trace: None,
            id: EventId(u64::MAX),
        }
    }

    /// Attaches a key/value attribute to the event.
    pub fn attr(&self, key: &'static str, value: impl std::fmt::Display) -> &Emitted {
        if let Some(trace) = &self.trace {
            trace.set_event_attr(self.id.get(), key, value.to_string());
        }
        self
    }

    /// The event's id, for explicit cause links (`u64::MAX` for an inert
    /// handle).
    pub fn id(&self) -> EventId {
        self.id
    }
}

/// RAII guard for an ambient cause (see [`Trace::scope`]); inert for a
/// `None` cause.
#[derive(Debug)]
pub struct CauseScope {
    trace: Option<Trace>,
}

impl Drop for CauseScope {
    fn drop(&mut self) {
        if let Some(trace) = &self.trace {
            trace.lock().causes.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advance(clock: &Clock, ms: u64) {
        clock.advance(SimDuration::from_millis(ms));
    }

    fn trace() -> Trace {
        let t = Trace::new(Clock::new());
        t.begin_trace("t");
        t
    }

    fn spans(trace: &Trace) -> Vec<TraceRecord> {
        trace
            .records()
            .into_iter()
            .filter(|r| r.is_span())
            .collect()
    }

    fn events(trace: &Trace) -> Vec<TraceRecord> {
        trace
            .records()
            .into_iter()
            .filter(|r| !r.is_span())
            .collect()
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let clock = Clock::new();
        let trace = Trace::new(clock.clone());
        trace.begin_trace("run-1");
        {
            let outer = trace.span("outer");
            advance(&clock, 10);
            {
                let inner = trace.span("inner");
                inner.attr("k", 3);
                advance(&clock, 5);
            }
            outer.attr("steps", "2");
            advance(&clock, 1);
        }
        let spans = spans(&trace);
        assert_eq!(spans.len(), 2);
        // Completion order: inner finishes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].span, Some(spans[1].id));
        assert_eq!(spans[0].duration(), SimDuration::from_millis(5));
        assert_eq!(spans[1].duration(), SimDuration::from_millis(16));
        assert_eq!(spans[0].attrs, vec![("k", "3".to_string())]);
        // Every span closed: a new event sits under no span.
        trace.emit("e", "e", Parent::Ambient);
        assert_eq!(events(&trace)[0].span, None);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let clock = Clock::new();
        let trace = Trace::new(clock.clone());
        trace.begin_trace("run-2");
        let root = trace.span("walk");
        for _ in 0..3 {
            let t = trace.span("test");
            advance(&clock, 2);
            drop(t);
        }
        drop(root);
        let spans = spans(&trace);
        let root_id = spans.iter().find(|s| s.name == "walk").unwrap().id;
        assert_eq!(spans.iter().filter(|s| s.span == Some(root_id)).count(), 3);
    }

    #[test]
    fn tree_rendering_indents_children() {
        let clock = Clock::new();
        let trace = Trace::new(clock.clone());
        trace.begin_trace("run-3");
        {
            let _outer = trace.span("upgrade.step");
            advance(&clock, 3);
            let api = trace.span("cloud.api.call");
            api.attr("op", "DescribeAsg");
            advance(&clock, 80);
        }
        trace.emit("log.line", "not a span", Parent::Ambient);
        let tree = trace.render_tree();
        assert!(tree.contains("trace run-3 (2 spans)"), "got:\n{tree}");
        assert!(tree.contains("  upgrade.step ["), "got:\n{tree}");
        assert!(tree.contains("    cloud.api.call ["), "got:\n{tree}");
        assert!(tree.contains("op=DescribeAsg"), "got:\n{tree}");
        assert!(!tree.contains("not a span"), "got:\n{tree}");
    }

    #[test]
    fn flame_rendering_aggregates_by_name() {
        let clock = Clock::new();
        let trace = Trace::new(clock.clone());
        trace.begin_trace("run-4");
        {
            let _w = trace.span("walk");
            for _ in 0..2 {
                let _t = trace.span("test");
                advance(&clock, 10);
            }
        }
        let flame = trace.render_flame();
        assert!(flame.contains("walk"), "got:\n{flame}");
        let test_line = flame.lines().find(|l| l.starts_with("test")).unwrap();
        assert!(test_line.contains("2"), "count column: {test_line}");
    }

    #[test]
    fn self_time_subtracts_children_and_skips_events() {
        let clock = Clock::new();
        let trace = Trace::new(clock.clone());
        trace.begin_trace("t");
        {
            let _walk = trace.span("faulttree.walk");
            advance(&clock, 10);
            for gap in [30, 20] {
                let _call = trace.span("cloud.api.call");
                trace.emit("faulttree.test", "t", Parent::Ambient);
                advance(&clock, gap);
            }
            advance(&clock, 40);
        }
        let records = trace.records();
        let times = span_times(&records);
        let walk = times["faulttree.walk"];
        assert_eq!(
            (walk.count, walk.total_us, walk.self_us),
            (1, 100_000, 50_000)
        );
        let call = times["cloud.api.call"];
        assert_eq!(
            (call.count, call.total_us, call.self_us),
            (2, 50_000, 50_000)
        );
        assert_eq!(times.len(), 2);
    }

    #[test]
    fn events_link_to_the_ambient_cause_and_the_open_span() {
        let trace = trace();
        let root = trace.emit("log.line", "asgard.log", Parent::Ambient);
        assert_eq!(trace.records()[0].cause, None);
        {
            let _scope = trace.scope(Some(root.id()));
            let span = trace.span("conformance.replay");
            let child = trace.emit("conformance.verdict", "fit", Parent::Ambient);
            assert_eq!(trace.current_cause(), Some(root.id()));
            let records = trace.records();
            assert_eq!(records[1].cause, Some(root.id().get()));
            assert_eq!(records[1].span, Some(span.id()));
            // Nested scopes stack.
            let _inner = trace.scope(Some(child.id()));
            trace.emit("detection", "assertion-log", Parent::Ambient);
            assert_eq!(trace.records()[2].cause, Some(child.id().get()));
        }
        assert_eq!(trace.current_cause(), None);
        trace.emit("detection", "late", Parent::Ambient);
        let events = events(&trace);
        assert_eq!(events[3].cause, None);
        assert_eq!(events[3].span, None);
    }

    #[test]
    fn explicit_parent_overrides_the_stack() {
        let trace = trace();
        let a = trace.emit("a", "a", Parent::Ambient);
        let _scope = trace.scope(Some(a.id()));
        trace.emit("b", "b", Parent::None);
        let c = trace.emit("c", "c", Parent::Of(a.id()));
        let records = trace.records();
        assert_eq!(records[1].cause, None);
        assert_eq!(records[2].cause, Some(a.id().get()));
        assert_eq!(c.id().get(), 2);
    }

    #[test]
    fn pending_scope_records_nothing_when_unused() {
        let trace = trace();
        {
            let _scope = trace.scope_pending("log.line", "asgard.log", Vec::new());
            // Nothing emitted under the scope: the frame is discarded.
        }
        assert!(trace.records().is_empty());
        // Ids were never consumed either.
        let ev = trace.emit("e", "e", Parent::Ambient);
        assert_eq!(ev.id().get(), 0);
    }

    #[test]
    fn pending_scope_materialises_on_first_ambient_emit() {
        let clock = Clock::new();
        let trace = Trace::new(clock.clone());
        trace.begin_trace("t");
        advance(&clock, 5);
        let span = trace.span("engine.ingest");
        let _scope = trace.scope_pending(
            "log.line",
            "asgard.log",
            vec![("message", "Instance i-aa is ready".to_string())],
        );
        advance(&clock, 10);
        let child = trace.emit("conformance.verdict", "conformance:unfit", Parent::Ambient);
        let records = trace.records();
        // The root landed first, with the capture-time timestamp and span.
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, "log.line");
        assert_eq!(records[0].start, SimTime::from_millis(5));
        assert_eq!(records[0].span, Some(span.id()));
        assert_eq!(
            records[0].attrs,
            vec![("message", "Instance i-aa is ready".to_string())]
        );
        assert_eq!(records[1].cause, Some(records[0].id));
        assert!(records[0].id < child.id().get());
        // A second emission reuses the already-materialised id.
        trace.emit("detection", "conformance-unfit", Parent::Ambient);
        assert_eq!(trace.records()[2].cause, Some(records[0].id));
        assert_eq!(trace.records().len(), 3);
    }

    #[test]
    fn nested_pending_frames_materialise_bottom_up() {
        let trace = trace();
        let _outer = trace.scope_pending("log.line", "outer", Vec::new());
        let _inner = trace.scope_pending("log.line", "inner", Vec::new());
        trace.emit("detection", "d", Parent::Ambient);
        let records = trace.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "outer");
        assert_eq!(records[0].cause, None);
        assert_eq!(records[1].name, "inner");
        assert_eq!(records[1].cause, Some(records[0].id));
        assert_eq!(records[2].cause, Some(records[1].id));
    }

    #[test]
    fn current_cause_resolves_pending_frames() {
        let trace = trace();
        let _scope = trace.scope_pending("log.line", "asgard.log", Vec::new());
        let cause = trace.current_cause().expect("scope is active");
        // Resolving materialised the root; later ambient emits chain to it.
        assert_eq!(trace.records().len(), 1);
        trace.emit("assertion.result", "late", Parent::Ambient);
        assert_eq!(trace.records()[1].cause, Some(cause.get()));
    }

    #[test]
    fn none_scope_is_a_no_op() {
        let trace = trace();
        {
            let _scope = trace.scope(None);
            trace.emit("x", "x", Parent::Ambient);
        }
        assert_eq!(trace.records()[0].cause, None);
        assert_eq!(trace.current_cause(), None);
    }

    #[test]
    fn attrs_attach_to_the_emitted_event_not_a_span_with_its_id() {
        let trace = trace();
        let ev = trace.emit("assertion.result", "asg-desired", Parent::Ambient);
        // Span 0 lands in the ring after event 0: same numeric id.
        drop(trace.span("s"));
        ev.attr("outcome", "failed").attr("attempts", 3);
        assert_eq!(
            events(&trace)[0].attrs,
            vec![
                ("outcome", "failed".to_string()),
                ("attempts", "3".to_string())
            ]
        );
        assert!(spans(&trace)[0].attrs.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops_per_kind() {
        let trace = trace();
        for _ in 0..10 {
            drop(trace.span("s"));
        }
        for i in 0..(TRACE_CAP - 10) {
            trace.emit("e", &i.to_string(), Parent::Ambient);
        }
        assert_eq!(trace.records().len(), TRACE_CAP);
        assert_eq!((trace.spans_dropped(), trace.events_dropped()), (0, 0));
        // The next 15 records push out the 10 spans, then 5 events.
        for _ in 0..15 {
            trace.record_span("late", SimTime::ZERO, Vec::new());
        }
        assert_eq!(trace.records().len(), TRACE_CAP);
        assert_eq!((trace.spans_dropped(), trace.events_dropped()), (10, 5));
        let records = trace.records();
        assert_eq!((records[0].kind, records[0].id), ("e", 5));
        assert_eq!(records.last().unwrap().id, 24);
        assert!(trace.render_tree().contains(", 10 dropped"));
    }

    #[test]
    fn begin_trace_resets_everything() {
        let trace = trace();
        let a = trace.emit("a", "a", Parent::Ambient);
        let _leaked = trace.scope(Some(a.id()));
        let _open = trace.span("open");
        drop(trace.span("x"));
        trace.begin_trace("t2");
        assert!(trace.records().is_empty());
        assert_eq!(trace.current_cause(), None);
        assert_eq!(trace.trace_id(), "t2");
        trace.emit("b", "b", Parent::Ambient);
        assert_eq!(trace.records()[0].span, None, "open spans reset too");
    }
}

//! Central log storage.
//!
//! All "important" lines from distributed nodes, plus the result logs of
//! conformance checking, assertion evaluation and error diagnosis, are
//! merged here. The storage is shared (cheap to clone, internally locked)
//! and supports ad-hoc querying for offline analysis and process
//! discovery.

use std::sync::{Arc, Mutex};

use pod_regex::Regex;
use pod_sim::SimTime;

use crate::event::{LogEvent, Severity};

/// A shared, append-only store of log events.
///
/// # Examples
///
/// ```
/// use pod_log::{LogEvent, LogStorage};
/// use pod_sim::SimTime;
///
/// let storage = LogStorage::new();
/// let shared = storage.clone();
/// storage.append(LogEvent::new(SimTime::ZERO, "asgard.log", "started"));
/// assert_eq!(shared.snapshot().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogStorage {
    events: Arc<Mutex<Vec<LogEvent>>>,
}

impl LogStorage {
    /// Creates an empty store.
    pub fn new() -> LogStorage {
        LogStorage::default()
    }

    /// Appends one event.
    pub fn append(&self, event: LogEvent) {
        self.events.lock().unwrap().push(event);
    }

    /// Appends many events.
    pub fn extend(&self, events: impl IntoIterator<Item = LogEvent>) {
        self.events.lock().unwrap().extend(events);
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all events.
    pub fn snapshot(&self) -> Vec<LogEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Runs a query against the current contents.
    pub fn query(&self, q: &LogQuery) -> Vec<LogEvent> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| q.matches(e))
            .cloned()
            .collect()
    }

    /// Removes all events (used between experiment runs).
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }
}

/// A filter over stored events; all set conditions must hold.
///
/// # Examples
///
/// ```
/// use pod_log::{LogEvent, LogQuery, LogStorage, Severity};
/// use pod_sim::SimTime;
///
/// let s = LogStorage::new();
/// s.append(LogEvent::new(SimTime::from_millis(1), "a.log", "ok").with_tag("step1"));
/// s.append(LogEvent::new(SimTime::from_millis(2), "b.log", "ERROR boom"));
///
/// let errors = s.query(&LogQuery::new().with_min_severity(Severity::Error));
/// assert_eq!(errors.len(), 1);
/// let tagged = s.query(&LogQuery::new().with_tag("step1"));
/// assert_eq!(tagged.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogQuery {
    source: Option<String>,
    tag: Option<String>,
    event_type: Option<String>,
    min_severity: Option<Severity>,
    after: Option<SimTime>,
    before: Option<SimTime>,
    message_pattern: Option<Regex>,
    process_instance_id: Option<String>,
}

impl LogQuery {
    /// An unconstrained query (matches everything).
    pub fn new() -> LogQuery {
        LogQuery::default()
    }

    /// Restricts to one source log.
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Requires a tag.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Restricts to one event type (`@type`).
    pub fn with_type(mut self, t: impl Into<String>) -> Self {
        self.event_type = Some(t.into());
        self
    }

    /// Requires at least this severity.
    pub fn with_min_severity(mut self, s: Severity) -> Self {
        self.min_severity = Some(s);
        self
    }

    /// Restricts to events at or after `t`.
    pub fn with_after(mut self, t: SimTime) -> Self {
        self.after = Some(t);
        self
    }

    /// Restricts to events strictly before `t`.
    pub fn with_before(mut self, t: SimTime) -> Self {
        self.before = Some(t);
        self
    }

    /// Requires the message to match a pattern.
    pub fn with_message_pattern(mut self, re: Regex) -> Self {
        self.message_pattern = Some(re);
        self
    }

    /// Restricts to one process instance (trace).
    pub fn with_process_instance(mut self, id: impl Into<String>) -> Self {
        self.process_instance_id = Some(id.into());
        self
    }

    /// Whether `event` satisfies every set condition.
    pub fn matches(&self, event: &LogEvent) -> bool {
        if let Some(s) = &self.source {
            if event.source != *s {
                return false;
            }
        }
        if let Some(t) = &self.tag {
            if !event.has_tag(t) {
                return false;
            }
        }
        if let Some(t) = &self.event_type {
            if event.event_type != t.as_str() {
                return false;
            }
        }
        if let Some(min) = self.min_severity {
            if event.severity < min {
                return false;
            }
        }
        if let Some(after) = self.after {
            if event.timestamp < after {
                return false;
            }
        }
        if let Some(before) = self.before {
            if event.timestamp >= before {
                return false;
            }
        }
        if let Some(re) = &self.message_pattern {
            if !re.is_match(&event.message) {
                return false;
            }
        }
        if let Some(id) = &self.process_instance_id {
            let in_ctx = event
                .context
                .as_ref()
                .is_some_and(|c| c.process_instance_id == *id);
            let in_fields = event.field("processinsid") == Some(id.as_str());
            if !in_ctx && !in_fields {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProcessContext;

    fn store() -> LogStorage {
        let s = LogStorage::new();
        s.append(
            LogEvent::new(SimTime::from_millis(10), "asgard.log", "upgrade started")
                .with_tag("start")
                .with_context(ProcessContext::new("rolling-upgrade", "run-1")),
        );
        s.append(LogEvent::new(
            SimTime::from_millis(20),
            "assertion.log",
            "ASG has 4 instances",
        ));
        s.append(LogEvent::new(
            SimTime::from_millis(30),
            "asgard.log",
            "ERROR launch failed",
        ));
        s
    }

    #[test]
    fn query_by_source_and_severity() {
        let s = store();
        assert_eq!(s.query(&LogQuery::new().with_source("asgard.log")).len(), 2);
        let errs = s.query(&LogQuery::new().with_min_severity(Severity::Error));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("launch failed"));
    }

    #[test]
    fn query_by_time_window() {
        let s = store();
        let q = LogQuery::new()
            .with_after(SimTime::from_millis(15))
            .with_before(SimTime::from_millis(30));
        let hits = s.query(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].source, "assertion.log");
    }

    #[test]
    fn query_by_process_instance() {
        let s = store();
        let hits = s.query(&LogQuery::new().with_process_instance("run-1"));
        assert_eq!(hits.len(), 1);
        assert!(s
            .query(&LogQuery::new().with_process_instance("run-2"))
            .is_empty());
    }

    #[test]
    fn query_by_message_pattern() {
        let s = store();
        let q = LogQuery::new().with_message_pattern(Regex::new(r"\d+ instances").unwrap());
        assert_eq!(s.query(&q).len(), 1);
    }

    #[test]
    fn clones_share_contents() {
        let s = store();
        let t = s.clone();
        t.append(LogEvent::new(SimTime::from_millis(99), "y", "shared"));
        assert_eq!(s.len(), 4);
        s.clear();
        assert!(t.is_empty());
    }
}

//! Property-based tests for the pod-obs metrics layer and the trace store.

use std::collections::{BTreeMap, BTreeSet};

use pod_obs::{
    CauseScope, Emitted, Parent, Registry, RunSignals, SampleVerdict, SamplerConfig, SpanGuard,
    TailSampler, Trace,
};
use pod_sim::{Clock, SimDuration, SimTime};
use proptest::prelude::*;

/// An arbitrary completed-run signal set for the tail sampler.
fn arb_signals() -> impl Strategy<Value = RunSignals> {
    (0usize..4, 0usize..4, 0usize..4, any::<bool>()).prop_map(
        |(detections, errors, warnings, tail_exemplar)| RunSignals {
            trace_id: "op".to_string(),
            detections,
            errors,
            warnings,
            tail_exemplar,
        },
    )
}

proptest! {
    /// Percentile estimates are monotone in q and always bounded by the
    /// observed min/max, whatever the data.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in prop::collection::vec(0u64..5_000_000, 1..200),
        qs in prop::collection::vec(0.0..1.0f64, 2..20),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for &v in &values {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hist = snap.histogram("h").unwrap();
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();

        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.total_cmp(b));
        let estimates: Vec<u64> =
            sorted_qs.iter().map(|&q| hist.quantile(q).unwrap()).collect();
        for pair in estimates.windows(2) {
            prop_assert!(pair[0] <= pair[1], "not monotone: {estimates:?}");
        }
        for &e in &estimates {
            prop_assert!(e >= lo && e <= hi, "estimate {e} outside [{lo}, {hi}]");
        }
        prop_assert_eq!(hist.quantile(0.0).unwrap(), lo);
        prop_assert_eq!(hist.quantile(1.0).unwrap(), hi);
    }

    /// A quantile estimate never under-reports the exact nearest-rank
    /// value and exceeds it by at most an eighth of it: the error bound
    /// the bucket layout promises, at every scale below 2^39.
    #[test]
    fn histogram_quantile_is_within_an_eighth_of_the_nearest_rank(
        mut values in prop::collection::vec(0u64..(1 << 39), 1..200),
        q in 0.0..1.0f64,
    ) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for &v in &values {
            h.record(v);
        }
        let snap = reg.snapshot();
        let estimate = snap.histogram("h").unwrap().quantile(q).unwrap();
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).max(1);
        let exact = values[rank - 1];
        prop_assert!(estimate >= exact, "q={q}: estimate {estimate} < exact {exact}");
        prop_assert!(
            estimate - exact <= exact / 8,
            "q={q}: estimate {estimate} exceeds exact {exact} by more than 1/8"
        );
    }

    /// diff followed by merge round-trips counter totals and histograms,
    /// and merging two histograms' snapshots equals the snapshot of one
    /// histogram that recorded both sets.
    #[test]
    fn snapshot_diff_then_merge_roundtrips(
        first in prop::collection::vec(0u64..100, 1..8),
        second in prop::collection::vec(0u64..100, 1..8),
        first_obs in prop::collection::vec(0u64..10_000_000, 0..50),
        second_obs in prop::collection::vec(0u64..10_000_000, 0..50),
    ) {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        for &n in &first {
            c.add(n);
        }
        for &v in &first_obs {
            h.record(v);
        }
        let mid = reg.snapshot();
        for &n in &second {
            c.add(n);
        }
        for &v in &second_obs {
            h.record(v);
        }
        let end = reg.snapshot();
        let delta = end.diff(&mid);
        prop_assert_eq!(delta.counter("c"), second.iter().sum::<u64>());
        let mut rebuilt = mid.clone();
        rebuilt.merge(&delta);
        prop_assert_eq!(rebuilt.counter("c"), end.counter("c"));

        let (rebuilt_h, end_h) = (rebuilt.histogram("h").unwrap(), end.histogram("h").unwrap());
        prop_assert_eq!(rebuilt_h.count, end_h.count);
        prop_assert_eq!(rebuilt_h.sum, end_h.sum);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(rebuilt_h.quantile(q), end_h.quantile(q), "q={}", q);
        }

        let (a_reg, b_reg, both_reg) = (Registry::new(), Registry::new(), Registry::new());
        for &v in &first_obs {
            a_reg.histogram("h").record(v);
            both_reg.histogram("h").record(v);
        }
        for &v in &second_obs {
            b_reg.histogram("h").record(v);
            both_reg.histogram("h").record(v);
        }
        let mut merged = a_reg.snapshot();
        merged.merge(&b_reg.snapshot());
        prop_assert_eq!(merged.histogram("h"), both_reg.snapshot().histogram("h"));
    }

    /// Tail-sampler accounting never loses a decision: whatever mix of
    /// runs arrives and whatever keep rate is configured,
    /// `kept + discarded` equals the number of decisions and the
    /// per-reason breakdown sums exactly to `kept`.
    #[test]
    fn sampler_accounts_for_every_decision(
        runs in prop::collection::vec(arb_signals(), 1..100),
        keep_one_in in 0u64..20,
    ) {
        let reg = Registry::new();
        let sampler = TailSampler::new(&reg, SamplerConfig { keep_one_in });
        for signals in &runs {
            sampler.decide(signals);
        }
        prop_assert_eq!(
            sampler.kept() + sampler.discarded(),
            runs.len() as u64,
            "decisions lost: kept {} + discarded {} != {} runs",
            sampler.kept(), sampler.discarded(), runs.len()
        );
        let snap = reg.snapshot();
        prop_assert_eq!(
            snap.sum_counters("obs.sampler.kept."),
            snap.counter("obs.sampler.kept"),
            "per-reason breakdown does not sum to the kept total"
        );
    }

    /// Incident-relevant runs — any detection, error verdict, or
    /// degradation warning — are never sampled away, even at the most
    /// aggressive keep rate (`keep_one_in: 0` discards every healthy run).
    /// This is the property behind the flight-recorder guarantee that a
    /// detection's causal chain survives sampling.
    #[test]
    fn detections_and_warnings_are_never_discarded(
        runs in prop::collection::vec(arb_signals(), 1..100),
        keep_one_in in 0u64..20,
    ) {
        let reg = Registry::new();
        let sampler = TailSampler::new(&reg, SamplerConfig { keep_one_in });
        for signals in &runs {
            let verdict = sampler.decide(signals);
            if signals.incident_relevant() {
                prop_assert!(
                    verdict.keep(),
                    "incident-relevant run discarded: {signals:?} -> {verdict:?}"
                );
            }
            if signals.detections > 0 {
                prop_assert_eq!(verdict, SampleVerdict::KeptDetection);
            } else if signals.errors > 0 {
                prop_assert_eq!(verdict, SampleVerdict::KeptError);
            } else if signals.warnings > 0 {
                prop_assert_eq!(verdict, SampleVerdict::KeptWarning);
            }
        }
    }

    /// Whatever interleaving of span open/close, retroactive spans, events
    /// under every `Parent` mode and nested resolved/pending cause scopes
    /// a caller produces, the one ring stays consistent: every link names
    /// a record of the right kind, ids are dense and ascending per kind,
    /// an unused pending scope leaves no record and consumes no id, and
    /// attributes land on the event they were attached to even when a
    /// span with the same numeric id sits in the ring.
    #[test]
    fn trace_links_and_ids_stay_consistent(
        ops in prop::collection::vec((0u8..12, 0u64..1_000), 1..160),
    ) {
        let clock = Clock::new();
        let trace = Trace::new(clock.clone());
        trace.begin_trace("prop");
        let mut open: Vec<SpanGuard> = Vec::new();
        // Each live scope guard with its model frame: `None` for a no-op
        // scope, `Some(materialised)` for a pending one, `Some(true)` for
        // a resolved one.
        let mut scopes: Vec<(CauseScope, Option<bool>)> = Vec::new();
        let mut emitted: Vec<Emitted> = Vec::new();
        let mut expected_attrs: BTreeMap<u64, usize> = BTreeMap::new();
        let mut expected_span: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        let (mut spans_made, mut explicit_events, mut materialised) = (0u64, 0u64, 0u64);
        fn materialise(scopes: &mut [(CauseScope, Option<bool>)], count: &mut u64) {
            for (_, frame) in scopes.iter_mut() {
                if *frame == Some(false) {
                    *frame = Some(true);
                    *count += 1;
                }
            }
        }
        for (op, k) in ops {
            match op {
                0 => {
                    open.push(trace.span("s"));
                    spans_made += 1;
                }
                1 if !open.is_empty() => drop(open.remove(k as usize % open.len())),
                2 => {
                    trace.record_span("r", SimTime::ZERO, Vec::new());
                    spans_made += 1;
                }
                3..=5 => {
                    let parent = match op {
                        3 => Parent::Ambient,
                        4 => Parent::None,
                        _ if emitted.is_empty() => Parent::None,
                        _ => Parent::Of(emitted[k as usize % emitted.len()].id()),
                    };
                    if parent == Parent::Ambient {
                        materialise(&mut scopes, &mut materialised);
                    }
                    let ev = trace.emit("e", "e", parent);
                    expected_attrs.insert(ev.id().get(), 0);
                    expected_span.insert(ev.id().get(), open.last().map(SpanGuard::id));
                    emitted.push(ev);
                    explicit_events += 1;
                }
                6 => {
                    let cause = (k % 2 == 0 && !emitted.is_empty())
                        .then(|| emitted[k as usize % emitted.len()].id());
                    scopes.push((trace.scope(cause), cause.map(|_| true)));
                }
                7 => scopes.push((trace.scope_pending("pending", "p", Vec::new()), Some(false))),
                8 => drop(scopes.pop()),
                9 => {
                    clock.advance(SimDuration::from_millis(k));
                }
                10 if !emitted.is_empty() => {
                    let ev = &emitted[k as usize % emitted.len()];
                    ev.attr("k", k);
                    *expected_attrs.get_mut(&ev.id().get()).unwrap() += 1;
                }
                11 => {
                    materialise(&mut scopes, &mut materialised);
                    trace.current_cause();
                }
                _ => {}
            }
        }
        drop(scopes);
        drop(open); // every span lands in the ring on close

        let records = trace.records();
        let (spans, events): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.is_span());
        let span_ids: BTreeSet<u64> = spans.iter().map(|r| r.id).collect();
        let event_ids: Vec<u64> = events.iter().map(|r| r.id).collect();
        prop_assert_eq!((trace.spans_dropped(), trace.events_dropped()), (0, 0));
        for r in &records {
            if let Some(cause) = r.cause {
                prop_assert!(event_ids.contains(&cause), "cause {} names no event", cause);
            }
            if let Some(span) = r.span {
                prop_assert!(span_ids.contains(&span), "span {} names no span", span);
            }
        }
        // Per-kind sequences: dense from 0, events ascending in the ring.
        prop_assert_eq!(span_ids, (0..spans_made).collect::<BTreeSet<u64>>());
        prop_assert_eq!(spans.len() as u64, spans_made);
        prop_assert!(event_ids.windows(2).all(|w| w[0] < w[1]), "{:?}", event_ids);
        prop_assert_eq!(event_ids, (0..explicit_events + materialised).collect::<Vec<u64>>());
        // Only used pending scopes left a record.
        let pending = events.iter().filter(|r| r.kind == "pending").count() as u64;
        prop_assert_eq!(pending, materialised);
        for event in events.iter().filter(|r| r.kind == "e") {
            prop_assert_eq!(event.attrs.len(), expected_attrs[&event.id], "event {}", event.id);
            prop_assert_eq!(event.span, expected_span[&event.id], "event {}", event.id);
        }
        prop_assert!(spans.iter().all(|s| s.attrs.is_empty()), "attr landed on a span");
    }
}

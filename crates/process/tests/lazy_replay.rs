//! Differential test of token replay: the lazy closure walk of
//! `PetriNet::replay` against the eager replay it replaced, kept here as
//! the oracle. The oracle saturates the whole silent closure (breadth-first,
//! cut at `CLOSURE_BOUND` distinct markings) and then searches it in order.
//! Both must agree on the verdict, the next marking, the expected
//! activities and the hypothesised skips, on every step of random activity
//! sequences.

use std::collections::{HashSet, VecDeque};

use pod_process::{
    Conformance, ConformanceChecker, Marking, PetriNet, ProcessModel, ProcessModelBuilder,
    Transition,
};
use proptest::prelude::*;

/// The closure bound of `PetriNet` (`petri.rs`).
const CLOSURE_BOUND: usize = 4096;

// -------------------------------------------------------------------------
// The eager oracle
// -------------------------------------------------------------------------

fn enabled(net: &PetriNet, m: &Marking, t: &Transition) -> bool {
    let mut need = vec![0u8; net.place_count()];
    for p in &t.consume {
        need[*p] += 1;
    }
    need.iter().zip(m.iter()).all(|(n, have)| have >= n)
}

fn fire(m: &Marking, t: &Transition) -> Marking {
    let mut next = m.clone();
    for p in &t.consume {
        next[*p] -= 1;
    }
    for p in &t.produce {
        next[*p] = next[*p].saturating_add(1);
    }
    next
}

fn silent_closure(net: &PetriNet, m: &Marking) -> Vec<Marking> {
    silent_closure_within(net, m, CLOSURE_BOUND)
}

fn silent_closure_within(net: &PetriNet, m: &Marking, bound: usize) -> Vec<Marking> {
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut queue: VecDeque<Marking> = VecDeque::new();
    seen.insert(m.clone());
    queue.push_back(m.clone());
    let mut result = Vec::new();
    while let Some(cur) = queue.pop_front() {
        result.push(cur.clone());
        if seen.len() >= bound {
            break;
        }
        for t in net.transitions().iter().filter(|t| t.label.is_none()) {
            if enabled(net, &cur, t) {
                let next = fire(&cur, t);
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
    }
    result
}

fn eager_replay(net: &PetriNet, m: &Marking, activity: &str) -> Option<Marking> {
    for marking in silent_closure(net, m) {
        for t in net.transitions() {
            if t.label.as_deref() == Some(activity) && enabled(net, &marking, t) {
                return Some(fire(&marking, t));
            }
        }
    }
    None
}

fn eager_labels(net: &PetriNet, m: &Marking) -> Vec<String> {
    let mut labels: Vec<String> = Vec::new();
    for marking in silent_closure(net, m) {
        for t in net.transitions() {
            if let Some(label) = &t.label {
                if enabled(net, &marking, t) && !labels.contains(label) {
                    labels.push(label.clone());
                }
            }
        }
    }
    labels.sort();
    labels
}

/// The checker's skip hypothesis, rebuilt on the eager replay.
fn eager_skips(net: &PetriNet, m: &Marking, activity: &str, expected: &[String]) -> Vec<String> {
    let mut frontier: Vec<(Marking, Vec<String>)> = vec![(m.clone(), Vec::new())];
    for _depth in 0..3 {
        let mut next_frontier = Vec::new();
        for (m, path) in &frontier {
            let labels = if path.is_empty() {
                expected.to_vec()
            } else {
                eager_labels(net, m)
            };
            for label in labels {
                if let Some(m2) = eager_replay(net, m, &label) {
                    let mut p2 = path.clone();
                    p2.push(label.clone());
                    if eager_replay(net, &m2, activity).is_some() {
                        return p2;
                    }
                    next_frontier.push((m2, p2));
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    Vec::new()
}

fn eager_complete(net: &PetriNet, m: &Marking) -> bool {
    let done = net.place_count() - 1;
    silent_closure(net, m)
        .iter()
        .any(|marking| marking[done] > 0)
}

// -------------------------------------------------------------------------
// Models
// -------------------------------------------------------------------------

/// The rolling upgrade's Figure-2 shape: three setup steps, the
/// per-instance replacement loop, completion.
fn rolling_upgrade() -> ProcessModel {
    let mut b = ProcessModelBuilder::new("rolling-upgrade");
    let start = b.start();
    let t_start = b.task("start-task");
    let t_lc = b.task("update-launch-config");
    let t_sort = b.task("sort-instances");
    let join = b.exclusive_gateway();
    let t_dereg = b.task("deregister-old-instance");
    let t_term = b.task("terminate-old-instance");
    let t_wait = b.task("wait-for-asg");
    let t_ready = b.task("new-instance-ready");
    let split = b.exclusive_gateway();
    let t_done = b.task("rolling-upgrade-completed");
    let end = b.end();
    b.flow(start, t_start);
    b.flow(t_start, t_lc);
    b.flow(t_lc, t_sort);
    b.flow(t_sort, join);
    b.flow(join, t_dereg);
    b.flow(t_dereg, t_term);
    b.flow(t_term, t_wait);
    b.flow(t_wait, t_ready);
    b.flow(t_ready, split);
    b.flow(split, join);
    b.flow(split, t_done);
    b.flow(t_done, end);
    b.build().unwrap()
}

/// start → a → join → b → c → split → (join | end).
fn loop_model() -> ProcessModel {
    let mut b = ProcessModelBuilder::new("loop");
    let s = b.start();
    let a = b.task("a");
    let join = b.exclusive_gateway();
    let t_b = b.task("b");
    let c = b.task("c");
    let split = b.exclusive_gateway();
    let e = b.end();
    b.flow(s, a);
    b.flow(a, join);
    b.flow(join, t_b);
    b.flow(t_b, c);
    b.flow(c, split);
    b.flow(split, join);
    b.flow(split, e);
    b.build().unwrap()
}

/// A parallel split whose branches reach their tasks through different
/// numbers of silent moves, so several closure markings enable `a` with
/// different tokens elsewhere: the one replay picks depends on the order
/// the closure is walked in.
///
/// ```text
/// start → P(+) → Z(x) → a ─────────────→ J(+) → d → end
///              → X(x) → b ──────→ M(x) ↗
///                     → Y(x) → c ↗
/// ```
fn parallel_model() -> ProcessModel {
    let mut bld = ProcessModelBuilder::new("parallel");
    let s = bld.start();
    let p = bld.parallel_gateway();
    let z = bld.exclusive_gateway();
    let x = bld.exclusive_gateway();
    let y = bld.exclusive_gateway();
    let a = bld.task("a");
    let b = bld.task("b");
    let c = bld.task("c");
    let m = bld.exclusive_gateway();
    let j = bld.parallel_gateway();
    let d = bld.task("d");
    let e = bld.end();
    bld.flow(s, p);
    bld.flow(p, z);
    bld.flow(p, x);
    bld.flow(z, a);
    bld.flow(x, b);
    bld.flow(x, y);
    bld.flow(y, c);
    bld.flow(b, m);
    bld.flow(c, m);
    bld.flow(a, j);
    bld.flow(m, j);
    bld.flow(j, d);
    bld.flow(d, e);
    bld.build().unwrap()
}

/// Silent moves far past `CLOSURE_BOUND`. Two parallel branches are
/// generators: an exclusive merge feeding a parallel split that loops back
/// and drops a token before `a` (or `b`) on every turn. The third branch
/// is a chain of `DEEP_CHAIN` exclusive gateways before `deep`. Breadth
/// first, the generators' markings interleave with the chain's, so `deep`
/// only becomes enabled some 4,500 markings into the closure: past the
/// cut-off, but inside twice the bound.
fn unbounded_model() -> ProcessModel {
    let mut bld = ProcessModelBuilder::new("unbounded");
    let s = bld.start();
    let split = bld.parallel_gateway();
    bld.flow(s, split);
    for task in ["a", "b"] {
        let merge = bld.exclusive_gateway();
        let gen = bld.parallel_gateway();
        let t = bld.task(task);
        let e = bld.end();
        bld.flow(split, merge);
        bld.flow(merge, gen);
        bld.flow(gen, merge);
        bld.flow(gen, t);
        bld.flow(t, e);
    }
    let mut prev = split;
    for _ in 0..DEEP_CHAIN {
        let x = bld.exclusive_gateway();
        bld.flow(prev, x);
        prev = x;
    }
    let deep = bld.task("deep");
    let e = bld.end();
    bld.flow(prev, deep);
    bld.flow(deep, e);
    bld.build().unwrap()
}

/// Length of the silent chain in front of `deep`.
const DEEP_CHAIN: usize = 28;

// -------------------------------------------------------------------------
// The differential check
// -------------------------------------------------------------------------

/// Replays a sequence built from `picks` on both implementations. Each pick
/// `(follow, i)` chooses the `i`-th currently expected activity when
/// `follow` is set (so traces get deep into the model), otherwise the
/// `i`-th label of the whole alphabet plus one unknown activity. With
/// `checker`, every step also goes through `ConformanceChecker`, whose
/// unfit verdicts must carry the oracle's expected set and skips.
fn check_sequence(model: &ProcessModel, picks: &[(bool, usize)], checker: bool) {
    let net = PetriNet::compile(model);
    let mut alphabet: Vec<String> = model.task_names().iter().map(|s| s.to_string()).collect();
    alphabet.push("not-in-the-model".to_string());
    let mut ch = checker.then(|| ConformanceChecker::new(model));
    let mut marking = net.initial_marking();
    for &(follow, i) in picks {
        let expected = eager_labels(&net, &marking);
        assert_eq!(net.enabled_labels(&marking), expected, "expected set");
        assert_eq!(net.is_complete(&marking), eager_complete(&net, &marking));
        let activity = if follow && !expected.is_empty() {
            expected[i % expected.len()].clone()
        } else {
            alphabet[i % alphabet.len()].clone()
        };
        let oracle = eager_replay(&net, &marking, &activity);
        assert_eq!(
            net.replay(&marking, &activity),
            oracle,
            "next marking after {activity} from {marking:?}"
        );
        let verdict = ch.as_mut().map(|ch| ch.replay("t", &activity));
        match oracle {
            Some(next) => {
                if let Some(verdict) = verdict {
                    assert_eq!(verdict, Conformance::Fit, "verdict of {activity}");
                }
                marking = next;
            }
            None => {
                if let Some(verdict) = verdict {
                    let skipped = eager_skips(&net, &marking, &activity, &expected);
                    assert_eq!(
                        verdict,
                        Conformance::Unfit { expected, skipped },
                        "unfit context of {activity}"
                    );
                }
            }
        }
        if let Some(ch) = ch.as_mut() {
            assert_eq!(ch.expected("t"), eager_labels(&net, &marking));
        }
    }
    if let Some(ch) = &ch {
        assert_eq!(ch.is_complete("t"), eager_complete(&net, &marking));
    }
}

fn picks(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(bool, usize)>> {
    prop::collection::vec((prop::bool::ANY, 0usize..64), len)
}

proptest! {
    #[test]
    fn lazy_replay_matches_eager_on_the_rolling_upgrade(p in picks(0..60)) {
        check_sequence(&rolling_upgrade(), &p, true);
    }

    #[test]
    fn lazy_replay_matches_eager_on_a_loop(p in picks(0..40)) {
        check_sequence(&loop_model(), &p, true);
    }

    #[test]
    fn lazy_replay_matches_eager_across_parallel_gateways(p in picks(0..12)) {
        check_sequence(&parallel_model(), &p, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Net level only: every unfit verdict here would hypothesise skips
    /// over dozens of closures of 4,096 markings.
    #[test]
    fn lazy_replay_matches_eager_at_the_closure_bound(p in picks(1..4)) {
        check_sequence(&unbounded_model(), &p, false);
    }
}

/// The cut-off is part of the semantics: `deep` is reachable by silent
/// moves, but only beyond `CLOSURE_BOUND` markings, so replay treats it as
/// not enabled.
#[test]
fn closure_bound_cuts_off_activities_reached_past_it() {
    let net = PetriNet::compile(&unbounded_model());
    let m0 = net.initial_marking();
    let enables_deep = |m: &Marking| {
        net.transitions()
            .iter()
            .any(|t| t.label.as_deref() == Some("deep") && enabled(&net, m, t))
    };
    assert!(
        silent_closure_within(&net, &m0, 2 * CLOSURE_BOUND)
            .iter()
            .any(enables_deep),
        "deep lies within twice the bound"
    );
    assert_eq!(net.enabled_labels(&m0), vec!["a", "b"]);
    assert_eq!(net.replay(&m0, "deep"), None);
    assert!(net.replay(&m0, "a").is_some());
}

/// Walk order decides which closure marking enables `a` first: breadth
/// first fires it beside the untouched `X` branch.
#[test]
fn replay_fires_from_the_first_marking_in_breadth_first_order() {
    let net = PetriNet::compile(&parallel_model());
    let m0 = net.initial_marking();
    let next = net.replay(&m0, "a").expect("a is reachable silently");
    assert_eq!(Some(next.clone()), eager_replay(&net, &m0, "a"));
    // The token of the other branch still waits in front of X: b and c
    // are both still possible.
    assert_eq!(net.enabled_labels(&next), vec!["b", "c"]);
}

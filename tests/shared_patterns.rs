//! Compiled patterns are shared by reference count: a clone of a `Regex`
//! or `RegexSet` must answer exactly like the original, also once the
//! original is gone, over the full E1 rolling-upgrade log.

use pod_orchestrator::process_def;
use pod_regex::{Regex, RegexSet};

/// Every group's span of the leftmost match, or `None` on no match.
fn spans(re: &Regex, line: &str) -> Option<Vec<Option<(usize, usize)>>> {
    let caps = re.captures(line)?;
    Some(
        (0..caps.len())
            .map(|i| caps.get(i).map(|m| (m.start(), m.end())))
            .collect(),
    )
}

/// The rolling upgrade's patterns: every rule pattern plus the relevance,
/// known-error and start/end patterns.
fn upgrade_patterns() -> Vec<String> {
    let mut patterns: Vec<String> = process_def::rolling_upgrade_rules()
        .rules()
        .iter()
        .flat_map(|rule| rule.patterns.iter().map(|re| re.as_str().to_string()))
        .collect();
    patterns.extend(
        process_def::relevance_patterns()
            .into_iter()
            .map(String::from),
    );
    patterns.extend(
        process_def::known_error_patterns()
            .into_iter()
            .map(String::from),
    );
    patterns.push(process_def::operation_start_pattern().to_string());
    patterns.push(process_def::operation_end_pattern().to_string());
    patterns
}

#[test]
fn cloned_regex_matches_like_the_original() {
    let lines = pod_bench::upgrade_log_lines(7, 4, 4);
    let mut matched = 0usize;
    for pattern in upgrade_patterns() {
        let original = Regex::new(&pattern).unwrap();
        let clone = original.clone();
        let want: Vec<_> = lines.iter().map(|line| spans(&original, line)).collect();
        matched += want.iter().filter(|s| s.is_some()).count();
        drop(original);
        for (line, want) in lines.iter().zip(&want) {
            assert_eq!(&spans(&clone, line), want, "{pattern} on line: {line}");
        }
        assert_eq!(clone.as_str(), pattern);
    }
    assert!(matched >= 50, "only {matched} matches over the fixture");
}

#[test]
fn cloned_regex_set_matches_like_the_original() {
    let lines = pod_bench::upgrade_log_lines(11, 4, 4);
    let original = RegexSet::new(&upgrade_patterns()).unwrap();
    let clone = original.clone();
    let want: Vec<_> = lines
        .iter()
        .map(|line| (original.matches(line), original.first_match(line)))
        .collect();
    drop(original);
    for (line, want) in lines.iter().zip(&want) {
        assert_eq!(
            &(clone.matches(line), clone.first_match(line)),
            want,
            "line: {line}"
        );
    }
    assert!(want.iter().any(|(all, _)| all.len() > 1));
}

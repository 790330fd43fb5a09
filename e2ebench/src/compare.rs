//! `e2ebench compare <before> <after>`: DeCaf-style regression triage over
//! two saved outputs of traced runs. Per workload it lists the self-time
//! rows (`table.*`, `unattributed` included) sorted by their change, names
//! the row that moved most, and lists the deterministic counts that moved.

use std::collections::BTreeMap;

use pod_log::Json;

type Runs = BTreeMap<String, BTreeMap<String, f64>>;

/// Reads every traced result in `path`: a header line
/// `e2ebench workload=<w> seed=<n> trace=1` followed by the result JSON.
fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    let mut workload: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("e2ebench ") {
            workload = rest
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("workload="))
                .filter(|_| rest.contains("trace=1"))
                .map(str::to_string);
        } else if let (Some(w), true) = (&workload, line.starts_with('{')) {
            let json = Json::parse(line).map_err(|e| format!("{path}: {e:?}"))?;
            if json.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{path}: the {w} run failed its checks"));
            }
            let Some(Json::Object(metrics)) = json.get("metrics") else {
                return Err(format!("{path}: no metrics object"));
            };
            let values = metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            runs.insert(w.clone(), values);
            workload = None;
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no traced results (run with --trace 1)"));
    }
    Ok(runs)
}

pub fn run(before: &str, after: &str) -> Result<(), String> {
    let (a, b) = (load(before)?, load(after)?);
    for (workload, old) in &a {
        let Some(new) = b.get(workload) else {
            println!("{workload}: only in {before}");
            continue;
        };
        let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let total = "table.total_us_per_line";
        let mut rows: Vec<(&str, f64, f64)> = old
            .keys()
            .filter(|k| k.starts_with("table.") && k.as_str() != total)
            .map(|k| (k.as_str(), get(old, k), get(new, k)))
            .filter(|(_, o, n)| *o != 0.0 || *n != 0.0)
            .collect();
        rows.sort_by(|x, y| (y.2 - y.1).abs().total_cmp(&(x.2 - x.1).abs()));
        let (t0, t1) = (get(old, total), get(new, total));
        println!(
            "{workload}: total {t0:.3} → {t1:.3} µs/line ({:+.3}, {:+.1} %)",
            t1 - t0,
            pct(t0, t1)
        );
        println!(
            "  {:<34} {:>10} {:>10} {:>10} {:>8}",
            "row (self time)", "before", "after", "change", "%"
        );
        for (name, o, n) in &rows {
            println!(
                "  {name:<34} {o:>10.3} {n:>10.3} {:>+10.3} {:>+7.1}%",
                n - o,
                pct(*o, *n)
            );
        }
        if let Some((name, o, n)) = rows.first() {
            println!("  moved most: {name} ({:+.3} µs/line)", n - o);
        }
        let moved: Vec<String> = old
            .iter()
            .filter(|(k, _)| !k.starts_with("table.") && !k.contains("_us_") && !k.contains("_ms_"))
            .filter(|(k, v)| get(new, k) != **v && !k.starts_with("traced."))
            .map(|(k, v)| format!("{k} {v} → {}", get(new, k)))
            .collect();
        if !moved.is_empty() {
            println!("  deterministic counts that moved: {}", moved.join("; "));
        }
    }
    Ok(())
}

fn pct(before: f64, after: f64) -> f64 {
    if before == 0.0 {
        0.0
    } else {
        (after / before - 1.0) * 100.0
    }
}

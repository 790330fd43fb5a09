//! End-to-end benchmark of the detect → diagnose → repair loop.
//!
//! ```text
//! e2ebench --workload <storm-soak|healthy-soak|campaign> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench compare <before.txt> <after.txt>
//! e2ebench manifest
//! ```
//!
//! `--trace 0` times the public entry points and prints every end-to-end
//! metric; `--trace 1` replays the same inputs through the benchmark's own
//! replay loop, built from public calls, and prints the per-layer table. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output check
//! prints the breaches on standard error, reports no numbers and exits 1.
//! See `README.md` for the workloads and metric definitions.

mod campaign;
mod compare;
mod cpu;
mod registry;
mod soak;
mod table;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: cpu::CountingAlloc = cpu::CountingAlloc;

/// The end-to-end metrics: name, unit, better, regression bound.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("cpu_us_per_line", "us", "lower", 0.25),
    ("run_cpu_ms_p50", "ms", "lower", 0.25),
    ("run_cpu_ms_p90", "ms", "lower", 0.25),
    ("mttr_p50_s", "s", "lower", 0.15),
    ("mttr_p90_s", "s", "lower", 0.2),
    ("diagnosis_s_p50", "s", "lower", 0.15),
    ("diagnosis_s_p90", "s", "lower", 0.2),
    ("detection_precision", "ratio", "higher", 0.1),
    ("detection_recall", "ratio", "higher", 0.05),
    ("diagnosis_accuracy", "ratio", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
];

/// The per-layer metrics of a traced run: name, unit, better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // The self-time table: µs of CPU per wire line (per ingested log line
    // on the campaign), rows plus `unattributed` sum to `total`.
    ("table.gateway_us_per_line", "us", "lower"),
    ("table.core_ingest_us_per_line", "us", "lower"),
    ("table.core_finish_us_per_line", "us", "lower"),
    ("table.core_build_us_per_line", "us", "lower"),
    ("table.recovery_us_per_line", "us", "lower"),
    ("table.campaign_run_us_per_line", "us", "lower"),
    ("table.unattributed_us_per_line", "us", "lower"),
    ("table.total_us_per_line", "us", "lower"),
    ("traced.overhead_share", "ratio", "lower"),
    // Allocations and bytes allocated per wire line (per ingested line on
    // the campaign), charged to the innermost open span.
    ("alloc.gateway_per_line", "count", "lower"),
    ("alloc.gateway_bytes_per_line", "bytes", "lower"),
    ("alloc.core_ingest_per_line", "count", "lower"),
    ("alloc.core_ingest_bytes_per_line", "bytes", "lower"),
    ("alloc.core_finish_per_line", "count", "lower"),
    ("alloc.core_finish_bytes_per_line", "bytes", "lower"),
    ("alloc.core_build_per_line", "count", "lower"),
    ("alloc.core_build_bytes_per_line", "bytes", "lower"),
    ("alloc.recovery_per_line", "count", "lower"),
    ("alloc.recovery_bytes_per_line", "bytes", "lower"),
    ("alloc.campaign_run_per_line", "count", "lower"),
    ("alloc.campaign_run_bytes_per_line", "bytes", "lower"),
    ("alloc.unattributed_per_line", "count", "lower"),
    ("alloc.unattributed_bytes_per_line", "bytes", "lower"),
    ("alloc.campaign_run_per_run", "count", "lower"),
    ("alloc.campaign_run_bytes_per_run", "bytes", "lower"),
    // gateway
    ("gateway.self_us_per_line", "us", "lower"),
    ("gateway.lines_per_batch", "count", "higher"),
    ("gateway.queue_wait_p50_ms", "ms", "lower"),
    ("gateway.queue_wait_p99_ms", "ms", "lower"),
    ("gateway.blocked", "count", "lower"),
    ("gateway.shed", "count", "lower"),
    // log
    ("log.parse_us_per_line", "us", "lower"),
    ("log.unclassified_share", "ratio", "lower"),
    ("log.forwarded_share", "ratio", "lower"),
    // core
    ("core.self_us_per_line", "us", "lower"),
    ("core.finish_us_per_op", "us", "lower"),
    ("core.build_ms_per_op", "ms", "lower"),
    ("core.detections_per_op", "count", "lower"),
    ("core.diagnoses_per_detection", "ratio", "lower"),
    // process
    ("process.replays", "count", "lower"),
    ("process.nonfit_share", "ratio", "lower"),
    // assert
    ("assert.consistent_calls_per_op", "count", "lower"),
    ("assert.retry_ratio", "ratio", "lower"),
    ("assert.timeouts", "count", "lower"),
    // cloud
    ("cloud.api_calls_per_op", "count", "lower"),
    ("cloud.throttled_share", "ratio", "lower"),
    ("cloud.stale_read_share", "ratio", "lower"),
    ("cloud.errors", "count", "lower"),
    // faulttree
    ("faulttree.walks", "count", "lower"),
    ("faulttree.tests_per_walk", "count", "lower"),
    ("faulttree.memo_hit_ratio", "ratio", "higher"),
    // recovery
    ("recovery.self_us_per_repair", "us", "lower"),
    ("recovery.prestage_hit_ratio", "ratio", "higher"),
    ("recovery.prestage_waste", "count", "lower"),
    ("recovery.steps_retried_ratio", "ratio", "lower"),
    ("recovery.escalated_share", "ratio", "lower"),
    ("recovery.storm_throttled", "count", "lower"),
    ("recovery.storm_deferred", "count", "lower"),
    // obs
    ("obs.kept_share", "ratio", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    ("obs.events_dropped", "count", "lower"),
    // The strict quality failure share: soak tenants with an escalated
    // incident, campaign runs missed, misdiagnosed or escalated.
    ("quality.failed_share", "ratio", "lower"),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "storm-soak",
        "128 faulty tenants through gateway, engines and contended recovery: the whole online path under load",
    ),
    (
        "healthy-soak",
        "128 tenants, 1 in 8 faulty, sampled telemetry, no recovery: the ingest path a fleet mostly runs",
    ),
    (
        "campaign",
        "320 fault-injection runs with eager recovery, one after another: the paper's Table I and Fig. 6 loop",
    ),
];

pub const RUN_SECONDS: u64 = 15;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub breaches: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.breaches.push(what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"e2ebench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, w)| format!("    {{\"name\": \"{n}\", \"why\": \"{w}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}")
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn parse_args(args: &[String]) -> Result<Params, String> {
    let mut p = Params {
        workload: String::new(),
        seed: 2014,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => p.workload = value.clone(),
            "--seed" => p.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                p.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == p.workload) {
        return Err(format!("unknown --workload {:?}", p.workload));
    }
    Ok(p)
}

fn emit(p: &Params, mut outcome: Outcome) -> ExitCode {
    // Every declared metric of the mode is reported, and nothing else.
    let declared: Vec<(&str, &str)> = if p.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
    };
    for (name, _) in &declared {
        let n = outcome.metrics.iter().filter(|(m, _)| m == name).count();
        outcome.check(n == 1, || format!("metric {name} reported {n} times"));
    }
    let bad: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|(name, value)| !value.is_finite() || !declared.iter().any(|(n, _)| n == name))
        .map(|(name, value)| format!("undeclared or non-finite metric {name} = {value}"))
        .collect();
    outcome.breaches.extend(bad);
    println!(
        "e2ebench workload={} seed={} trace={}",
        p.workload, p.seed, p.trace as u8
    );
    if !outcome.breaches.is_empty() {
        for b in &outcome.breaches {
            eprintln!("CHECK FAILED: {b}");
        }
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            outcome.attempted.max(1),
            outcome.failed
        );
        return ExitCode::from(1);
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.iter().find(|(m, _)| m == name).unwrap().1;
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Some("compare") if args.len() == 3 => {
            return match compare::run(&args[1], &args[2]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let p = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match p.workload.as_str() {
        "campaign" => campaign::run(&p),
        soak => soak::run(&p, soak == "storm-soak"),
    };
    emit(&p, outcome)
}

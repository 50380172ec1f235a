//! The repository benchmark: four closed-loop workloads over the secure
//! primitives, broker ingest and the epidemic backbone.
//!
//! ```text
//! benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark compare A B
//! ```
//!
//! With `--workload`, one workload runs in this process: it prints
//! `workload metric value unit` lines and, last, one JSON object with the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics).
//! Without it, every workload runs in a child process of its own, and
//! `--trace 1` adds a traced run per workload and reports its overhead.
//! `compare` judges two files of result lines against the bounds.  See the
//! README next to this file.

#![forbid(unsafe_code)]
// A benchmark measures the real clock; exempt from the clock ban.
#![allow(clippy::disallowed_methods)]

mod backbone;
mod clock;
mod compare;
mod probes;
mod publish_storm;
mod session_churn;
mod spec;
mod stats;
mod steady_messaging;
mod trace;
mod workload;

use clock::Clock;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;
use workload::{Outcome, Settings};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5EC0_0B5E;
/// Timed phase of each workload unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 5.0;
/// Untimed warm-up before each timed phase.
const WARMUP: Duration = Duration::from_secs(2);
const QUICK_WARMUP: Duration = Duration::from_secs(1);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => options.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &options.workload {
        if !spec::WORKLOADS.iter().any(|(w, _)| w == name) {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(options)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let options = parse(args)?;
    match &options.workload {
        Some(name) => Ok(run_workload(name, &options)),
        None => run_all(&options),
    }
}

/// Runs one workload in this process and reports it.
fn run_workload(name: &str, options: &Options) -> ExitCode {
    let default = if options.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let settings = Settings {
        seed: options.seed,
        phase: Duration::from_secs_f64(options.seconds.unwrap_or(default)),
        warmup: if options.quick { QUICK_WARMUP } else { WARMUP },
        quick: options.quick,
        trace: options.trace,
    };
    let clock = Arc::new(Clock::new());
    let mut outcome = match name {
        "session_churn" => session_churn::run(&settings, &clock),
        "steady_messaging" => steady_messaging::run(&settings, &clock),
        "publish_storm" => publish_storm::run(&settings, &clock),
        _ => backbone::run(&settings, &clock),
    };
    let metrics = if settings.trace {
        per_layer(name, &settings, &outcome)
    } else {
        let metrics = end_to_end(name, &mut outcome);
        println!("{name} gauge_us_p50 {} us", clock.gauge_us_p50());
        metrics
    };
    for failure in &outcome.failures {
        eprintln!("{name}: FAILED {failure}");
    }
    let correct = outcome.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (metric, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push_str(&format!(
            "{}\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        ));
    }
    println!("{json}}}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics of an untraced run; prints them and the
/// workload's own readings as result lines.
fn end_to_end(name: &str, outcome: &mut Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let latencies = &outcome.latencies_ms;
    let values: BTreeMap<&str, Option<f64>> = [
        ("setup_s", stats::median(&outcome.setup_s)),
        ("op_ms_p50", stats::median(latencies)),
        ("op_ms_p90", stats::percentile(latencies, 0.9)),
        (
            "ops_per_s",
            (outcome.ops > 0.0).then(|| outcome.ops / outcome.phase_s),
        ),
        (
            "wire_kib_per_op",
            (outcome.ops > 0.0).then(|| outcome.wire_bytes as f64 / 1024.0 / outcome.ops),
        ),
        ("peak_rss_mib", peak_rss_mib()),
    ]
    .into_iter()
    .collect();
    let mut metrics = Vec::new();
    for metric in spec::END_TO_END {
        let value = values[metric.name];
        // A metric the run could not measure (too few samples) fails it.
        outcome.check(metric.name, value.ok_or("too few samples"));
        metrics.push((metric.name, value.unwrap_or(f64::NAN), metric.unit));
    }
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    println!("{name} op_samples {} count", outcome.latencies_ms.len());
    println!(
        "{name} fail_ratio {} ratio",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    for (metric, value, unit) in outcome.readings.iter().filter(|r| r.1.is_finite()) {
        println!("{name} {metric} {value} {unit}");
    }
    metrics
}

/// The per-layer metrics of a traced run; writes the trace file.
fn per_layer(
    name: &str,
    settings: &Settings,
    outcome: &Outcome,
) -> Vec<(&'static str, f64, &'static str)> {
    if let Some(tracer) = &outcome.tracer {
        let dir = std::path::Path::new("target").join("benchmark");
        let path = dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(name, settings.seed)));
        if let Err(error) = written {
            eprintln!("{name}: cannot write {}: {error}", path.display());
        }
    }
    let metrics: Vec<_> = spec::PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                outcome.layers.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            )
        })
        .collect();
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    metrics
}

/// Runs every workload, each in a child process of its own (so each has
/// its own peak RSS), and with `--trace 1` a traced run after each.
fn run_all(options: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut common = vec!["--seed".to_string(), options.seed.to_string()];
    if let Some(seconds) = options.seconds {
        common.extend(["--seconds".to_string(), seconds.to_string()]);
    }
    if options.quick {
        common.push("--quick".to_string());
    }
    let mut ok = true;
    for (workload, _) in spec::WORKLOADS {
        let mut untraced_p50 = None;
        for trace in if options.trace {
            &["0", "1"][..]
        } else {
            &["0"][..]
        } {
            let output = Command::new(&exe)
                .args(&common)
                .args(["--workload", workload, "--trace", trace])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            ok &= output.status.success();
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                let Some((_, metric, value, _)) = compare::parse_line(line) else {
                    continue;
                };
                println!("{line}");
                match metric {
                    "op_ms_p50" => untraced_p50 = Some(value),
                    "op.traced_ms_p50" => {
                        if let Some(untraced) = untraced_p50 {
                            println!("{workload} trace.overhead_ms {} ms", value - untraced);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

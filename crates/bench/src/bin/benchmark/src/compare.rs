//! `benchmark compare A B`: judges result file B (the change) against A
//! (the baseline), metric by metric and workload by workload, with the
//! bounds of [`crate::spec::END_TO_END`].
//!
//! A result file holds `workload metric value unit` lines, one per metric
//! per run; several runs of the same commit may be concatenated.  Other
//! lines (the JSON summary, logs) are ignored.

use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The judgement of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of A or B exceeds the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
    /// One side has no runs of this metric.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Parses one `workload metric value unit` result line.
pub fn parse_line(line: &str) -> Option<(&str, &str, f64, &str)> {
    let mut fields = line.split_whitespace();
    let workload = fields.next()?;
    let metric = fields.next()?;
    let value = fields.next()?.parse().ok()?;
    let unit = fields.next()?;
    fields
        .next()
        .is_none()
        .then_some((workload, metric, value, unit))
}

type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (workload, metric, value, _) in text.lines().filter_map(parse_line) {
        runs.entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push(value);
    }
    Ok(runs)
}

/// Judges runs `b` against baseline runs `a` of one metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(base), Some(new)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Missing;
    };
    // Positive `gain` is an improvement, as a share of the baseline.
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let gain = sign * stats::ratio(new - base, base.abs());
    if stats::spread(a) > bound || stats::spread(b) > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) > 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Entry point of `benchmark compare A B`; exits nonzero when any metric is
/// worse, unresolved or missing.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare BASELINE CHANGE".into());
    };
    let (a, b) = (read(a)?, read(b)?);
    let mut ok = true;
    println!(
        "workload metric better verdict baseline change delta spread_baseline spread_change bound"
    );
    for (workload, _) in spec::WORKLOADS {
        for metric in spec::END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let runs_a = a.get(&key).map(Vec::as_slice).unwrap_or_default();
            let runs_b = b.get(&key).map(Vec::as_slice).unwrap_or_default();
            let verdict = verdict(runs_a, runs_b, metric.better, metric.bound);
            ok &= matches!(verdict, Verdict::Better | Verdict::Same);
            let (base, new) = (
                stats::median(runs_a).unwrap_or(f64::NAN),
                stats::median(runs_b).unwrap_or(f64::NAN),
            );
            println!(
                "{workload} {} {} {} {base:.6} {new:.6} {:+.2}% {:.2}% {:.2}% {:.0}%",
                metric.name,
                metric.better.as_str(),
                verdict.as_str(),
                100.0 * stats::ratio(new - base, base),
                100.0 * stats::spread(runs_a),
                100.0 * stats::spread(runs_b),
                100.0 * metric.bound,
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_result_lines_and_skips_the_rest() {
        assert_eq!(
            parse_line("session_churn op_ms_p50 3.25 ms"),
            Some(("session_churn", "op_ms_p50", 3.25, "ms"))
        );
        assert_eq!(parse_line("{\"correct\": true}"), None);
        assert_eq!(parse_line("session_churn op_ms_p50 fast ms"), None);
        assert_eq!(parse_line("a b 1 ms extra"), None);
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = [10.0, 10.1, 9.9];
        // Lower is better: +20% is worse, -20% better, +5% within bound.
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9], Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9], Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &[10.5, 10.4, 10.6], Better::Lower, 0.1),
            Verdict::Same
        );
        // Higher is better: the same change reads the other way.
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9], Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9], Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [8.0, 10.0, 12.0];
        assert_eq!(
            verdict(&noisy, &[10.0, 10.0, 10.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[10.0; 3], &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Every change run beats every baseline run: better despite noise.
        assert_eq!(
            verdict(&noisy, &[5.0, 6.0, 7.5], Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(verdict(&[], &[1.0], Better::Lower, 0.1), Verdict::Missing);
    }
}

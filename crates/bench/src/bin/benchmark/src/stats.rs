//! Sample statistics: nearest-rank percentiles and run-to-run spread.

/// Samples that must lie strictly beyond a percentile before it is reported:
/// a tail estimated from fewer points is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the rank.  The median is
/// exempt from the rule (it only needs one sample).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if q > 0.5 && sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (nearest rank), or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Distance between the first and third quartile of a set of run results,
/// over their median: the run-to-run spread a bound is judged against.
/// Quartiles interpolate as Python's `statistics.quantiles(values, n=4)`
/// does (its default, exclusive method); with three runs they are the
/// smallest and largest.  Zero for fewer than two runs or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let Some(mid) = median(&sorted).filter(|m| n >= 2 && *m != 0.0) else {
        return 0.0;
    };
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative for two runs, where the quartiles extrapolate.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid.abs()
}

/// `part / whole`, or 0 when `whole` is 0 (a layer a workload never reaches).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_median_and_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        // p99 of 100 samples has a single sample beyond it: not reported.
        assert_eq!(percentile(&samples, 0.99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_rank() {
        // rank(0.9) of 100 = 90, leaving exactly 10 beyond: reported.
        let hundred = vec![1.0; 100];
        assert!(percentile(&hundred, 0.9).is_some());
        // rank(0.9) of 99 = 90, leaving 9 beyond: not reported.
        let ninety_nine = vec![1.0; 99];
        assert!(percentile(&ninety_nine, 0.9).is_none());
        // The median needs only one sample.
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        // Three runs: the quartiles are the smallest and largest.
        assert_eq!(spread(&[11.0, 9.0, 10.0]), 0.2);
        // As `statistics.quantiles(range(1, 11), n=4)`: 2.75 and 8.25, and
        // one outlying run does not move them.
        let runs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&runs), (8.25 - 2.75) / 5.0);
        let mut outlier = runs.clone();
        outlier[9] = 100.0;
        assert_eq!(spread(&outlier), spread(&runs));
        // Two runs: `statistics.quantiles([9, 11], n=4)` gives 8.5 and 11.5.
        assert_eq!(spread(&[11.0, 9.0]), 3.0 / 9.0);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}

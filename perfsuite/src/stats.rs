//! The statistics every reported number goes through: medians, the
//! percentile a sample count supports, warm-up discard, and the quartile
//! spread the driver computes.

/// Median of `values` (the mean of the two middle ones when even).
/// `NaN` for an empty slice, so a missing measurement cannot read as 0.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile, capped at p95, that leaves at least ten
/// samples beyond it: 0.95 from 200 samples up, `1 - 10/n` below that,
/// and the median when there are fewer than twenty.
pub fn tail_q(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.95)
    }
}

/// The tail latency of `values`: their [`tail_q`] quantile.
pub fn tail(values: &[f64]) -> f64 {
    quantile(values, tail_q(values.len()))
}

/// `samples` without the first `share` of them (rounded up): the rounds
/// during which caches, arenas and branch predictors were still filling.
pub fn after_warmup(samples: &[f64], share: f64) -> &[f64] {
    let skip = (samples.len() as f64 * share).ceil() as usize;
    &samples[skip.min(samples.len())..]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method the driver uses). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_repetitions_ignores_one_stall() {
        // Seven repetitions, one of them hit by a stall of the box.
        let reps = [2.01, 2.03, 2.00, 9.70, 2.02, 2.04, 2.02];
        assert_eq!(median(&reps), 2.02);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(10), 0.5);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(200), 0.95);
        assert_eq!(tail_q(5000), 0.95);
        for n in [20usize, 57, 199, 200, 450] {
            let beyond = n as f64 * (1.0 - tail_q(n));
            assert!(
                beyond >= 10.0 - 1e-9,
                "{n} samples leave {beyond} beyond the tail percentile"
            );
        }
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert!((tail(&v) - 380.05).abs() < 1e-9);
    }

    #[test]
    fn warmup_discard_drops_the_first_tenth_rounded_up() {
        let v: Vec<f64> = (0..25).map(f64::from).collect();
        assert_eq!(after_warmup(&v, 0.10)[0], 3.0);
        assert_eq!(after_warmup(&v, 0.0).len(), 25);
        assert!(after_warmup(&v[..1], 1.0).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}

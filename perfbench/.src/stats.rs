//! Order statistics over timing samples.

/// The `q`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks. Returns NaN for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the default
/// "exclusive" method, which extrapolates for samples under four). A
/// single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len() as i64;
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = len + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The highest of the percentiles 99, 90 and 75 that leaves at least ten
/// samples above it, or `None` when the sample is too small for any.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [99.0, 90.0, 75.0]
        .into_iter()
        .find(|q| samples.len() as f64 * (100.0 - q) / 100.0 >= 10.0)
        .map(|q| (q, percentile(samples, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert!((percentile(&s, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail_percentile(&s), None);
        let s: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail_percentile(&s).map(|(q, _)| q), Some(75.0));
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s).map(|(q, _)| q), Some(90.0));
    }
}

//! Summary statistics: nearest-rank percentiles with a sample-count rule,
//! and quartiles computed exactly as Python's `statistics.quantiles`.

/// Samples that must lie above a reported percentile: a tail percentile
/// resting on fewer samples says more about one outlier than about the
/// system.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Samples strictly above the `p`-th percentile's rank among `n` samples.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Smallest sample count whose `p`-th percentile has [`MIN_BEYOND`]
/// samples above it (100 for the p90).
pub fn min_samples(p: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("p < 100 has a finite minimum")
}

/// Nearest-rank `p`-th percentile of `values`, or an error naming the
/// sample count when fewer than [`MIN_BEYOND`] samples lie above it
/// (the median, `p = 50`, needs only one sample).
pub fn percentile(values: &[f64], p: u32) -> Result<f64, String> {
    if values.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    if p > 50 && beyond(values.len(), p) < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has {} beyond it; needs {MIN_BEYOND} ({} samples)",
            values.len(),
            beyond(values.len(), p),
            min_samples(p)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(sorted.len(), p) - 1])
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, median, q3)` by Python's default `statistics.quantiles(values,
/// n=4)` (the "exclusive" method), so spreads printed here match the ones
/// the bounds are checked with.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Python's `statistics.median` (NaN for no values).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(f64::NAN, |(_, q2, _)| q2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Ok(90.0));
        assert_eq!(percentile(&v, 50), Ok(50.0));
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&short, 90).unwrap_err();
        assert!(err.contains("99 samples"), "{err}");
        assert_eq!(percentile(&[3.0], 50), Ok(3.0));
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Ok(180.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Expected values from CPython's statistics.quantiles(data, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        let odd = [0.9, 1.4, 1.1, 1.0, 1.3];
        let (q1, q2, q3) = quartiles(&odd).unwrap();
        assert!((q1 - 0.95).abs() < 1e-12 && (q2 - 1.1).abs() < 1e-12);
        assert!((q3 - 1.35).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

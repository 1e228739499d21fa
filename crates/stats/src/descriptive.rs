//! Descriptive statistics over sample slices.

/// Arithmetic mean; 0 for an empty slice (documented convention — callers
/// in this workspace never aggregate empty sets on purpose).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`).
pub fn population_variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (divides by `n`) — the paper's slack
/// standard-deviation metric uses this form.
pub fn population_std(xs: &[f64]) -> f64 {
    population_variance(xs).sqrt()
}

/// Sample variance (divides by `n − 1`); 0 for fewer than two samples.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Minimum (`+∞` for an empty slice).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum (`−∞` for an empty slice).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The `p`-quantile by linear interpolation on the order statistics
/// (type-7, the R/NumPy default).
///
/// # Panics
/// Panics on an empty slice or `p ∉ [0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    let mut sorted = xs.to_vec();
    // `total_cmp` keeps NaN inputs from panicking mid-study: NaNs sort to
    // the top and propagate into the interpolation instead of aborting.
    sorted.sort_by(f64::total_cmp);
    let h = p * (sorted.len() - 1) as f64;
    let i = h.floor() as usize;
    let frac = h - i as f64;
    if i + 1 < sorted.len() {
        sorted[i] * (1.0 - frac) + sorted[i + 1] * frac
    } else {
        sorted[i]
    }
}

/// Median (0.5-quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(population_variance(&xs), 4.0);
        assert_eq!(population_std(&xs), 2.0);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(population_std(&[]), 0.0);
        assert_eq!(min(&[]), f64::INFINITY);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }
}

//! Descriptive statistics for performance-distribution reporting.

use rsm_linalg::tol;

/// Arithmetic mean (`0.0` for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance about the sample mean (`0.0` for fewer than two
/// points).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample skewness (third standardized moment); `0.0` if degenerate.
pub fn skewness(xs: &[f64]) -> f64 {
    let s = std_dev(xs);
    if tol::exactly_zero(s) || xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / xs.len() as f64
}

/// Excess kurtosis (fourth standardized moment minus 3); `0.0` if
/// degenerate.
pub fn excess_kurtosis(xs: &[f64]) -> f64 {
    let s = std_dev(xs);
    if tol::exactly_zero(s) || xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| ((x - m) / s).powi(4)).sum::<f64>() / xs.len() as f64 - 3.0
}

/// Empirical quantile by linear interpolation of the sorted sample.
///
/// `q` is clamped to `[0, 1]`. Returns `f64::NAN` for empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Pearson correlation coefficient of two equally-long samples;
/// `0.0` if either is degenerate.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation: length mismatch");
    let (sx, sy) = (std_dev(xs), std_dev(ys));
    if tol::exactly_zero(sx) || tol::exactly_zero(sy) || xs.is_empty() {
        return 0.0;
    }
    let (mx, my) = (mean(xs), mean(ys));
    let cov = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64;
    cov / (sx * sy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_var_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-15);
        assert!((variance(&xs) - 4.0).abs() < 1e-15);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(skewness(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(excess_kurtosis(&[3.0, 3.0]), 0.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn symmetric_sample_has_zero_skew() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&xs).abs() < 1e-15);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-15);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-15);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-15);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), 1.0);
        assert_eq!(quantile(&xs, 2.0), 2.0);
    }

    #[test]
    fn correlation_of_linear_relation() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let yneg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &yneg) + 1.0).abs() < 1e-12);
    }
}

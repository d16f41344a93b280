//! Descriptive statistics over slices.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0 for slices shorter than 2.
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

/// Minimum; `None` for an empty slice, NaNs are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .filter(|x| !x.is_nan())
        .copied()
        .fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.min(x),
            })
        })
}

/// Maximum; `None` for an empty slice, NaNs are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .filter(|x| !x.is_nan())
        .copied()
        .fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.max(x),
            })
        })
}

/// `(min, max)` over a slice; `None` if empty or all-NaN.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    Some((min(xs)?, max(xs)?))
}

/// Population covariance of two equal-length slices.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64
}

/// Pearson correlation coefficient; 0 when either side is constant.
///
/// The paper's §II motivates the selection mechanism by observing that the
/// same feature pair can correlate *positively* in one node and *negatively*
/// in another; this function is how the examples surface that.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx == 0.0 || sy == 0.0 {
        return 0.0;
    }
    covariance(xs, ys) / (sx * sy)
}

/// Ordinary-least-squares slope and intercept of `y` on `x`.
///
/// Returns `(slope, intercept)`; slope is 0 when `x` is constant.
pub fn ols_line(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let vx = variance(xs);
    if vx == 0.0 {
        return (0.0, mean(ys));
    }
    let slope = covariance(xs, ys) / vx;
    let intercept = mean(ys) - slope * mean(xs);
    (slope, intercept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn min_max_ignores_nans() {
        let xs = [f64::NAN, 2.0, -1.0, f64::NAN];
        assert_eq!(min_max(&xs), Some((-1.0, 2.0)));
        assert_eq!(min_max(&[f64::NAN]), None);
    }

    #[test]
    fn pearson_detects_sign() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0; 4]), 0.0);
    }

    #[test]
    fn ols_line_recovers_exact_linear_relation() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let (slope, intercept) = ols_line(&xs, &ys);
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ols_line_constant_x_degenerates_to_mean() {
        let (slope, intercept) = ols_line(&[2.0, 2.0], &[1.0, 3.0]);
        assert_eq!(slope, 0.0);
        assert_eq!(intercept, 2.0);
    }
}

//! Feature scalers with fit/transform/inverse-transform.
//!
//! The paper standardises per-node features before clustering and model
//! training (the Keras pipelines it replaces do the same). Both scalers
//! operate column-wise on a [`Matrix`].

use crate::stats;
use crate::Matrix;

/// Column-wise standard-score scaler: `x' = (x - mean) / std`.
///
/// Columns with zero standard deviation are passed through shifted by their
/// mean only, so constant features do not produce NaNs.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler to a data matrix.
    ///
    /// # Panics
    /// Panics if `data` has no rows.
    pub fn fit(data: &Matrix) -> Self {
        assert!(
            data.rows() > 0,
            "cannot fit StandardScaler on an empty matrix"
        );
        Self {
            means: stats::column_means(data),
            stds: stats::column_std_devs(data),
        }
    }

    /// Per-column means captured at fit time.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations captured at fit time.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Transforms a matrix into standard-score space.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(
            data.cols(),
            self.means.len(),
            "scaler fitted on different width"
        );
        let mut out = data.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for ((x, &mu), &sd) in row.iter_mut().zip(&self.means).zip(&self.stds) {
                *x = if sd > 0.0 { (*x - mu) / sd } else { *x - mu };
            }
        }
        out
    }

    /// Inverse of [`StandardScaler::transform`].
    pub fn inverse_transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(
            data.cols(),
            self.means.len(),
            "scaler fitted on different width"
        );
        let mut out = data.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for ((x, &mu), &sd) in row.iter_mut().zip(&self.means).zip(&self.stds) {
                *x = if sd > 0.0 { *x * sd + mu } else { *x + mu };
            }
        }
        out
    }

    /// Transforms a single value in column `col`.
    pub fn transform_value(&self, col: usize, x: f64) -> f64 {
        let sd = self.stds[col];
        if sd > 0.0 {
            (x - self.means[col]) / sd
        } else {
            x - self.means[col]
        }
    }

    /// Inverse-transforms a single value in column `col`.
    pub fn inverse_value(&self, col: usize, x: f64) -> f64 {
        let sd = self.stds[col];
        if sd > 0.0 {
            x * sd + self.means[col]
        } else {
            x + self.means[col]
        }
    }
}

/// Column-wise min-max scaler mapping each column onto `[0, 1]`.
///
/// Constant columns map to `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    bounds: Vec<(f64, f64)>,
}

impl MinMaxScaler {
    /// Fits the scaler to a data matrix.
    ///
    /// # Panics
    /// Panics if `data` has no rows.
    pub fn fit(data: &Matrix) -> Self {
        Self {
            bounds: stats::column_min_max(data),
        }
    }

    /// Per-column `(min, max)` captured at fit time.
    pub fn bounds(&self) -> &[(f64, f64)] {
        &self.bounds
    }

    /// Transforms a matrix onto `[0, 1]` per column (values outside the
    /// fitted range extrapolate linearly outside `[0, 1]`).
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(
            data.cols(),
            self.bounds.len(),
            "scaler fitted on different width"
        );
        let mut out = data.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (x, &(lo, hi)) in row.iter_mut().zip(&self.bounds) {
                let span = hi - lo;
                *x = if span > 0.0 { (*x - lo) / span } else { 0.0 };
            }
        }
        out
    }

    /// Inverse of [`MinMaxScaler::transform`].
    pub fn inverse_transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(
            data.cols(),
            self.bounds.len(),
            "scaler fitted on different width"
        );
        let mut out = data.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (x, &(lo, hi)) in row.iter_mut().zip(&self.bounds) {
                let span = hi - lo;
                *x = if span > 0.0 { *x * span + lo } else { lo };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 200.0]])
    }

    #[test]
    fn standard_scaler_centres_and_normalises() {
        let m = sample();
        let sc = StandardScaler::fit(&m);
        let t = sc.transform(&m);
        let means = stats::column_means(&t);
        let stds = stats::column_std_devs(&t);
        for mu in means {
            assert!(mu.abs() < 1e-12);
        }
        for sd in stds {
            assert!((sd - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standard_scaler_round_trips() {
        let m = sample();
        let sc = StandardScaler::fit(&m);
        let back = sc.inverse_transform(&sc.transform(&m));
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn standard_scaler_handles_constant_columns() {
        let m = Matrix::from_rows(&[vec![7.0], vec![7.0]]);
        let sc = StandardScaler::fit(&m);
        let t = sc.transform(&m);
        assert!(t.all_finite());
        assert_eq!(t.as_slice(), &[0.0, 0.0]);
        assert_eq!(sc.inverse_transform(&t).as_slice(), &[7.0, 7.0]);
    }

    #[test]
    fn scalar_value_paths_match_matrix_paths() {
        let m = sample();
        let sc = StandardScaler::fit(&m);
        let t = sc.transform(&m);
        assert!((sc.transform_value(0, 3.0) - t[(1, 0)]).abs() < 1e-12);
        assert!((sc.inverse_value(0, t[(1, 0)]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_scaler_maps_to_unit_interval() {
        let m = sample();
        let sc = MinMaxScaler::fit(&m);
        let t = sc.transform(&m);
        assert_eq!(stats::column_min_max(&t), vec![(0.0, 1.0), (0.0, 1.0)]);
    }

    #[test]
    fn minmax_scaler_round_trips() {
        let m = sample();
        let sc = MinMaxScaler::fit(&m);
        let back = sc.inverse_transform(&sc.transform(&m));
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn minmax_scaler_constant_column_is_stable() {
        let m = Matrix::from_rows(&[vec![4.0], vec![4.0]]);
        let sc = MinMaxScaler::fit(&m);
        let t = sc.transform(&m);
        assert_eq!(t.as_slice(), &[0.0, 0.0]);
        assert_eq!(sc.inverse_transform(&t).as_slice(), &[4.0, 4.0]);
    }
}

//! Linear regression — the paper's "LR" model (Table III: Dense 1).

use crate::data::DenseDataset;
use crate::model::Regressor;

/// `ŷ = w · x + b`, trained by gradient descent.
///
/// Weights start at zero, which makes LR training deterministic with no
/// seed at all and mirrors Keras' default for a single dense unit closely
/// enough for the paper's purposes.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    w: Vec<f64>,
    b: f64,
}

impl LinearRegression {
    /// A zero-initialised model for `dim` input features.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "linear regression needs at least one feature");
        Self {
            w: vec![0.0; dim],
            b: 0.0,
        }
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Feature coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.w
    }

    /// Intercept.
    pub fn intercept(&self) -> f64 {
        self.b
    }

    /// Closed-form ordinary-least-squares fit for a *single* feature,
    /// used by tests and by the heterogeneity probe (Fig. 1/2 replicas).
    ///
    /// # Panics
    /// Panics if the dataset is empty or not 1-dimensional.
    pub fn fit_ols_1d(data: &DenseDataset) -> Self {
        assert_eq!(data.dim(), 1, "fit_ols_1d requires exactly one feature");
        assert!(!data.is_empty(), "fit_ols_1d on an empty dataset");
        let xs = data.x().col(0);
        let (slope, intercept) = linalg::stats::ols_line(&xs, data.y());
        Self {
            w: vec![slope],
            b: intercept,
        }
    }
}

impl Regressor for LinearRegression {
    fn predict_row(&self, x: &[f64]) -> f64 {
        linalg::ops::dot(&self.w, x) + self.b
    }

    fn num_weights(&self) -> usize {
        self.w.len() + 1
    }

    fn weights(&self) -> Vec<f64> {
        let mut out = self.w.clone();
        out.push(self.b);
        out
    }

    fn set_weights(&mut self, w: &[f64]) {
        assert_eq!(w.len(), self.num_weights(), "weight vector length mismatch");
        let (coef, rest) = w.split_at(self.w.len());
        self.w.copy_from_slice(coef);
        self.b = rest[0];
    }

    fn grad_rows(&self, data: &DenseDataset, rows: &[usize], grad: &mut [f64]) -> f64 {
        assert!(!rows.is_empty(), "gradient of an empty batch");
        assert_eq!(
            data.dim(),
            self.dim(),
            "batch width {} != model dim {}",
            data.dim(),
            self.dim()
        );
        assert_eq!(
            grad.len(),
            self.num_weights(),
            "gradient buffer length mismatch"
        );
        grad.fill(0.0);
        let (gw, gb) = grad.split_at_mut(self.w.len());
        let mut total_loss = 0.0;
        for &i in rows {
            let row = data.x().row(i);
            let y = data.y()[i];
            let e = self.predict_row(row) - y;
            total_loss += e * e;
            let g = 2.0 * e;
            linalg::ops::axpy(g, row, gw);
            gb[0] += g;
        }
        let inv = 1.0 / rows.len() as f64;
        linalg::ops::scale(inv, grad);
        total_loss * inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::full_grad;
    use crate::optim::OptimizerKind;
    use linalg::Matrix;

    fn linear_data(n: usize, w: &[f64], b: f64, seed: u64) -> DenseDataset {
        let mut rng = linalg::rng::rng_for(seed, 77);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                w.iter()
                    .map(|_| linalg::rng::normal(&mut rng, 0.0, 1.0))
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| linalg::ops::dot(w, r) + b).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn gradient_descent_recovers_exact_linear_map() {
        let data = linear_data(200, &[2.0, -1.5], 0.7, 5);
        let mut model = LinearRegression::new(2);
        let mut opt = OptimizerKind::Sgd { lr: 0.1 }.build(model.num_weights());
        for _ in 0..500 {
            let (grad, _) = full_grad(&model, &data);
            let mut w = model.weights();
            opt.step(&mut w, &grad);
            model.set_weights(&w);
        }
        assert!((model.coefficients()[0] - 2.0).abs() < 1e-3);
        assert!((model.coefficients()[1] + 1.5).abs() < 1e-3);
        assert!((model.intercept() - 0.7).abs() < 1e-3);
        assert!(model.evaluate(&data) < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let data = linear_data(20, &[1.0, 2.0, 3.0], -1.0, 9);
        let mut model = LinearRegression::new(3);
        model.set_weights(&[0.5, -0.5, 1.0, 0.2]);
        let (grad, _) = full_grad(&model, &data);
        let eps = 1e-6;
        let base = model.weights();
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let mut mp = model.clone();
            mp.set_weights(&plus);
            let mut mm = model.clone();
            mm.set_weights(&minus);
            let num = (mp.evaluate(&data) - mm.evaluate(&data)) / (2.0 * eps);
            assert!(
                (num - grad[i]).abs() < 1e-4,
                "param {i}: {num} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn ols_1d_matches_stats_line() {
        let data = linear_data(50, &[3.0], 2.0, 3);
        let model = LinearRegression::fit_ols_1d(&data);
        assert!((model.coefficients()[0] - 3.0).abs() < 1e-9);
        assert!((model.intercept() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weights_round_trip() {
        let mut m = LinearRegression::new(3);
        m.set_weights(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.weights(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.coefficients(), &[1.0, 2.0, 3.0]);
        assert_eq!(m.intercept(), 4.0);
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn wrong_width_batch_panics() {
        let m = LinearRegression::new(2);
        let data = linear_data(5, &[1.0], 0.0, 0);
        full_grad(&m, &data);
    }

    #[test]
    fn zero_model_predicts_zero() {
        let m = LinearRegression::new(4);
        assert_eq!(m.predict_row(&[1.0, 2.0, 3.0, 4.0]), 0.0);
    }
}

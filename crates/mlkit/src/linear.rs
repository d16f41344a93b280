//! Linear regression — the paper's "LR" model (Table III: Dense 1).
//!
//! Training spends nearly all its time in two row loops: the mini-batch
//! gradient ([`Regressor::grad_rows`]) and the validation loss
//! ([`Regressor::loss_rows`]). Each is written once, generic over how
//! the feature weights are held: `[f64; D]`, a width fixed at compile
//! time, or `[f64]`, a width read at run time. Every benchmark
//! federation trains one feature, so width 1 is compiled as an array:
//! the per-row `dot` unrolls, the gradient accumulates in a register and
//! the width is checked once per call, not once per row. Every other
//! width runs the same body over slices. Both do the same float
//! operations in the same order, so the bits do not depend on which one
//! ran (`tests/train_bits.rs` pins widths 1, 2 and 5).

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

    /// Panics unless `data` is as wide as the model and `rows` is not
    /// empty.
    fn check_rows(&self, data: &DenseDataset, rows: &[usize]) {
        assert!(!rows.is_empty(), "loss or gradient of no rows");
        assert_eq!(
            data.dim(),
            self.dim(),
            "batch width {} != model dim {}",
            data.dim(),
            self.dim()
        );
    }
}

/// Row `i` of `data` as `(x, y)`, `x` exactly `d` wide.
#[inline(always)]
fn row(data: &DenseDataset, d: usize, i: usize) -> (&[f64], f64) {
    // Indexing `y` first bounds `i`, so `i * d` cannot overflow.
    let y = data.y()[i];
    (&data.x().as_slice()[i * d..][..d], y)
}

/// The descent loop: for each listed row in order, `e = w · x + b − y`,
/// then `gw += 2e · x`. Returns `(Σ e², Σ 2e)`, the summed loss and the
/// bias gradient; `gw` must start at zero.
#[inline(always)]
fn descend<W>(w: &W, b: f64, gw: &mut W, data: &DenseDataset, rows: &[usize]) -> (f64, f64)
where
    W: AsRef<[f64]> + AsMut<[f64]> + ?Sized,
{
    let (w, gw) = (w.as_ref(), gw.as_mut());
    let (mut loss, mut gb) = (0.0, 0.0);
    for &i in rows {
        let (x, y) = row(data, w.len(), i);
        let e = linalg::ops::dot(w, x) + b - y;
        loss += e * e;
        let g = 2.0 * e;
        linalg::ops::axpy(g, x, gw);
        gb += g;
    }
    (loss, gb)
}

/// The validation loop: `Σ e²` over the listed rows, in order.
#[inline(always)]
fn squared_error<W>(w: &W, b: f64, data: &DenseDataset, rows: &[usize]) -> f64
where
    W: AsRef<[f64]> + ?Sized,
{
    let w = w.as_ref();
    let mut loss = 0.0;
    for &i in rows {
        let (x, y) = row(data, w.len(), i);
        let e = linalg::ops::dot(w, x) + b - y;
        loss += e * e;
    }
    loss
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
        self.check_rows(data, rows);
        assert_eq!(
            grad.len(),
            self.num_weights(),
            "gradient buffer length mismatch"
        );
        let (gw, gb) = grad.split_at_mut(self.w.len());
        let (loss, g) = match <&[f64; 1]>::try_from(self.w.as_slice()) {
            Ok(w) => {
                let mut acc = [0.0; 1];
                let sums = descend(w, self.b, &mut acc, data, rows);
                gw.copy_from_slice(&acc);
                sums
            }
            Err(_) => {
                gw.fill(0.0);
                descend(self.w.as_slice(), self.b, gw, data, rows)
            }
        };
        gb[0] = g;
        let inv = 1.0 / rows.len() as f64;
        linalg::ops::scale(inv, grad);
        loss * inv
    }

    fn loss_rows(&self, data: &DenseDataset, rows: &[usize]) -> f64 {
        self.check_rows(data, rows);
        let loss = match <&[f64; 1]>::try_from(self.w.as_slice()) {
            Ok(w) => squared_error(w, self.b, data, rows),
            Err(_) => squared_error(self.w.as_slice(), self.b, data, rows),
        };
        loss / rows.len() as f64
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
        let w = model.weights();
        assert!((w[0] - 2.0).abs() < 1e-3);
        assert!((w[1] + 1.5).abs() < 1e-3);
        assert!((w[2] - 0.7).abs() < 1e-3);
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
    fn weights_round_trip() {
        let mut m = LinearRegression::new(3);
        m.set_weights(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.weights(), vec![1.0, 2.0, 3.0, 4.0]);
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

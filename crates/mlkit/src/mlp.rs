//! One-hidden-layer MLP — the paper's "NN" model (Table III: Dense 64,
//! ReLU, MSE).

use std::cell::RefCell;

use crate::data::DenseDataset;
use crate::model::Regressor;

thread_local! {
    /// Hidden activations of the sample being forwarded: one buffer per
    /// thread, so neither a prediction nor a gradient step allocates per
    /// sample.
    static HIDDEN: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's hidden-activation buffer, `hidden` long.
fn with_hidden<R>(hidden: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    HIDDEN.with(|h| {
        let mut h = h.borrow_mut();
        h.resize(hidden, 0.0);
        f(&mut h)
    })
}

/// `ŷ = w2 · relu(W1 x + b1) + b2`.
///
/// Hidden weights use He-uniform initialisation (the right scaling for
/// ReLU and what Keras does by default up to the distribution family),
/// driven by an explicit seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    /// Hidden weights, row h = weights of hidden unit h (hidden × dim).
    w1: Vec<f64>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
}

impl Mlp {
    /// A deterministically-initialised MLP.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `hidden == 0`.
    pub fn new(dim: usize, hidden: usize, seed: u64) -> Self {
        assert!(dim > 0, "mlp needs at least one input feature");
        assert!(hidden > 0, "mlp needs at least one hidden unit");
        use linalg::rng::Rng;
        let mut rng = linalg::rng::rng_for(seed, 0x4E_E7);
        // He-uniform bound for the hidden layer; Glorot-ish for output.
        let limit1 = (6.0 / dim as f64).sqrt();
        let limit2 = (6.0 / (hidden + 1) as f64).sqrt();
        let w1 = (0..hidden * dim)
            .map(|_| rng.gen_range(-limit1..limit1))
            .collect();
        let w2 = (0..hidden)
            .map(|_| rng.gen_range(-limit2..limit2))
            .collect();
        Self {
            dim,
            hidden,
            w1,
            b1: vec![0.0; hidden],
            w2,
            b2: 0.0,
        }
    }

    /// Forward pass: writes the hidden activations into `h` and returns
    /// the output.
    fn forward(&self, x: &[f64], h: &mut [f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        for (j, hj) in h.iter_mut().enumerate() {
            let row = &self.w1[j * self.dim..(j + 1) * self.dim];
            let z = linalg::ops::dot(row, x) + self.b1[j];
            *hj = z.max(0.0); // ReLU
        }
        linalg::ops::dot(&self.w2, h) + self.b2
    }
}

impl Regressor for Mlp {
    fn predict_row(&self, x: &[f64]) -> f64 {
        with_hidden(self.hidden, |h| self.forward(x, h))
    }

    fn num_weights(&self) -> usize {
        self.hidden * self.dim + self.hidden + self.hidden + 1
    }

    fn weights(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_weights());
        out.extend_from_slice(&self.w1);
        out.extend_from_slice(&self.b1);
        out.extend_from_slice(&self.w2);
        out.push(self.b2);
        out
    }

    fn set_weights(&mut self, w: &[f64]) {
        assert_eq!(w.len(), self.num_weights(), "weight vector length mismatch");
        let (w1, rest) = w.split_at(self.hidden * self.dim);
        let (b1, rest) = rest.split_at(self.hidden);
        let (w2, b2) = rest.split_at(self.hidden);
        self.w1.copy_from_slice(w1);
        self.b1.copy_from_slice(b1);
        self.w2.copy_from_slice(w2);
        self.b2 = b2[0];
    }

    fn grad_rows(&self, data: &DenseDataset, rows: &[usize], grad: &mut [f64]) -> f64 {
        assert!(!rows.is_empty(), "gradient of an empty batch");
        assert_eq!(
            data.dim(),
            self.dim,
            "batch width {} != model dim {}",
            data.dim(),
            self.dim
        );
        assert_eq!(
            grad.len(),
            self.num_weights(),
            "gradient buffer length mismatch"
        );
        grad.fill(0.0);
        let (g_w1, rest) = grad.split_at_mut(self.w1.len());
        let (g_b1, rest) = rest.split_at_mut(self.hidden);
        let (g_w2, g_b2) = rest.split_at_mut(self.hidden);
        let mut total_loss = 0.0;

        with_hidden(self.hidden, |h| {
            for &i in rows {
                let x = data.x().row(i);
                let y = data.y()[i];
                let e = self.forward(x, h) - y;
                total_loss += e * e;
                let g_out = 2.0 * e;
                // Output layer.
                linalg::ops::axpy(g_out, h, g_w2);
                g_b2[0] += g_out;
                // Hidden layer: dL/dz_j = g_out * w2_j * 1[h_j > 0].
                for j in 0..self.hidden {
                    if h[j] > 0.0 {
                        let gz = g_out * self.w2[j];
                        g_b1[j] += gz;
                        let row = &mut g_w1[j * self.dim..(j + 1) * self.dim];
                        linalg::ops::axpy(gz, x, row);
                    }
                }
            }
        });

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

    fn toy_nonlinear(n: usize, seed: u64) -> DenseDataset {
        // y = x0^2 + 0.5 x1, a gentle non-linearity an MLP can fit but a
        // linear model cannot.
        let mut rng = linalg::rng::rng_for(seed, 88);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    linalg::rng::normal(&mut rng, 0.0, 1.0),
                    linalg::rng::normal(&mut rng, 0.0, 1.0),
                ]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0] + 0.5 * r[1]).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    fn train_full_batch(model: &mut Mlp, data: &DenseDataset, lr: f64, steps: usize) {
        let mut opt = OptimizerKind::adam(lr).build(model.num_weights());
        for _ in 0..steps {
            let (grad, _) = full_grad(model, data);
            let mut w = model.weights();
            opt.step(&mut w, &grad);
            model.set_weights(&w);
        }
    }

    #[test]
    fn fits_a_nonlinear_function_better_than_linear() {
        let data = toy_nonlinear(300, 3);
        let mut mlp = Mlp::new(2, 24, 7);
        train_full_batch(&mut mlp, &data, 0.01, 800);
        let mlp_loss = mlp.evaluate(&data);

        let mut lin = crate::linear::LinearRegression::new(2);
        let mut opt = OptimizerKind::Sgd { lr: 0.05 }.build(lin.num_weights());
        for _ in 0..800 {
            let (grad, _) = full_grad(&lin, &data);
            let mut w = lin.weights();
            opt.step(&mut w, &grad);
            lin.set_weights(&w);
        }
        let lin_loss = lin.evaluate(&data);
        assert!(
            mlp_loss < lin_loss * 0.5,
            "mlp {mlp_loss} should beat linear {lin_loss} on a quadratic target"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let data = toy_nonlinear(10, 4);
        let model = Mlp::new(2, 5, 11);
        let (grad, _) = full_grad(&model, &data);
        let base = model.weights();
        let eps = 1e-6;
        for i in (0..base.len()).step_by(3) {
            let mut plus = model.clone();
            let mut wp = base.clone();
            wp[i] += eps;
            plus.set_weights(&wp);
            let mut minus = model.clone();
            let mut wm = base.clone();
            wm[i] -= eps;
            minus.set_weights(&wm);
            let num = (plus.evaluate(&data) - minus.evaluate(&data)) / (2.0 * eps);
            assert!(
                (num - grad[i]).abs() < 1e-4,
                "param {i}: {num} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let a = Mlp::new(3, 8, 42);
        let b = Mlp::new(3, 8, 42);
        let c = Mlp::new(3, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn weights_round_trip() {
        let a = Mlp::new(3, 4, 1);
        let mut b = Mlp::new(3, 4, 2);
        b.set_weights(&a.weights());
        assert_eq!(a, b);
        assert_eq!(a.num_weights(), 3 * 4 + 4 + 4 + 1);
    }

    #[test]
    fn relu_kills_negative_preactivations() {
        let mut m = Mlp::new(1, 1, 0);
        // w1 = 1, b1 = 0, w2 = 1, b2 = 0 -> relu(x)
        m.set_weights(&[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(m.predict_row(&[2.0]), 2.0);
        assert_eq!(m.predict_row(&[-2.0]), 0.0);
    }
}

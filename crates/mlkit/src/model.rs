//! The regressor abstraction shared by the training loops and the
//! federated aggregation code.

use linalg::Matrix;

use crate::data::DenseDataset;
use crate::linear::LinearRegression;
use crate::mlp::Mlp;

/// A trainable regression model with a flat parameter vector.
///
/// The flat vector view is what federated weight aggregation operates on:
/// the leader averages `weights()` across participants and pushes the
/// result back with `set_weights`.
pub trait Regressor {
    /// Predicts a single sample.
    fn predict_row(&self, x: &[f64]) -> f64;

    /// Predicts every row of a feature matrix.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.row_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of trainable parameters.
    fn num_weights(&self) -> usize;

    /// Copies the parameters into a flat vector.
    fn weights(&self) -> Vec<f64>;

    /// Overwrites the parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `w.len() != num_weights()`.
    fn set_weights(&mut self, w: &[f64]);

    /// Writes the mean gradient of the squared error over the listed
    /// `rows` of `data` into `grad` (flat, in [`weights`](Self::weights)
    /// order) and returns the mean squared error. Rows are accumulated in
    /// the order listed; nothing is copied or allocated.
    ///
    /// # Panics
    /// Panics if `rows` is empty, `data`'s width differs from the model's
    /// input dimension or `grad.len() != num_weights()`.
    fn grad_rows(&self, data: &DenseDataset, rows: &[usize], grad: &mut [f64]) -> f64;

    /// Mean squared error over the listed `rows` of `data` — what
    /// [`evaluate`](Self::evaluate) gives on a copy of those rows, summed
    /// the same way, without the copy or a predictions vector.
    ///
    /// # Panics
    /// Panics if `rows` is empty.
    fn loss_rows(&self, data: &DenseDataset, rows: &[usize]) -> f64 {
        assert!(!rows.is_empty(), "loss of no rows");
        rows.iter()
            .map(|&i| {
                let e = self.predict_row(data.x().row(i)) - data.y()[i];
                e * e
            })
            .sum::<f64>()
            / rows.len() as f64
    }

    /// Mean squared error over a dataset without computing gradients.
    fn evaluate(&self, data: &DenseDataset) -> f64 {
        crate::metrics::mse(&self.predict(data.x()), data.y())
    }
}

/// Which of the paper's two architectures to build (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// "LR": a single dense unit — linear regression.
    Linear,
    /// "NN": one hidden dense layer of `hidden` ReLU units (64 in the
    /// paper) feeding a linear output unit.
    Neural {
        /// Hidden-layer width.
        hidden: usize,
    },
}

impl ModelKind {
    /// The paper's NN architecture (Dense 64, ReLU).
    pub const PAPER_NN: ModelKind = ModelKind::Neural { hidden: 64 };

    /// Instantiates a model for `dim` input features with deterministic
    /// weight initialisation.
    pub fn build(&self, dim: usize, seed: u64) -> Model {
        match *self {
            ModelKind::Linear => Model::Linear(LinearRegression::new(dim)),
            ModelKind::Neural { hidden } => Model::Neural(Mlp::new(dim, hidden, seed)),
        }
    }
}

/// A clonable, serialisable regressor: one of the two paper architectures.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    /// Linear regression.
    Linear(LinearRegression),
    /// One-hidden-layer MLP.
    Neural(Mlp),
}

impl Regressor for Model {
    fn predict_row(&self, x: &[f64]) -> f64 {
        match self {
            Model::Linear(m) => m.predict_row(x),
            Model::Neural(m) => m.predict_row(x),
        }
    }

    fn num_weights(&self) -> usize {
        match self {
            Model::Linear(m) => m.num_weights(),
            Model::Neural(m) => m.num_weights(),
        }
    }

    fn weights(&self) -> Vec<f64> {
        match self {
            Model::Linear(m) => m.weights(),
            Model::Neural(m) => m.weights(),
        }
    }

    fn set_weights(&mut self, w: &[f64]) {
        match self {
            Model::Linear(m) => m.set_weights(w),
            Model::Neural(m) => m.set_weights(w),
        }
    }

    fn grad_rows(&self, data: &DenseDataset, rows: &[usize], grad: &mut [f64]) -> f64 {
        match self {
            Model::Linear(m) => m.grad_rows(data, rows, grad),
            Model::Neural(m) => m.grad_rows(data, rows, grad),
        }
    }

    fn loss_rows(&self, data: &DenseDataset, rows: &[usize]) -> f64 {
        match self {
            Model::Linear(m) => m.loss_rows(data, rows),
            Model::Neural(m) => m.loss_rows(data, rows),
        }
    }
}

/// The full-batch gradient and mean MSE of `model` over every row of
/// `data`.
#[cfg(test)]
pub(crate) fn full_grad(model: &impl Regressor, data: &DenseDataset) -> (Vec<f64>, f64) {
    let rows: Vec<usize> = (0..data.len()).collect();
    let mut grad = vec![0.0; model.num_weights()];
    let loss = model.grad_rows(data, &rows, &mut grad);
    (grad, loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_build() {
        let lr = ModelKind::Linear.build(3, 0);
        assert!(matches!(lr, Model::Linear(_)));
        assert_eq!(lr.num_weights(), 3 + 1);
        let nn = ModelKind::PAPER_NN.build(3, 0);
        assert!(matches!(nn, Model::Neural(_)));
        assert_eq!(nn.num_weights(), 64 * 3 + 64 + 64 + 1);
    }

    #[test]
    fn loss_rows_is_evaluate_on_a_copy_of_the_rows() {
        let mut rng = linalg::rng::rng_for(4, 12);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                (0..3)
                    .map(|_| linalg::rng::normal(&mut rng, 0.0, 1.0))
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] - 2.0 * r[2]).collect();
        let wide = DenseDataset::new(Matrix::from_rows(&rows), y.clone());
        let narrow_rows: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[1]]).collect();
        let narrow = DenseDataset::new(Matrix::from_rows(&narrow_rows), y);
        let picked = [7, 3, 3, 31, 0, 18];
        for (data, kind) in [
            (&narrow, ModelKind::Linear),
            (&wide, ModelKind::Linear),
            (&wide, ModelKind::Neural { hidden: 5 }),
        ] {
            let mut model = kind.build(data.dim(), 8);
            let w: Vec<f64> = (0..model.num_weights())
                .map(|k| 0.1 * k as f64 - 0.3)
                .collect();
            model.set_weights(&w);
            let copy = model.evaluate(&data.select(&picked));
            assert_eq!(model.loss_rows(data, &picked).to_bits(), copy.to_bits());
        }
    }

    #[test]
    fn weight_round_trip_preserves_predictions() {
        let mut a = ModelKind::Neural { hidden: 8 }.build(2, 42);
        let b = ModelKind::Neural { hidden: 8 }.build(2, 43);
        let x = [0.3, -0.7];
        let before = b.predict_row(&x);
        a.set_weights(&b.weights());
        assert_eq!(a.predict_row(&x), before);
    }
}

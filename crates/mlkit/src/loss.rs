//! Regression losses with gradients w.r.t. the prediction.

/// A pointwise regression loss.
///
/// Table III uses MSE for both models; MAE and Huber are provided for the
/// extension benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    /// Mean squared error, `(ŷ − y)²` per sample (averaged over a batch).
    Mse,
    /// Mean absolute error.
    Mae,
    /// Huber loss with transition point `delta`.
    Huber {
        /// Quadratic-to-linear transition point.
        delta: f64,
    },
}

impl Loss {
    /// Loss value for one sample.
    pub fn value(&self, prediction: f64, target: f64) -> f64 {
        let e = prediction - target;
        match *self {
            Loss::Mse => e * e,
            Loss::Mae => e.abs(),
            Loss::Huber { delta } => {
                if e.abs() <= delta {
                    0.5 * e * e
                } else {
                    delta * (e.abs() - 0.5 * delta)
                }
            }
        }
    }

    /// `∂loss/∂prediction` for one sample.
    pub fn gradient(&self, prediction: f64, target: f64) -> f64 {
        let e = prediction - target;
        match *self {
            Loss::Mse => 2.0 * e,
            Loss::Mae => {
                if e > 0.0 {
                    1.0
                } else if e < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            Loss::Huber { delta } => e.clamp(-delta, delta),
        }
    }

    /// Mean loss over a batch.
    ///
    /// # Panics
    /// Panics if the slices differ in length or are empty.
    pub fn mean(&self, predictions: &[f64], targets: &[f64]) -> f64 {
        assert_eq!(predictions.len(), targets.len(), "loss length mismatch");
        assert!(!predictions.is_empty(), "mean loss of an empty batch");
        predictions
            .iter()
            .zip(targets)
            .map(|(&p, &t)| self.value(p, t))
            .sum::<f64>()
            / predictions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_value_and_gradient() {
        assert_eq!(Loss::Mse.value(3.0, 1.0), 4.0);
        assert_eq!(Loss::Mse.gradient(3.0, 1.0), 4.0);
        assert_eq!(Loss::Mse.gradient(1.0, 3.0), -4.0);
        assert_eq!(Loss::Mse.value(1.0, 1.0), 0.0);
    }

    #[test]
    fn mae_value_and_gradient() {
        assert_eq!(Loss::Mae.value(3.0, 1.0), 2.0);
        assert_eq!(Loss::Mae.gradient(3.0, 1.0), 1.0);
        assert_eq!(Loss::Mae.gradient(-3.0, 1.0), -1.0);
        assert_eq!(Loss::Mae.gradient(1.0, 1.0), 0.0);
    }

    #[test]
    fn huber_transitions_at_delta() {
        let h = Loss::Huber { delta: 1.0 };
        assert_eq!(h.value(0.5, 0.0), 0.125); // quadratic region
        assert_eq!(h.value(2.0, 0.0), 1.5); // linear region
        assert_eq!(h.gradient(0.5, 0.0), 0.5);
        assert_eq!(h.gradient(5.0, 0.0), 1.0);
        assert_eq!(h.gradient(-5.0, 0.0), -1.0);
    }

    #[test]
    fn huber_is_continuous_at_delta() {
        let h = Loss::Huber { delta: 2.0 };
        let eps = 1e-9;
        let below = h.value(2.0 - eps, 0.0);
        let above = h.value(2.0 + eps, 0.0);
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn mean_averages_batch() {
        let p = [1.0, 2.0];
        let t = [0.0, 0.0];
        assert_eq!(Loss::Mse.mean(&p, &t), 2.5);
        assert_eq!(Loss::Mae.mean(&p, &t), 1.5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        for loss in [Loss::Mse, Loss::Huber { delta: 1.3 }] {
            for (p, t) in [(0.7, 0.2), (-2.0, 1.0), (3.0, 3.5)] {
                let eps = 1e-6;
                let num = (loss.value(p + eps, t) - loss.value(p - eps, t)) / (2.0 * eps);
                let ana = loss.gradient(p, t);
                assert!(
                    (num - ana).abs() < 1e-4,
                    "{loss:?} at ({p},{t}): {num} vs {ana}"
                );
            }
        }
    }
}

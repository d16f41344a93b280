//! First-order optimisers over flat parameter vectors.

/// Optimiser configuration; [`OptimizerKind::build`] instantiates the
/// stateful [`Optimizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam (Kingma & Ba) with the usual defaults.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay (default 0.9).
        beta1: f64,
        /// Second-moment decay (default 0.999).
        beta2: f64,
        /// Numerical-stability constant.
        eps: f64,
    },
}

impl OptimizerKind {
    /// Adam with the standard moment defaults.
    pub fn adam(lr: f64) -> Self {
        OptimizerKind::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Builds the stateful optimiser for a parameter vector of length `n`.
    pub fn build(&self, n: usize) -> Optimizer {
        Optimizer {
            kind: *self,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        match *self {
            OptimizerKind::Sgd { lr } | OptimizerKind::Adam { lr, .. } => lr,
        }
    }
}

/// A stateful first-order optimiser bound to one parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimizer {
    kind: OptimizerKind,
    /// First-moment buffer (Adam only).
    m: Vec<f64>,
    /// Second-moment buffer (Adam only).
    v: Vec<f64>,
    /// Step counter (Adam bias correction).
    t: u64,
}

impl Optimizer {
    /// Applies one update `params -= f(grads)` in place.
    ///
    /// # Panics
    /// Panics if `params`/`grads` lengths differ from the build length.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(
            params.len(),
            self.m.len(),
            "optimizer built for {} params, got {}",
            self.m.len(),
            params.len()
        );
        assert_eq!(grads.len(), self.m.len(), "gradient length mismatch");
        match self.kind {
            OptimizerKind::Sgd { lr } => {
                for (p, &g) in params.iter_mut().zip(grads) {
                    *p -= lr * g;
                }
            }
            OptimizerKind::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                self.t += 1;
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                for (((p, m), v), &g) in params
                    .iter_mut()
                    .zip(&mut self.m)
                    .zip(&mut self.v)
                    .zip(grads)
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *p -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 from x = 0 with each optimiser.
    fn minimise(kind: OptimizerKind, steps: usize) -> f64 {
        let mut x = vec![0.0_f64];
        let mut opt = kind.build(1);
        for _ in 0..steps {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = minimise(OptimizerKind::Sgd { lr: 0.1 }, 200);
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = minimise(OptimizerKind::adam(0.1), 600);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn sgd_step_is_exactly_lr_times_grad() {
        let mut p = vec![1.0, 2.0];
        let mut opt = OptimizerKind::Sgd { lr: 0.5 }.build(2);
        opt.step(&mut p, &[2.0, -4.0]);
        assert_eq!(p, vec![0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "optimizer built for")]
    fn wrong_length_panics() {
        let mut opt = OptimizerKind::Sgd { lr: 0.1 }.build(2);
        let mut p = vec![0.0];
        opt.step(&mut p, &[0.0]);
    }

    #[test]
    fn learning_rate_accessor() {
        assert_eq!(OptimizerKind::Sgd { lr: 0.03 }.learning_rate(), 0.03);
        assert_eq!(OptimizerKind::adam(0.001).learning_rate(), 0.001);
    }
}

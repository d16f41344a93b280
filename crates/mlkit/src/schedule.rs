//! Learning-rate schedules.
//!
//! The paper trains with constant rates (Table III); schedules are an
//! extension used by the longer multi-round runs where a decaying rate
//! stabilises the final epochs.

/// A learning-rate schedule: maps `(epoch, base_lr)` to the rate used
/// in that epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// The base rate throughout (the paper's setting).
    Constant,
    /// Multiply the rate by `factor` every `every` epochs.
    StepDecay {
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative factor per decay (in `(0, 1]`).
        factor: f64,
    },
    /// Cosine annealing from the base rate to `min_lr` over `total`
    /// epochs (clamped at `min_lr` beyond).
    Cosine {
        /// Epochs over which to anneal.
        total: usize,
        /// Final learning rate.
        min_lr: f64,
    },
}

impl LrSchedule {
    /// The learning rate for `epoch` (0-based) given the base rate.
    ///
    /// # Panics
    /// Panics on non-positive `base_lr` or malformed parameters.
    pub fn rate(&self, epoch: usize, base_lr: f64) -> f64 {
        assert!(base_lr > 0.0, "base learning rate must be positive");
        match *self {
            LrSchedule::Constant => base_lr,
            LrSchedule::StepDecay { every, factor } => {
                assert!(every > 0, "step decay interval must be positive");
                assert!(
                    (0.0..=1.0).contains(&factor) && factor > 0.0,
                    "decay factor must be in (0,1]"
                );
                base_lr * factor.powi((epoch / every) as i32)
            }
            LrSchedule::Cosine { total, min_lr } => {
                assert!(total > 0, "cosine schedule needs a positive horizon");
                assert!(
                    min_lr >= 0.0 && min_lr <= base_lr,
                    "min_lr must be in [0, base_lr]"
                );
                if epoch >= total {
                    return min_lr;
                }
                let t = epoch as f64 / total as f64;
                min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f64::consts::PI * t).cos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        for e in [0, 5, 100] {
            assert_eq!(LrSchedule::Constant.rate(e, 0.03), 0.03);
        }
    }

    #[test]
    fn step_decay_halves_on_schedule() {
        let s = LrSchedule::StepDecay {
            every: 10,
            factor: 0.5,
        };
        assert_eq!(s.rate(0, 1.0), 1.0);
        assert_eq!(s.rate(9, 1.0), 1.0);
        assert_eq!(s.rate(10, 1.0), 0.5);
        assert_eq!(s.rate(25, 1.0), 0.25);
    }

    #[test]
    fn cosine_anneals_monotonically_to_min() {
        let s = LrSchedule::Cosine {
            total: 100,
            min_lr: 0.001,
        };
        let mut last = f64::INFINITY;
        for e in 0..=100 {
            let r = s.rate(e, 0.1);
            assert!(r <= last + 1e-12, "cosine not monotone at {e}");
            assert!(r >= 0.001 - 1e-12);
            last = r;
        }
        assert!((s.rate(0, 0.1) - 0.1).abs() < 1e-12);
        assert!((s.rate(100, 0.1) - 0.001).abs() < 1e-12);
        assert_eq!(s.rate(500, 0.1), 0.001);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_base_lr_rejected() {
        LrSchedule::Constant.rate(0, 0.0);
    }
}

//! Regression evaluation metric.

/// Mean squared error. The paper's "expected loss" / "error rate"
/// (Tables I–II, Fig. 7) is MSE on held-out query data.
///
/// # Panics
/// Panics if lengths differ or the slices are empty.
pub fn mse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "mse length mismatch");
    assert!(!predictions.is_empty(), "mse of empty slices");
    predictions
        .iter()
        .zip(targets)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum::<f64>()
        / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(mse(&y, &y), 0.0);
    }

    #[test]
    fn known_errors() {
        let p = [2.0, 4.0];
        let t = [0.0, 0.0];
        assert_eq!(mse(&p, &t), 10.0);
    }

    #[test]
    #[should_panic(expected = "mse of empty slices")]
    fn empty_input_panics() {
        mse(&[], &[]);
    }
}

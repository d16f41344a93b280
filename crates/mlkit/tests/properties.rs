//! Property-style tests for the ML substrate (deterministic sweeps over
//! the in-tree RNG; no proptest needed offline).

use linalg::rng::{rng_for, Rng};
use linalg::Matrix;
use mlkit::{DenseDataset, Model, ModelKind, Regressor};

const CASES: usize = 48;

fn random_dataset(rng: &mut impl Rng, dim: usize) -> DenseDataset {
    let n = rng.gen_range(2..40usize);
    let x: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
    let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
    DenseDataset::new(Matrix::from_vec(n, dim, x), y)
}

fn random_model(rng: &mut impl Rng, dim: usize) -> Model {
    let kind = if rng.gen_bool(0.5) {
        ModelKind::Linear
    } else {
        ModelKind::Neural {
            hidden: rng.gen_range(1..12usize),
        }
    };
    kind.build(dim, rng.gen_range(0..1000u64))
}

/// The gradient and mean MSE over every row of `data`.
fn full_grad(model: &Model, data: &DenseDataset) -> (Vec<f64>, f64) {
    let rows: Vec<usize> = (0..data.len()).collect();
    let mut grad = vec![0.0; model.num_weights()];
    let loss = model.grad_rows(data, &rows, &mut grad);
    (grad, loss)
}

/// weights()/set_weights() is an exact round trip for both models.
#[test]
fn weight_round_trip() {
    let mut rng = rng_for(0x314, 1);
    for _ in 0..CASES {
        let model = random_model(&mut rng, 3);
        let probe: Vec<f64> = (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut clone = model.clone();
        let w = model.weights();
        assert_eq!(w.len(), model.num_weights());
        clone.set_weights(&w);
        assert_eq!(clone.predict_row(&probe), model.predict_row(&probe));
    }
}

/// The analytic batch gradient matches central finite differences.
#[test]
fn gradient_check() {
    let mut rng = rng_for(0x314, 2);
    for _ in 0..CASES {
        let model = random_model(&mut rng, 2);
        let data = random_dataset(&mut rng, 2);
        let (grad, loss_val) = full_grad(&model, &data);
        assert!(loss_val >= 0.0);
        let base = model.weights();
        let eps = 1e-5;
        // Check a handful of coordinates to keep the case fast.
        for i in (0..base.len()).step_by(base.len() / 4 + 1) {
            let mut plus = model.clone();
            let mut wp = base.clone();
            wp[i] += eps;
            plus.set_weights(&wp);
            let mut minus = model.clone();
            let mut wm = base.clone();
            wm[i] -= eps;
            minus.set_weights(&wm);
            let num = (plus.evaluate(&data) - minus.evaluate(&data)) / (2.0 * eps);
            // ReLU kinks can make single coordinates locally non-smooth;
            // tolerate a small absolute band scaled by the loss magnitude.
            let tol = 1e-3 * (1.0 + loss_val.abs());
            assert!(
                (num - grad[i]).abs() < tol,
                "coord {i}: {num} vs {}",
                grad[i]
            );
        }
    }
}

/// A gradient step with a tiny learning rate never increases the
/// full-batch loss (local descent property; linear model is convex).
#[test]
fn sgd_step_descends_for_linear() {
    let mut rng = rng_for(0x314, 3);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 2);
        let mut model = ModelKind::Linear.build(2, 0);
        let before = model.evaluate(&data);
        let (grad, _) = full_grad(&model, &data);
        let gn: f64 = grad.iter().map(|g| g * g).sum();
        if gn <= 1e-12 {
            continue; // zero gradient: nothing to descend (proptest's prop_assume)
        }
        let lr = 1e-6 / gn.sqrt().max(1.0);
        let mut w = model.weights();
        for (wi, g) in w.iter_mut().zip(&grad) {
            *wi -= lr * g;
        }
        model.set_weights(&w);
        let after = model.evaluate(&data);
        assert!(after <= before + 1e-9, "{before} -> {after}");
    }
}

/// The split's two row lists partition the dataset's rows.
#[test]
fn split_is_lossless() {
    let mut rng = rng_for(0x314, 4);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 3);
        let frac = rng.gen_range(0.05..0.9);
        let seed = rng.gen_range(0..100u64);
        let (train, val) = data.split(frac, seed);
        assert!(!train.is_empty());
        let mut rows: Vec<usize> = train.into_iter().chain(val).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..data.len()).collect::<Vec<_>>());
    }
}

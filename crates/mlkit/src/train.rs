//! Training loops: epoch/batch descent and the paper's *incremental*
//! per-cluster training (§IV-A remark: "each cluster represents a
//! mini-batch", trained for `E` rounds each, producing one model per node).

use crate::data::DenseDataset;
use crate::model::Regressor;
use crate::optim::{Optimizer, OptimizerKind};

/// Hyper-parameters of a training run (Table III). The loss is always
/// MSE, the learning rate is constant and nothing else shapes a step.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Epochs over the training split.
    pub epochs: usize,
    /// Mini-batch size inside an epoch (full-batch when it exceeds the
    /// dataset length).
    pub batch_size: usize,
    /// Fraction of data held out for validation (Table III: 0.2).
    pub validation_split: f64,
    /// Optimiser and learning rate.
    pub optimizer: OptimizerKind,
    /// Seed for the shuffles/splits.
    pub seed: u64,
}

impl TrainConfig {
    /// Table III column "LR": 100 epochs, validation split 0.2, learning
    /// rate 0.03, MSE.
    pub fn paper_lr(seed: u64) -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            validation_split: 0.2,
            optimizer: OptimizerKind::Sgd { lr: 0.03 },
            seed,
        }
    }

    /// Table III column "NN": 100 epochs, validation split 0.2, learning
    /// rate 0.001 (Adam, matching the Keras default optimiser family),
    /// MSE.
    pub fn paper_nn(seed: u64) -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            validation_split: 0.2,
            optimizer: OptimizerKind::adam(0.001),
            seed,
        }
    }

    /// A faster variant with fewer epochs, used where the experiment loop
    /// repeats training hundreds of times.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }
}

/// What a training run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss after each epoch.
    pub train_loss: Vec<f64>,
    /// Mean validation loss after each epoch (empty when the validation
    /// split is 0 or the dataset was too small to split).
    pub val_loss: Vec<f64>,
    /// Total number of sample-visits (samples × epochs).
    pub samples_seen: usize,
}

impl TrainReport {
    /// Merges a follow-on report (incremental training stages).
    fn extend(&mut self, other: TrainReport) {
        self.train_loss.extend(other.train_loss);
        self.val_loss.extend(other.val_loss);
        self.samples_seen += other.samples_seen;
    }
}

/// What one training run carries from batch to batch: the optimiser,
/// the weight vector the model mirrors (after `set_weights(&w)` the
/// model's weights *are* `w`) and one gradient buffer, plus the running
/// loss of the current epoch.
struct Descent {
    batch_size: usize,
    opt: Optimizer,
    w: Vec<f64>,
    grad: Vec<f64>,
    epoch_loss: f64,
    batches: usize,
    samples_seen: usize,
}

impl Descent {
    fn new(model: &impl Regressor, config: &TrainConfig) -> Self {
        assert!(config.batch_size > 0, "batch_size must be positive");
        let lr = config.optimizer.learning_rate();
        assert!(
            lr > 0.0 && lr.is_finite(),
            "learning rate must be positive and finite, got {lr}"
        );
        Self {
            batch_size: config.batch_size,
            opt: config.optimizer.build(model.num_weights()),
            w: model.weights(),
            grad: vec![0.0; model.num_weights()],
            epoch_loss: 0.0,
            batches: 0,
            samples_seen: 0,
        }
    }

    /// Restarts the epoch's loss.
    fn start_epoch(&mut self) {
        self.epoch_loss = 0.0;
        self.batches = 0;
    }

    /// One optimiser step per `batch_size` rows of `order`, in order.
    fn pass<M: Regressor>(&mut self, model: &mut M, data: &DenseDataset, order: &[usize]) {
        for batch in order.chunks(self.batch_size) {
            let loss = model.grad_rows(data, batch, &mut self.grad);
            self.opt.step(&mut self.w, &self.grad);
            model.set_weights(&self.w);
            self.epoch_loss += loss;
            self.batches += 1;
        }
        self.samples_seen += order.len();
    }

    /// The mean batch loss of the epoch so far.
    fn mean_epoch_loss(&self) -> f64 {
        self.epoch_loss / self.batches.max(1) as f64
    }
}

/// Trains `model` on `data` for `config.epochs` epochs of mini-batch
/// descent, with an optional validation split.
///
/// The rows are borrowed, never copied: the split and every epoch's
/// shuffle are lists of row indices, and each mini-batch is a slice of
/// that list.
///
/// Returns the report; the model is updated in place.
///
/// # Panics
/// Panics if `data` is empty or holds a non-finite value, or if the
/// learning rate is not positive and finite.
pub fn train<M: Regressor>(
    model: &mut M,
    data: &DenseDataset,
    config: &TrainConfig,
) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let _span = telemetry::wall_span("mlkit.train", &[("rows", data.len() as u64)]);
    assert!(
        data.x().all_finite() && data.y().iter().all(|v| v.is_finite()),
        "training data contains NaN/inf - impute missing values first (see airdata::impute)"
    );
    let (train_rows, val_rows) = if config.validation_split > 0.0 && data.len() >= 2 {
        data.split(config.validation_split, config.seed)
    } else {
        ((0..data.len()).collect(), Vec::new())
    };

    let mut descent = Descent::new(model, config);
    let mut report = TrainReport {
        train_loss: Vec::with_capacity(config.epochs),
        val_loss: Vec::new(),
        samples_seen: 0,
    };
    let mut order = train_rows.clone();

    for epoch in 0..config.epochs {
        descent.start_epoch();
        order.copy_from_slice(&train_rows);
        DenseDataset::permutation(&mut order, config.seed.wrapping_add(epoch as u64 + 1));
        descent.pass(model, data, &order);
        report.train_loss.push(descent.mean_epoch_loss());

        if !val_rows.is_empty() {
            report.val_loss.push(model.loss_rows(data, &val_rows));
        }
    }
    report.samples_seen = descent.samples_seen;
    report
}

/// The paper's incremental per-cluster training (§IV-A/§IV-B): the model
/// visits each supporting cluster's data in turn, running the full
/// `config` schedule on each stage, and carries its weights across stages
/// so "each node produces only one model including all the training
/// obtained by the K' supporting clusters".
///
/// Empty stages are skipped. Returns the concatenated report.
///
/// Note: with many epochs per stage this *sequential* order lets the last
/// cluster overwrite what earlier clusters taught (intra-node
/// forgetting), which bites non-linear models in particular — see
/// [`train_interleaved`] for the §IV-A "each cluster represents a
/// mini-batch" reading that rotates through the clusters every epoch.
///
/// # Panics
/// Panics if every stage is empty.
pub fn train_incremental<M: Regressor>(
    model: &mut M,
    stages: &[DenseDataset],
    config: &TrainConfig,
) -> TrainReport {
    let mut combined: Option<TrainReport> = None;
    for (i, stage) in stages.iter().enumerate() {
        if stage.is_empty() {
            continue;
        }
        let stage_cfg = TrainConfig {
            seed: config.seed.wrapping_add(i as u64 * 7919),
            ..config.clone()
        };
        let _stage_span = telemetry::wall_span("mlkit.stage", &[("stage", i as u64)]);
        let rep = train(model, stage, &stage_cfg);
        match &mut combined {
            None => combined = Some(rep),
            Some(c) => c.extend(rep),
        }
    }
    combined.expect("train_incremental requires at least one non-empty stage")
}

/// Interleaved per-cluster training — the §IV-A mini-batch reading of the
/// paper's scheme: every epoch visits *each* supporting cluster for one
/// epoch of mini-batch descent, repeating for `config.epochs` cycles, so
/// no cluster gets the final word, which protects non-linear models from
/// intra-node forgetting.
///
/// Validation splits would be per-cluster-epoch and are therefore not
/// taken here: every row of every stage trains, so a run
/// makes `config.epochs × Σ|stage|` sample visits, where
/// [`train_incremental`] holds back `round(validation_split · |stage|)`
/// rows of each stage (about 1.25× fewer visits at Table III's 0.2). The
/// report carries the per-cycle mean training loss across stages.
///
/// # Panics
/// Panics if every stage is empty.
pub fn train_interleaved<M: Regressor>(
    model: &mut M,
    stages: &[DenseDataset],
    config: &TrainConfig,
) -> TrainReport {
    let nonempty: Vec<&DenseDataset> = stages.iter().filter(|s| !s.is_empty()).collect();
    assert!(
        !nonempty.is_empty(),
        "train_interleaved requires at least one non-empty stage"
    );
    let _span = telemetry::wall_span("mlkit.train", &[("stages", nonempty.len() as u64)]);
    let mut report = TrainReport {
        train_loss: Vec::with_capacity(config.epochs),
        val_loss: Vec::new(),
        samples_seen: 0,
    };
    // One optimiser across the whole run so moments persist over cycles.
    let mut descent = Descent::new(model, config);
    let mut order = Vec::with_capacity(nonempty.iter().map(|s| s.len()).max().unwrap_or(0));
    for epoch in 0..config.epochs {
        descent.start_epoch();
        for (si, stage) in nonempty.iter().enumerate() {
            order.clear();
            order.extend(0..stage.len());
            DenseDataset::permutation(
                &mut order,
                config
                    .seed
                    .wrapping_add(epoch as u64 + 1)
                    .wrapping_add(si as u64 * 7919),
            );
            descent.pass(model, stage, &order);
        }
        report.train_loss.push(descent.mean_epoch_loss());
    }
    report.samples_seen = descent.samples_seen;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ModelKind};
    use linalg::Matrix;

    fn linear_data(n: usize, seed: u64) -> DenseDataset {
        let mut rng = linalg::rng::rng_for(seed, 55);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    linalg::rng::normal(&mut rng, 0.0, 1.0),
                    linalg::rng::normal(&mut rng, 0.0, 1.0),
                ]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0 + linalg::rng::normal(&mut rng, 0.0, 0.01))
            .collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn paper_lr_config_matches_table_iii() {
        let c = TrainConfig::paper_lr(0);
        assert_eq!(c.epochs, 100);
        assert_eq!(c.validation_split, 0.2);
        assert_eq!(c.optimizer, OptimizerKind::Sgd { lr: 0.03 });
    }

    #[test]
    fn paper_nn_config_matches_table_iii() {
        let c = TrainConfig::paper_nn(0);
        assert_eq!(c.epochs, 100);
        assert_eq!(c.validation_split, 0.2);
        assert_eq!(c.optimizer, OptimizerKind::adam(0.001));
    }

    #[test]
    fn training_reduces_loss() {
        let data = linear_data(200, 1);
        let mut model = ModelKind::Linear.build(2, 0);
        let report = train(&mut model, &data, &TrainConfig::paper_lr(3));
        assert_eq!(report.train_loss.len(), 100);
        assert_eq!(report.val_loss.len(), 100);
        let first = report.train_loss[0];
        let last = report.train_loss[99];
        assert!(last < first * 0.1, "loss {first} -> {last} did not drop");
        assert!(report.val_loss.iter().any(|&v| v < 0.1));
    }

    #[test]
    fn training_is_deterministic() {
        let data = linear_data(100, 2);
        let cfg = TrainConfig::paper_lr(17).with_epochs(20);
        let mut a = ModelKind::Linear.build(2, 0);
        let mut b = ModelKind::Linear.build(2, 0);
        let ra = train(&mut a, &data, &cfg);
        let rb = train(&mut b, &data, &cfg);
        assert_eq!(ra, rb);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn zero_validation_split_trains_on_everything() {
        let data = linear_data(50, 6);
        let mut model = ModelKind::Linear.build(2, 0);
        let cfg = TrainConfig {
            validation_split: 0.0,
            ..TrainConfig::paper_lr(7)
        }
        .with_epochs(5);
        let report = train(&mut model, &data, &cfg);
        assert!(report.val_loss.is_empty());
        assert_eq!(report.samples_seen, 50 * 5);
    }

    #[test]
    fn incremental_training_carries_weights_across_stages() {
        let data = linear_data(300, 8);
        let idx_a: Vec<usize> = (0..100).collect();
        let idx_b: Vec<usize> = (100..300).collect();
        let stages = vec![data.select(&idx_a), data.select(&idx_b)];
        let mut model = ModelKind::Linear.build(2, 0);
        let cfg = TrainConfig::paper_lr(9).with_epochs(30);
        let report = train_incremental(&mut model, &stages, &cfg);
        assert_eq!(report.train_loss.len(), 60);
        // Having seen both stages, the model fits the whole set well.
        assert!(model.evaluate(&data) < 0.5);
    }

    #[test]
    fn incremental_training_skips_empty_stages() {
        let data = linear_data(60, 10);
        let stages = vec![data.select(&[]), data.clone(), data.select(&[])];
        let mut model = ModelKind::Linear.build(2, 0);
        let report = train_incremental(
            &mut model,
            &stages,
            &TrainConfig::paper_lr(1).with_epochs(10),
        );
        assert_eq!(report.train_loss.len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one non-empty stage")]
    fn incremental_all_empty_panics() {
        let mut model = ModelKind::Linear.build(2, 0);
        train_incremental(
            &mut model,
            &[linear_data(4, 0).select(&[])],
            &TrainConfig::paper_lr(0),
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_base_lr_rejected() {
        let data = linear_data(20, 3);
        let mut model = ModelKind::Linear.build(2, 0);
        let cfg = TrainConfig {
            optimizer: OptimizerKind::Sgd { lr: 0.0 },
            ..TrainConfig::paper_lr(0)
        };
        train(&mut model, &data, &cfg);
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn nan_training_data_rejected() {
        let data = DenseDataset::new(
            Matrix::from_rows(&[vec![1.0, f64::NAN], vec![2.0, 3.0]]),
            vec![1.0, 2.0],
        );
        let mut model = ModelKind::Linear.build(2, 0);
        train(&mut model, &data, &TrainConfig::paper_lr(0));
    }

    #[test]
    fn interleaved_training_covers_all_stages() {
        let data = linear_data(200, 20);
        let idx_a: Vec<usize> = (0..100).collect();
        let idx_b: Vec<usize> = (100..200).collect();
        let stages = vec![data.select(&idx_a), data.select(&[]), data.select(&idx_b)];
        let mut model = ModelKind::Linear.build(2, 0);
        let cfg = TrainConfig::paper_lr(4).with_epochs(25);
        let report = train_interleaved(&mut model, &stages, &cfg);
        assert_eq!(report.train_loss.len(), 25);
        assert!(model.evaluate(&data) < 0.2);
    }

    #[test]
    fn interleaved_resists_intra_node_forgetting_where_sequential_does_not() {
        // Two stages teaching *different* relations: stage A (x in [0,1],
        // y = 5x), stage B (x in [2,3], y = -5x + 20). An NN trained
        // sequentially with many epochs per stage forgets stage A; the
        // interleaved order retains both.
        use linalg::rng::Rng;
        let mk = |lo: f64, slope: f64, b: f64, seed: u64| {
            let mut rng = linalg::rng::rng_for(seed, 9);
            let rows: Vec<Vec<f64>> = (0..120)
                .map(|_| vec![lo + rng.gen_range(0.0..1.0)])
                .collect();
            let y: Vec<f64> = rows.iter().map(|r| slope * r[0] + b).collect();
            DenseDataset::new(Matrix::from_rows(&rows), y)
        };
        let stage_a = mk(0.0, 5.0, 0.0, 1);
        let stage_b = mk(2.0, -5.0, 20.0, 2);
        let stages = vec![stage_a.clone(), stage_b];
        let cfg = TrainConfig {
            optimizer: OptimizerKind::adam(0.02),
            validation_split: 0.0,
            ..TrainConfig::paper_nn(7).with_epochs(120)
        };
        let mut sequential = ModelKind::Neural { hidden: 12 }.build(1, 3);
        train_incremental(&mut sequential, &stages, &cfg);
        let mut interleaved = ModelKind::Neural { hidden: 12 }.build(1, 3);
        train_interleaved(&mut interleaved, &stages, &cfg);
        let seq_a = sequential.evaluate(&stage_a);
        let int_a = interleaved.evaluate(&stage_a);
        assert!(
            int_a < seq_a,
            "interleaved ({int_a}) should retain stage A better than sequential ({seq_a})"
        );
    }

    #[test]
    fn interleaved_trains_on_the_rows_incremental_holds_back() {
        // Stages of 100 and 50 rows at Table III's 0.2 split: the
        // sequential order trains on 80 + 40 rows of them per epoch, the
        // interleaved order on all 150.
        let data = linear_data(150, 22);
        let idx_a: Vec<usize> = (0..100).collect();
        let idx_b: Vec<usize> = (100..150).collect();
        let stages = vec![data.select(&idx_a), data.select(&idx_b)];
        let cfg = TrainConfig::paper_lr(3).with_epochs(10);
        let mut model = ModelKind::Linear.build(2, 0);
        let sequential = train_incremental(&mut model, &stages, &cfg);
        let mut model = ModelKind::Linear.build(2, 0);
        let interleaved = train_interleaved(&mut model, &stages, &cfg);
        assert_eq!(sequential.samples_seen, (80 + 40) * 10);
        assert_eq!(interleaved.samples_seen, 150 * 10);
    }

    #[test]
    #[should_panic(expected = "at least one non-empty stage")]
    fn interleaved_all_empty_panics() {
        let mut model = ModelKind::Linear.build(2, 0);
        train_interleaved(
            &mut model,
            &[linear_data(4, 0).select(&[])],
            &TrainConfig::paper_lr(0),
        );
    }

    #[test]
    fn nn_trains_on_nonlinear_target() {
        // Small NN + Adam on y = x^2.
        let mut rng = linalg::rng::rng_for(3, 66);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![linalg::rng::normal(&mut rng, 0.0, 1.0)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        let data = DenseDataset::new(Matrix::from_rows(&rows), y);
        let mut model: Model = ModelKind::Neural { hidden: 16 }.build(1, 5);
        let cfg = TrainConfig {
            optimizer: OptimizerKind::adam(0.01),
            ..TrainConfig::paper_nn(2)
        };
        let report = train(&mut model, &data, &cfg);
        let last = report.train_loss[99];
        assert!(last < 0.1, "loss {last}");
    }
}

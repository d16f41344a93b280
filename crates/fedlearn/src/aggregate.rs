//! Model aggregation at the leader (§IV-B).

use mlkit::{Model, Regressor};

/// Which aggregation rule the leader applies to the returned local models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// **Model Averaging** (Eq. 6): the prediction is the unweighted mean
    /// of the local models' predictions.
    ModelAveraging,
    /// **Weighted Averaging** (Eq. 7): predictions are weighted by the
    /// ranking-proportional λ_i.
    WeightedAveraging,
    /// FedAvg-style extension: average the *weight vectors* (sample-count
    /// weighted) into a single model. Not in the paper's evaluation;
    /// used by the aggregation ablation (`repro ablations`).
    FedAvgWeights,
}

impl Aggregation {
    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregation::ModelAveraging => "averaging",
            Aggregation::WeightedAveraging => "weighted",
            Aggregation::FedAvgWeights => "fedavg-weights",
        }
    }
}

/// The leader's aggregated predictor.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalModel {
    /// A prediction-averaging ensemble: `ŷ(q) = Σ λ_i ŷ_i(q)` with
    /// `Σ λ_i = 1` (uniform λ for Eq. 6, ranking-proportional for Eq. 7).
    Ensemble {
        /// The participants' local models.
        members: Vec<Model>,
        /// Normalised aggregation weights λ_i.
        lambdas: Vec<f64>,
    },
    /// A single weight-averaged model (the FedAvg extension).
    Single(Model),
}

impl GlobalModel {
    /// Builds the aggregate from local models.
    ///
    /// `lambdas` are the ranking-proportional weights from the selection
    /// ([`selection::Selection::lambda_weights`]); `samples` the per-model
    /// training sample counts (used only by FedAvg weighting).
    ///
    /// # Panics
    /// Panics if `members` is empty or the argument lengths disagree.
    pub fn aggregate(
        rule: Aggregation,
        members: Vec<Model>,
        lambdas: &[f64],
        samples: &[usize],
    ) -> GlobalModel {
        assert!(!members.is_empty(), "cannot aggregate zero models");
        assert_eq!(members.len(), lambdas.len(), "lambda count mismatch");
        assert_eq!(members.len(), samples.len(), "sample count mismatch");
        match rule {
            Aggregation::ModelAveraging => {
                let n = members.len();
                GlobalModel::Ensemble {
                    lambdas: vec![1.0 / n as f64; n],
                    members,
                }
            }
            Aggregation::WeightedAveraging => {
                let total: f64 = lambdas.iter().sum();
                let lambdas = if total > 0.0 {
                    lambdas.iter().map(|l| l / total).collect()
                } else {
                    vec![1.0 / members.len() as f64; members.len()]
                };
                GlobalModel::Ensemble { members, lambdas }
            }
            Aggregation::FedAvgWeights => {
                let total: f64 = samples.iter().map(|&s| s as f64).sum();
                assert!(total > 0.0, "FedAvg aggregation requires training samples");
                let mut avg = vec![0.0; members[0].num_weights()];
                for (m, &s) in members.iter().zip(samples) {
                    let w = m.weights();
                    assert_eq!(w.len(), avg.len(), "heterogeneous model shapes");
                    let coef = s as f64 / total;
                    for (a, v) in avg.iter_mut().zip(w) {
                        *a += coef * v;
                    }
                }
                let mut model = members.into_iter().next().expect("non-empty");
                model.set_weights(&avg);
                GlobalModel::Single(model)
            }
        }
    }

    /// Predicts one sample.
    pub fn predict_row(&self, x: &[f64]) -> f64 {
        match self {
            GlobalModel::Ensemble { members, lambdas } => members
                .iter()
                .zip(lambdas)
                .map(|(m, &l)| l * m.predict_row(x))
                .sum(),
            GlobalModel::Single(m) => m.predict_row(x),
        }
    }

    /// Predicts every row of a feature matrix.
    pub fn predict(&self, x: &linalg::Matrix) -> Vec<f64> {
        x.row_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Mean squared error over a dataset.
    pub fn mse(&self, data: &mlkit::DenseDataset) -> f64 {
        mlkit::metrics::mse(&self.predict(data.x()), data.y())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkit::{LinearRegression, ModelKind};

    /// A linear model `y = a*x + b`.
    fn lin(a: f64, b: f64) -> Model {
        let mut m = LinearRegression::new(1);
        m.set_weights(&[a, b]);
        Model::Linear(m)
    }

    #[test]
    fn model_averaging_is_uniform() {
        let g = GlobalModel::aggregate(
            Aggregation::ModelAveraging,
            vec![lin(1.0, 0.0), lin(3.0, 0.0)],
            &[0.9, 0.1], // ignored by Eq. 6
            &[10, 10],
        );
        assert_eq!(g.predict_row(&[1.0]), 2.0);
        assert!(matches!(&g, GlobalModel::Ensemble { members, .. } if members.len() == 2));
    }

    #[test]
    fn weighted_averaging_uses_lambdas() {
        let g = GlobalModel::aggregate(
            Aggregation::WeightedAveraging,
            vec![lin(1.0, 0.0), lin(3.0, 0.0)],
            &[3.0, 1.0],
            &[10, 10],
        );
        // λ = (0.75, 0.25) -> prediction 0.75*1 + 0.25*3 = 1.5 at x=1.
        assert_eq!(g.predict_row(&[1.0]), 1.5);
    }

    #[test]
    fn weighted_averaging_normalises_unnormalised_lambdas() {
        let g = GlobalModel::aggregate(
            Aggregation::WeightedAveraging,
            vec![lin(2.0, 0.0), lin(4.0, 0.0)],
            &[2.0, 2.0],
            &[1, 1],
        );
        assert_eq!(g.predict_row(&[1.0]), 3.0);
    }

    #[test]
    fn fedavg_averages_weight_vectors_by_sample_count() {
        let g = GlobalModel::aggregate(
            Aggregation::FedAvgWeights,
            vec![lin(1.0, 1.0), lin(3.0, 3.0)],
            &[0.5, 0.5],
            &[30, 10],
        );
        // weights = 0.75*(1,1) + 0.25*(3,3) = (1.5, 1.5).
        match &g {
            GlobalModel::Single(m) => assert_eq!(m.weights(), vec![1.5, 1.5]),
            other => panic!("expected Single, got {other:?}"),
        }
        assert_eq!(g.predict_row(&[1.0]), 3.0);
    }

    #[test]
    fn ensemble_mse_matches_hand_computation() {
        let g = GlobalModel::aggregate(
            Aggregation::ModelAveraging,
            vec![lin(1.0, 0.0)],
            &[1.0],
            &[1],
        );
        let data = mlkit::DenseDataset::new(
            linalg::Matrix::from_rows(&[vec![1.0], vec![2.0]]),
            vec![2.0, 2.0],
        );
        // Predictions 1, 2 -> errors 1, 0 -> MSE 0.5.
        assert_eq!(g.mse(&data), 0.5);
    }

    #[test]
    fn nn_models_aggregate_too() {
        let a = ModelKind::Neural { hidden: 4 }.build(1, 1);
        let b = ModelKind::Neural { hidden: 4 }.build(1, 2);
        let g =
            GlobalModel::aggregate(Aggregation::FedAvgWeights, vec![a, b], &[0.5, 0.5], &[5, 5]);
        assert!(g.predict_row(&[0.3]).is_finite());
    }

    #[test]
    #[should_panic(expected = "zero models")]
    fn empty_aggregate_panics() {
        GlobalModel::aggregate(Aggregation::ModelAveraging, vec![], &[], &[]);
    }
}

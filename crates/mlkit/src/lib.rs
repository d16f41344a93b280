//! Minimal ML substrate replacing the paper's Keras models.
//!
//! The evaluation (§V, Table III) trains two regressors per query: a
//! linear regression (a single dense unit) trained by SGD at lr 0.03 and
//! a small neural network (one dense layer of 64 ReLU units) trained by
//! Adam at lr 0.001, both under MSE loss with a 0.2 validation split and
//! 100 epochs. This crate implements exactly those models from scratch -
//! dense forward/backward passes, the two optimisers, mini-batch and
//! *incremental* training (the paper trains one supporting cluster after
//! another, treating each cluster as a mini-batch stage) - with flat
//! weight vectors exposed for federated aggregation.
//!
//! * [`data`] - `DenseDataset` (feature matrix + target vector), the
//!   seeded row permutation and the train/validation split as row lists.
//! * [`metrics`] - MSE, the paper's "expected loss".
//! * [`optim`] - SGD and Adam.
//! * [`model`] - the [`model::Regressor`] trait and the clonable
//!   [`model::Model`] enum over the two paper architectures.
//! * [`linear`] - linear regression (Table III "LR": Dense 1, lr 0.03).
//! * [`mlp`] - one-hidden-layer MLP (Table III "NN": Dense 64 ReLU, lr 0.001).
//! * [`mod@train`] - epoch/batch training loops, validation split, incremental
//!   per-cluster training. The loops borrow the rows they train on: each
//!   epoch walks a permutation of row indices in mini-batch slices, with
//!   one weight vector and one gradient buffer per run.

pub mod data;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod optim;
pub mod train;

pub use data::DenseDataset;
pub use linear::LinearRegression;
pub use mlp::Mlp;
pub use model::{Model, ModelKind, Regressor};
pub use optim::OptimizerKind;
pub use train::{train, train_incremental, train_interleaved, TrainConfig, TrainReport};

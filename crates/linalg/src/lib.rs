//! Dense linear-algebra substrate for the `qens` workspace.
//!
//! The paper's pipeline (k-means quantisation, linear regression, a small
//! multi-layer perceptron) only needs dense `f64` matrices and a handful
//! of vector kernels, so this crate implements exactly that —
//! no BLAS, no external numerics dependency. Everything is deterministic:
//! all random initialisation is driven by caller-supplied seeds.
//!
//! # Layout
//!
//! * [`Matrix`] — row-major dense matrix: rows, row selection and
//!   stacking, in-place accumulation.
//! * [`ops`] — slice-level kernels (dot, axpy, scale, distances) shared by
//!   the matrix code and by hot loops in `mlkit`/`cluster`.
//! * [`stats`] — descriptive statistics over slices (mean, variance,
//!   min/max, Pearson correlation, OLS slope).
//! * [`rng`] — seed plumbing helpers so each subsystem derives independent
//!   yet reproducible RNG streams.

pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;

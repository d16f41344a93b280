//! Supervised regression datasets: a feature matrix plus a target vector.

use linalg::rng::SliceRandom;
use linalg::{rng, Matrix};

/// A dense supervised dataset: `x` has one sample per row, `y` one target
/// per sample (`ξ = (x, y)` in the paper's notation).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDataset {
    x: Matrix,
    y: Vec<f64>,
}

impl DenseDataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics if `x.rows() != y.len()`.
    pub fn new(x: Matrix, y: Vec<f64>) -> Self {
        assert_eq!(
            x.rows(),
            y.len(),
            "feature rows ({}) != targets ({})",
            x.rows(),
            y.len()
        );
        Self { x, y }
    }

    /// Feature matrix.
    #[inline]
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Target vector.
    #[inline]
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// A new dataset containing the listed sample indices, in order.
    pub fn select(&self, indices: &[usize]) -> DenseDataset {
        let x = self.x.select_rows(indices);
        let y = indices.iter().map(|&i| self.y[i]).collect();
        DenseDataset::new(x, y)
    }

    /// Concatenates two datasets (same feature width).
    pub fn concat(&self, other: &DenseDataset) -> DenseDataset {
        assert_eq!(self.dim(), other.dim(), "concat dimensionality mismatch");
        let x = self.x.vstack(&other.x);
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        DenseDataset::new(x, y)
    }

    /// Shuffles `rows` in place with the `seed` stream — the one
    /// permutation [`split`](Self::split) and every training epoch draw.
    /// Fisher–Yates moves positions only, so the order it gives a list
    /// of row indices does not depend on the indices themselves.
    pub fn permutation(rows: &mut [usize], seed: u64) {
        rows.shuffle(&mut rng::rng_for(seed, 0xDA7A));
    }

    /// Splits the row indices into `(train, validation)` lists with the
    /// given validation fraction, after a deterministic shuffle; the rows
    /// themselves stay where they are.
    ///
    /// The split never leaves the training side empty unless the dataset
    /// itself has fewer than 2 samples.
    ///
    /// # Panics
    /// Panics if `val_fraction` is outside `[0, 1)`.
    pub fn split(&self, val_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        assert!(
            (0.0..1.0).contains(&val_fraction),
            "val_fraction {val_fraction} outside [0,1)"
        );
        let n = self.len();
        let mut train: Vec<usize> = (0..n).collect();
        Self::permutation(&mut train, seed);
        let n_val = ((n as f64 * val_fraction).round() as usize).min(n.saturating_sub(1));
        let val = train.split_off(n - n_val);
        (train, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (2 * i) as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn construction_checks_lengths() {
        let ds = toy(5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.dim(), 2);
        assert!(!ds.is_empty());
        assert!(ds.select(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn mismatched_lengths_rejected() {
        DenseDataset::new(Matrix::zeros(3, 2), vec![1.0]);
    }

    #[test]
    fn select_keeps_pairs_aligned() {
        let ds = toy(6);
        let s = ds.select(&[5, 0, 3]);
        assert_eq!(s.y(), &[50.0, 0.0, 30.0]);
        assert_eq!(s.x().row(0), &[5.0, 10.0]);
        assert_eq!(s.x().row(2), &[3.0, 6.0]);
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        DenseDataset::permutation(&mut a, 9);
        DenseDataset::permutation(&mut b, 9);
        assert_eq!(a, b);
        assert_ne!(a, (0..20).collect::<Vec<_>>());
        // The same draw moves any index list the same way.
        let mut odd: Vec<usize> = (0..20).map(|i| 2 * i + 1).collect();
        DenseDataset::permutation(&mut odd, 9);
        assert_eq!(odd, a.iter().map(|i| 2 * i + 1).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn split_fractions_are_respected() {
        let ds = toy(10);
        let (train, val) = ds.split(0.2, 1);
        assert_eq!(train.len(), 8);
        assert_eq!(val.len(), 2);
        let (train, val) = ds.split(0.0, 1);
        assert_eq!((train.len(), val.len()), (10, 0));
    }

    #[test]
    fn split_never_empties_training_side() {
        let ds = toy(2);
        let (train, val) = ds.split(0.9, 3);
        assert_eq!(train.len(), 1);
        assert_eq!(val.len(), 1);
        let one = toy(1);
        let (train, val) = one.split(0.5, 3);
        assert_eq!((train.len(), val.len()), (1, 0));
    }

    #[test]
    fn concat_appends_samples() {
        let a = toy(2);
        let b = toy(3);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(c.y()[2..], b.y()[..]);
    }
}

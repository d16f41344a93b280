//! Clustering quality: the quantisation loss of Eq. 1.

use linalg::{ops, Matrix};

/// Quantisation loss (the paper's Eq. 1) of arbitrary centroids against a
/// dataset: `Σ_k Σ_j ||ξ_j − u_k||²` with each sample charged to its
/// nearest representative.
pub fn quantization_loss(data: &Matrix, centroids: &Matrix) -> f64 {
    data.row_iter()
        .map(|row| {
            centroids
                .row_iter()
                .map(|c| ops::squared_distance(row, c))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{KMeans, KMeansConfig};
    use linalg::rng::{normal, rng_for};

    fn blobs(k: usize, per: usize, sep: f64, seed: u64) -> Matrix {
        let mut rng = rng_for(seed, 2);
        let mut rows = Vec::new();
        for c in 0..k {
            let cx = c as f64 * sep;
            for _ in 0..per {
                rows.push(vec![normal(&mut rng, cx, 0.3), normal(&mut rng, 0.0, 0.3)]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn quantization_loss_matches_model_inertia() {
        let data = blobs(3, 30, 8.0, 4);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(3, 9));
        let loss = quantization_loss(&data, model.centroids());
        assert!((loss - model.inertia()).abs() < 1e-9 * model.inertia().max(1.0));
    }

    #[test]
    fn quantization_loss_zero_when_centroids_cover_points() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        assert_eq!(quantization_loss(&data, &data), 0.0);
    }
}

//! Mini-batch k-means for streaming edge nodes.
//!
//! Edge nodes keep collecting data; refitting Lloyd's algorithm from
//! scratch on every arrival is wasteful. Mini-batch k-means (Sculley,
//! WWW'10) updates centroids with per-centre learning rates
//! `1/count` from small batches, which lets a node fold new observations
//! into its quantisation — and therefore into the summaries it ships to
//! the leader — at `O(batch · K · d)` cost per update.

use linalg::rng::Rng;
use linalg::{ops, rng, Matrix};

use crate::kmeans::{KMeans, KMeansConfig};

/// An incrementally maintained k-means quantisation.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniBatchKMeans {
    centroids: Matrix,
    /// Per-centroid assignment counts (the inverse learning rates).
    counts: Vec<u64>,
    seed: u64,
    updates: u64,
}

impl MiniBatchKMeans {
    /// Initialises from a first data batch using a full k-means fit
    /// (the batch is typically small, so this is cheap).
    ///
    /// # Panics
    /// Panics if `initial` is empty or `k == 0`.
    pub fn new(initial: &Matrix, k: usize, seed: u64) -> Self {
        let fitted = KMeans::fit(initial, &KMeansConfig::with_k(k, seed));
        let counts = fitted.sizes().iter().map(|&s| s as u64).collect();
        Self {
            centroids: fitted.centroids().clone(),
            counts,
            seed,
            updates: 0,
        }
    }

    /// Current centroids.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Total points folded in so far.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-centroid index for a point.
    pub fn predict(&self, point: &[f64]) -> usize {
        let mut best = (0usize, f64::INFINITY);
        for (c, row) in self.centroids.row_iter().enumerate() {
            let d = ops::squared_distance(row, point);
            if d < best.1 {
                best = (c, d);
            }
        }
        best.0
    }

    /// Folds one batch of new observations into the centroids.
    ///
    /// Each sample moves its nearest centroid by `1/count` toward itself
    /// — the per-centre decaying learning rate that makes mini-batch
    /// k-means converge.
    pub fn update(&mut self, batch: &Matrix) {
        assert_eq!(
            batch.cols(),
            self.centroids.cols(),
            "batch dimensionality mismatch"
        );
        self.updates += 1;
        // Assign first (against frozen centroids), then move — the
        // standard two-phase mini-batch step.
        let assignments: Vec<usize> = batch.row_iter().map(|r| self.predict(r)).collect();
        for (row, &c) in batch.row_iter().zip(&assignments) {
            self.counts[c] += 1;
            let eta = 1.0 / self.counts[c] as f64;
            let centre = self.centroids.row_mut(c);
            for (ci, &xi) in centre.iter_mut().zip(row) {
                *ci += eta * (xi - *ci);
            }
        }
    }

    /// Reseeds a centroid that has gone stale (rarely assigned) onto a
    /// random sample of `batch`; returns how many were reseeded.
    ///
    /// Staleness: assigned to fewer than `min_share` of the points seen.
    pub fn reseed_stale(&mut self, batch: &Matrix, min_share: f64) -> usize {
        let total = self.total_count().max(1);
        let mut rng = rng::rng_for(self.seed, 0x5EED ^ self.updates);
        let mut reseeded = 0;
        for c in 0..self.k() {
            if (self.counts[c] as f64 / total as f64) < min_share {
                let pick = rng.gen_range(0..batch.rows());
                self.centroids.row_mut(c).copy_from_slice(batch.row(pick));
                self.counts[c] = 1;
                reseeded += 1;
            }
        }
        reseeded
    }

    /// Quantisation loss of the current centroids over a dataset.
    pub fn loss(&self, data: &Matrix) -> f64 {
        crate::quality::quantization_loss(data, &self.centroids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::rng::{normal, rng_for};

    fn blob_batch(centers: &[[f64; 2]], per: usize, seed: u64) -> Matrix {
        let mut rng = rng_for(seed, 3);
        let mut rows = Vec::new();
        for c in centers {
            for _ in 0..per {
                rows.push(vec![
                    normal(&mut rng, c[0], 0.4),
                    normal(&mut rng, c[1], 0.4),
                ]);
            }
        }
        Matrix::from_rows(&rows)
    }

    const CENTERS: [[f64; 2]; 3] = [[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]];

    #[test]
    fn streaming_updates_track_the_distribution() {
        let init = blob_batch(&CENTERS, 20, 1);
        let mut mb = MiniBatchKMeans::new(&init, 3, 7);
        let initial_loss = mb.loss(&blob_batch(&CENTERS, 50, 99));
        for s in 0..20 {
            mb.update(&blob_batch(&CENTERS, 10, 100 + s));
        }
        let final_loss = mb.loss(&blob_batch(&CENTERS, 50, 99));
        assert!(
            final_loss <= initial_loss * 1.5,
            "loss exploded: {initial_loss} -> {final_loss}"
        );
        // Centroids sit near the true centres.
        for c in CENTERS {
            let nearest = (0..mb.k())
                .map(|i| ops::distance(mb.centroids().row(i), &c))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 1.0, "no centroid near {c:?} (distance {nearest})");
        }
    }

    #[test]
    fn update_counts_accumulate() {
        let init = blob_batch(&CENTERS, 10, 2);
        let mut mb = MiniBatchKMeans::new(&init, 3, 7);
        let before = mb.total_count();
        mb.update(&blob_batch(&CENTERS, 5, 3));
        assert_eq!(mb.total_count(), before + 15);
    }

    #[test]
    fn adapting_to_a_moved_distribution() {
        // Start on one blob, then stream a blob far away: at least one
        // centroid must migrate toward the new mass.
        let init = blob_batch(&[[0.0, 0.0]], 30, 4);
        let mut mb = MiniBatchKMeans::new(&init, 2, 5);
        let new_region = blob_batch(&[[50.0, 50.0]], 30, 6);
        for _ in 0..40 {
            mb.update(&new_region);
        }
        mb.reseed_stale(&new_region, 0.05);
        for _ in 0..10 {
            mb.update(&new_region);
        }
        let nearest = (0..mb.k())
            .map(|i| ops::distance(mb.centroids().row(i), &[50.0, 50.0]))
            .fold(f64::INFINITY, f64::min);
        assert!(
            nearest < 5.0,
            "no centroid migrated to the new region ({nearest})"
        );
    }

    #[test]
    fn reseed_stale_touches_only_underused_centroids() {
        let init = blob_batch(&CENTERS, 20, 8);
        let mut mb = MiniBatchKMeans::new(&init, 3, 9);
        // Every centroid has a healthy share: nothing reseeds.
        assert_eq!(mb.reseed_stale(&init, 0.01), 0);
        // An absurd share threshold reseeds everything.
        assert_eq!(mb.reseed_stale(&init, 1.1), 3);
    }

    #[test]
    #[should_panic(expected = "batch dimensionality mismatch")]
    fn wrong_width_batch_rejected() {
        let init = blob_batch(&CENTERS, 5, 1);
        let mut mb = MiniBatchKMeans::new(&init, 2, 0);
        mb.update(&Matrix::from_rows(&[vec![1.0]]));
    }

    #[test]
    fn deterministic_for_fixed_inputs() {
        let init = blob_batch(&CENTERS, 10, 3);
        let batch = blob_batch(&CENTERS, 10, 4);
        let run = || {
            let mut mb = MiniBatchKMeans::new(&init, 3, 11);
            mb.update(&batch);
            mb
        };
        assert_eq!(run(), run());
    }
}

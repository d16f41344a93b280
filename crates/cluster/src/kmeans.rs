//! Lloyd's k-means with k-means++ initialisation.
//!
//! The Lloyd hot loops (assignment, centroid sums, inertia) run on the
//! bounded [`par::ThreadPool`] with fixed row chunking and ordered
//! per-chunk partial reductions, so a fit is bit-identical for any
//! worker count (including the inline serial path of a 1-thread pool).

use linalg::rng::Rng;
use linalg::{ops, rng, Matrix};
use par::ThreadPool;

/// Rows per pool task in the chunked Lloyd kernels. Fixed (never derived
/// from the worker count) so partial-reduction order is deterministic.
const ROW_CHUNK: usize = par::DEFAULT_CHUNK;

/// Configuration for a k-means fit. Centroids start from k-means++ (D²
/// sampling), which gives `O(log k)`-competitive starting points and
/// stable boundaries across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters K (the paper fixes K = 5 for all nodes).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement (squared L2).
    pub tol: f64,
    /// RNG seed for initialisation.
    pub seed: u64,
}

impl KMeansConfig {
    /// The paper's evaluation configuration: `K = 5`, k-means++.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            k: 5,
            max_iters: 100,
            tol: 1e-8,
            seed,
        }
    }

    /// Same defaults with a different K.
    pub fn with_k(k: usize, seed: u64) -> Self {
        Self {
            k,
            ..Self::paper_default(seed)
        }
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Matrix,
    assignments: Vec<usize>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Fits k-means to `data` (rows = samples).
    ///
    /// If `data` has fewer rows than `config.k`, the effective K is clamped
    /// to the number of rows (every sample becomes its own cluster) — this
    /// mirrors how a node with very little data still produces summaries.
    ///
    /// # Panics
    /// Panics if `data` is empty or `config.k == 0`.
    pub fn fit(data: &Matrix, config: &KMeansConfig) -> Self {
        Self::fit_with_pool(data, config, par::global())
    }

    /// [`KMeans::fit`] on an explicit, injectable pool handle.
    ///
    /// The fit is bit-identical for every `pool.threads()` value
    /// (chunked kernels with ordered partial reductions); a 1-thread
    /// pool is the inline serial reference.
    pub fn fit_with_pool(data: &Matrix, config: &KMeansConfig, pool: &ThreadPool) -> Self {
        assert!(config.k > 0, "k must be positive");
        assert!(data.rows() > 0, "cannot cluster an empty dataset");
        let k = config.k.min(data.rows());
        // Deterministic leader-side span: the fit runs on the caller's
        // thread and its iteration count is bit-identical for any pool.
        let _fit_span = telemetry::span(
            "cluster.kmeans",
            &[("k", k as u64), ("rows", data.rows() as u64)],
        );
        let mut rng = rng::rng_for(config.seed, 0xC1_15_7E_12);

        let init_span = telemetry::span("cluster.kmeans.init", &[]);
        let mut centroids = init_plus_plus(data, k, &mut rng);
        init_span.finish();

        let mut assignments = vec![0usize; data.rows()];
        let mut iterations = 0;
        let mut converged = false;

        for it in 0..config.max_iters {
            iterations = it + 1;
            let _iter_span = telemetry::span("cluster.kmeans.iter", &[("iter", it as u64)]);
            {
                let _s = telemetry::span("cluster.kmeans.assign", &[]);
                assign(data, &centroids, &mut assignments, pool);
            }
            let update_span = telemetry::span("cluster.kmeans.update", &[]);
            let new_centroids =
                recompute_centroids(data, &assignments, k, &centroids, &mut rng, pool);
            update_span.finish();
            let movement: f64 = (0..k)
                .map(|c| ops::squared_distance(centroids.row(c), new_centroids.row(c)))
                .sum();
            centroids = new_centroids;
            if movement <= config.tol {
                converged = true;
                break;
            }
        }
        telemetry::counter!("qens_cluster_kmeans_iterations_total").add(iterations as u64);
        telemetry::trace::instant(
            "cluster.kmeans.done",
            &[
                ("iterations", iterations as u64),
                ("converged", u64::from(converged)),
            ],
        );
        // Final assignment against the final centroids.
        let finalize_span = telemetry::span("cluster.kmeans.finalize", &[]);
        assign(data, &centroids, &mut assignments, pool);
        let inertia = compute_inertia(data, &centroids, &assignments, pool);
        finalize_span.finish();
        Self {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    /// Cluster representatives `u_k`, one per row.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Number of clusters actually fitted.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Per-sample cluster assignment.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Quantisation loss (Eq. 1): sum of squared distances of every sample
    /// to its representative.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Lloyd iterations executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Index of the nearest centroid to `point`.
    pub fn predict(&self, point: &[f64]) -> usize {
        nearest_centroid(&self.centroids, point).0
    }

    /// Sample indices belonging to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }
}

fn nearest_centroid(centroids: &Matrix, point: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, row) in centroids.row_iter().enumerate() {
        let d = ops::squared_distance(row, point);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// Lloyd assignment over fixed row chunks: each pool task fills a
/// disjoint slice of `assignments`. Elementwise, so trivially
/// worker-count independent.
fn assign(data: &Matrix, centroids: &Matrix, assignments: &mut [usize], pool: &ThreadPool) {
    assert_eq!(assignments.len(), data.rows(), "one assignment per row");
    pool.for_each_chunk(assignments, ROW_CHUNK, |offset, part| {
        for (j, slot) in part.iter_mut().enumerate() {
            *slot = nearest_centroid(centroids, data.row(offset + j)).0;
        }
    });
}

/// Quantisation loss (Eq. 1) as ordered per-chunk partial sums: chunk
/// boundaries depend only on the row count, and the partials are reduced
/// in chunk order, so the value is bit-identical for any worker count.
fn compute_inertia(
    data: &Matrix,
    centroids: &Matrix,
    assignments: &[usize],
    pool: &ThreadPool,
) -> f64 {
    pool.map_chunks(data.rows(), ROW_CHUNK, |range| {
        range
            .map(|i| ops::squared_distance(data.row(i), centroids.row(assignments[i])))
            .sum::<f64>()
    })
    .iter()
    .sum()
}

/// Recomputes centroids as member means; an emptied cluster is re-seeded at
/// the sample farthest from its current centroid so K never degrades.
///
/// The member sums are accumulated as per-chunk partial `(sums, counts)`
/// pairs reduced in chunk order — deterministic for any worker count.
fn recompute_centroids(
    data: &Matrix,
    assignments: &[usize],
    k: usize,
    old: &Matrix,
    rng: &mut impl Rng,
    pool: &ThreadPool,
) -> Matrix {
    let d = data.cols();
    let partials: Vec<(Matrix, Vec<usize>)> = pool.map_chunks(data.rows(), ROW_CHUNK, |range| {
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in range {
            let a = assignments[i];
            ops::axpy(1.0, data.row(i), sums.row_mut(a));
            counts[a] += 1;
        }
        (sums, counts)
    });
    let mut sums = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (part_sums, part_counts) in partials {
        sums.axpy_inplace(1.0, &part_sums);
        for (total, part) in counts.iter_mut().zip(&part_counts) {
            *total += part;
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f64;
            ops::scale(inv, sums.row_mut(c));
        } else {
            // Empty-cluster repair: move it onto the sample farthest from
            // its previous position (ties broken by a random member).
            telemetry::counter!("qens_cluster_kmeans_empty_repairs_total").incr();
            let far = data
                .row_iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    let da = ops::squared_distance(a, old.row(c));
                    let db = ops::squared_distance(b, old.row(c));
                    da.partial_cmp(&db).expect("distances are finite")
                })
                .map(|(i, _)| i)
                .unwrap_or_else(|| rng.gen_range(0..data.rows()));
            sums.row_mut(c).copy_from_slice(data.row(far));
        }
    }
    sums
}

fn init_plus_plus(data: &Matrix, k: usize, rng: &mut impl Rng) -> Matrix {
    let n = data.rows();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..n));
    // d2[i] = squared distance of sample i to its nearest chosen centre.
    let mut d2: Vec<f64> = (0..n)
        .map(|i| ops::squared_distance(data.row(i), data.row(chosen[0])))
        .collect();
    while chosen.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining mass at distance zero (duplicated points):
            // fall back to uniform choice.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        chosen.push(next);
        for (i, best) in d2.iter_mut().enumerate() {
            let d = ops::squared_distance(data.row(i), data.row(next));
            if d < *best {
                *best = d;
            }
        }
    }
    data.select_rows(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::rng::rng_for;

    /// Three well-separated Gaussian blobs in 2-D.
    fn blobs(seed: u64, per_blob: usize) -> (Matrix, Vec<usize>) {
        let centers = [[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]];
        let mut rng = rng_for(seed, 1);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for _ in 0..per_blob {
                rows.push(vec![
                    linalg::rng::normal(&mut rng, c[0], 0.5),
                    linalg::rng::normal(&mut rng, c[1], 0.5),
                ]);
                labels.push(ci);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, labels) = blobs(42, 60);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(3, 7));
        assert!(model.iterations() < 100, "no convergence");
        // Every blob must map to a single distinct cluster.
        let mut blob_to_cluster = [usize::MAX; 3];
        for (i, &lab) in labels.iter().enumerate() {
            let a = model.assignments()[i];
            if blob_to_cluster[lab] == usize::MAX {
                blob_to_cluster[lab] = a;
            }
            assert_eq!(blob_to_cluster[lab], a, "blob {lab} split across clusters");
        }
        let mut seen = blob_to_cluster.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3, "two blobs merged");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, _) = blobs(1, 40);
        let cfg = KMeansConfig::paper_default(99);
        let a = KMeans::fit(&data, &cfg);
        let b = KMeans::fit(&data, &cfg);
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.inertia(), b.inertia());
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (data, _) = blobs(5, 50);
        let mut last = f64::INFINITY;
        for k in [1, 2, 3, 5, 8] {
            let m = KMeans::fit(&data, &KMeansConfig::with_k(k, 3));
            assert!(m.inertia() <= last + 1e-9, "inertia went up at k={k}");
            last = m.inertia();
        }
    }

    #[test]
    fn clamps_k_to_sample_count() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(5, 0));
        assert_eq!(m.k(), 2);
        assert!(m.inertia() < 1e-12);
    }

    #[test]
    fn single_cluster_centroid_is_the_mean() {
        let data = Matrix::from_rows(&[vec![0.0, 2.0], vec![2.0, 4.0], vec![4.0, 0.0]]);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(1, 0));
        assert_eq!(m.centroids().row(0), &[2.0, 2.0]);
        assert!(m.iterations() < 100, "no convergence");
    }

    #[test]
    fn predict_matches_training_assignments() {
        let (data, _) = blobs(9, 30);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(3, 4));
        for (i, row) in data.row_iter().enumerate() {
            assert_eq!(m.predict(row), m.assignments()[i]);
        }
    }

    #[test]
    fn members_partition_the_samples() {
        let (data, _) = blobs(3, 25);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(3, 11));
        let mut seen = vec![false; data.rows()];
        for c in 0..m.k() {
            for i in m.members(c) {
                assert!(!seen[i], "sample {i} in two clusters");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn duplicate_points_do_not_break_init() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(3, 8));
        assert!(m.inertia() < 1e-12);
        assert!(m.centroids().all_finite());
    }

    #[test]
    fn fit_is_bit_identical_across_pool_sizes() {
        // > ROW_CHUNK samples so the pooled path really splits the rows
        // into several chunks.
        let (data, _) = blobs(17, 500); // 1500 rows
        let cfg = KMeansConfig::with_k(4, 13);
        let serial = KMeans::fit_with_pool(&data, &cfg, &par::ThreadPool::new(1));
        for threads in [2, 4, 7] {
            let pooled = KMeans::fit_with_pool(&data, &cfg, &par::ThreadPool::new(threads));
            assert_eq!(serial.centroids(), pooled.centroids(), "{threads} threads");
            assert_eq!(serial.assignments(), pooled.assignments());
            assert_eq!(serial.inertia().to_bits(), pooled.inertia().to_bits());
            assert_eq!(serial.iterations(), pooled.iterations());
        }
    }

    #[test]
    fn assign_chunked_matches_predict() {
        let (data, _) = blobs(21, 400); // 1200 rows, crosses a chunk edge
        let m = KMeans::fit(&data, &KMeansConfig::with_k(3, 2));
        let pool = par::ThreadPool::new(3);
        let mut assignments = vec![0usize; data.rows()];
        assign(&data, m.centroids(), &mut assignments, &pool);
        for (i, row) in data.row_iter().enumerate() {
            assert_eq!(assignments[i], m.predict(row));
        }
    }
}

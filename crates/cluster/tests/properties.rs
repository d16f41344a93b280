//! Property-style tests for the k-means substrate (deterministic sweeps
//! over the in-tree RNG; no proptest needed offline).

use cluster::privacy::{noise_summaries, PrivacyBudget};
use cluster::{
    estimate, kmeans::KMeansConfig, quality, summary, KMeans, MiniBatchKMeans, SummaryTable,
};
use geom::Query;
use linalg::rng::{rng_for, Rng};
use linalg::Matrix;

const CASES: usize = 64;

fn random_dataset(rng: &mut impl Rng, max_rows: usize, dim: usize) -> Matrix {
    let n = rng.gen_range(2..=max_rows);
    Matrix::from_vec(
        n,
        dim,
        (0..n * dim).map(|_| rng.gen_range(-100.0..100.0)).collect(),
    )
}

/// Lloyd's algorithm never assigns a sample to a non-nearest centroid
/// after the final iteration.
#[test]
fn final_assignments_are_nearest() {
    let mut rng = rng_for(0xC1, 1);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 40, 3);
        let k = rng.gen_range(1..6usize);
        let seed = rng.gen_range(0..1000u64);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(k, seed));
        for (i, row) in data.row_iter().enumerate() {
            assert_eq!(m.predict(row), m.assignments()[i]);
        }
    }
}

/// Inertia equals the independent quantisation-loss computation.
#[test]
fn inertia_consistent_with_eq1() {
    let mut rng = rng_for(0xC1, 2);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 30, 2);
        let seed = rng.gen_range(0..100u64);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(3, seed));
        let q = quality::quantization_loss(&data, m.centroids());
        assert!((q - m.inertia()).abs() <= 1e-6 * m.inertia().max(1.0));
    }
}

/// Summaries partition the dataset and their rects cover all members.
#[test]
fn summaries_partition_and_cover() {
    let mut rng = rng_for(0xC1, 3);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 40, 3);
        let k = rng.gen_range(1..7usize);
        let seed = rng.gen_range(0..100u64);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(k, seed));
        let sums = summary::summarize(&data, &m);
        assert_eq!(sums.iter().map(|s| s.size).sum::<usize>(), data.rows());
        for s in &sums {
            assert!(s.size > 0);
            for i in m.members(s.cluster_id) {
                assert!(s.rect.contains_point(data.row(i)));
            }
        }
    }
}

/// Fitting is deterministic in (data, config).
#[test]
fn fit_is_deterministic() {
    let mut rng = rng_for(0xC1, 4);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 25, 2);
        let seed = rng.gen_range(0..50u64);
        let cfg = KMeansConfig::with_k(4, seed);
        let a = KMeans::fit(&data, &cfg);
        let b = KMeans::fit(&data, &cfg);
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.assignments(), b.assignments());
    }
}

/// Cardinality estimates are bounded by the node's total samples and
/// agree exactly on the all-covering query.
#[test]
fn cardinality_estimate_bounds() {
    let mut rng = rng_for(0xC1, 6);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 40, 2);
        let seed = rng.gen_range(0..50u64);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(4, seed));
        let sums = summary::summarize(&data, &m);
        let bounds = geom::HyperRect::bounding_points(data.row_iter()).unwrap();
        let grown: Vec<f64> = bounds
            .to_boundary_vec()
            .chunks(2)
            .flat_map(|b| [b[0] - 1.0, b[1] + 1.0])
            .collect();
        let all = Query::from_boundary_vec(0, &grown);
        let est = estimate::node_cardinality(&SummaryTable::new(&sums), &all);
        assert!(
            (est - data.rows() as f64).abs() < 1e-6,
            "all-cover estimate {est}"
        );
        // Any sub-query estimates within [0, total].
        let sub = Query::new(1, bounds);
        let e = estimate::node_cardinality(&SummaryTable::new(&sums), &sub);
        assert!((0.0..=data.rows() as f64 + 1e-9).contains(&e));
    }
}

/// Noised summaries keep the invariants the leader relies on.
#[test]
fn private_summaries_stay_valid() {
    let mut rng = rng_for(0xC1, 7);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng, 40, 2);
        let eps = rng.gen_range(0.01..10.0);
        let seed = rng.gen_range(0..50u64);
        let m = KMeans::fit(&data, &KMeansConfig::with_k(4, seed));
        let sums = summary::summarize(&data, &m);
        let noised = noise_summaries(&sums, &PrivacyBudget::new(eps), seed);
        assert_eq!(noised.len(), sums.len());
        for s in &noised {
            assert!(s.size >= 1);
            for iv in s.rect.intervals() {
                assert!(iv.lo() <= iv.hi());
                assert!(iv.lo().is_finite() && iv.hi().is_finite());
            }
        }
    }
}

/// Mini-batch updates never lose or invent mass and keep centroids
/// inside the hull of everything seen.
#[test]
fn minibatch_centroids_stay_in_hull() {
    let mut rng = rng_for(0xC1, 8);
    for _ in 0..CASES {
        let init = random_dataset(&mut rng, 30, 2);
        let batch = random_dataset(&mut rng, 30, 2);
        let seed = rng.gen_range(0..50u64);
        let mut mb = MiniBatchKMeans::new(&init, 3, seed);
        let before = mb.total_count();
        mb.update(&batch);
        assert_eq!(mb.total_count(), before + batch.rows() as u64);
        let hull =
            geom::HyperRect::bounding_points(init.row_iter().chain(batch.row_iter())).unwrap();
        for c in mb.centroids().row_iter() {
            assert!(
                hull.contains_point(c),
                "centroid {c:?} escaped the data hull"
            );
        }
    }
}

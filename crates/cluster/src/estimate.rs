//! Cardinality estimation from cluster summaries.
//!
//! The leader never sees raw data, only each cluster's bounding rectangle
//! and member count. Assuming members are roughly uniform inside their
//! rectangle — the standard synopsis assumption of the aggregate-query
//! estimation line the paper builds on (Savva et al.) — the leader can
//! *estimate* how many samples a query would touch on each node before
//! committing to a selection, again with zero communication.

use geom::{HyperRect, Query};

use crate::summary::ClusterSummary;

/// Estimated number of a cluster's members falling inside `query`,
/// under the uniform-within-rectangle assumption: the member count
/// scaled by the per-dimension fractional overlap of the intersection.
///
/// Degenerate (zero-length) cluster dimensions count as fully covered
/// when the query spans them and as empty otherwise.
pub fn cluster_cardinality(summary: &ClusterSummary, query: &Query) -> f64 {
    intersection_fraction(&summary.rect, query) * summary.size as f64
}

/// The fraction of `rect`'s volume that intersects the query, treating
/// each dimension independently (product of per-dimension coverage).
fn intersection_fraction(rect: &HyperRect, query: &Query) -> f64 {
    assert_eq!(
        rect.dim(),
        query.dim(),
        "rect/query dimensionality mismatch"
    );
    let mut frac = 1.0;
    for (k_iv, q_iv) in rect.intervals().iter().zip(query.region().intervals()) {
        match k_iv.intersection(q_iv) {
            None => return 0.0,
            Some(inter) => {
                let len = k_iv.length();
                if len > 0.0 {
                    frac *= inter.length() / len;
                }
                // Zero-length cluster dimension inside the query: the
                // whole (degenerate) extent is covered; factor 1.
            }
        }
    }
    frac
}

/// Estimated samples a query touches on a node, from its summaries.
pub fn node_cardinality(summaries: &[ClusterSummary], query: &Query) -> f64 {
    summaries
        .iter()
        .map(|s| cluster_cardinality(s, query))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{KMeans, KMeansConfig};
    use crate::summary::summarize;
    use linalg::rng::Rng;
    use linalg::rng::{rng_for, standard_normal};
    use linalg::Matrix;

    fn uniform_square(n: usize, seed: u64) -> Matrix {
        let mut rng = rng_for(seed, 1);
        Matrix::from_rows(
            &(0..n)
                .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn full_cover_query_estimates_everything() {
        let data = uniform_square(200, 1);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(4, 2));
        let sums = summarize(&data, &model);
        let q = Query::from_boundary_vec(0, &[-1.0, 11.0, -1.0, 11.0]);
        let est = node_cardinality(&sums, &q);
        assert!((est - 200.0).abs() < 1e-9, "estimate {est}");
    }

    #[test]
    fn disjoint_query_estimates_zero() {
        let data = uniform_square(100, 2);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(3, 3));
        let sums = summarize(&data, &model);
        let q = Query::from_boundary_vec(0, &[100.0, 110.0, 100.0, 110.0]);
        assert_eq!(node_cardinality(&sums, &q), 0.0);
    }

    #[test]
    fn uniform_data_estimates_are_accurate() {
        let data = uniform_square(2000, 3);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(5, 4));
        let sums = summarize(&data, &model);
        let q = Query::from_boundary_vec(0, &[2.0, 7.0, 3.0, 9.0]);
        let est = node_cardinality(&sums, &q);
        let truth = q.filter_indices(data.row_iter()).len();
        let err = (est - truth as f64).abs() / truth as f64;
        assert!(err < 0.2, "estimate {est} vs truth {truth} (err {err})");
    }

    #[test]
    fn clustered_gaussian_estimate_is_at_least_order_correct() {
        let mut rng = rng_for(5, 2);
        let rows: Vec<Vec<f64>> = (0..1500)
            .map(|_| {
                vec![
                    3.0 * standard_normal(&mut rng),
                    3.0 * standard_normal(&mut rng),
                ]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(8, 6));
        let sums = summarize(&data, &model);
        let q = Query::from_boundary_vec(0, &[-2.0, 2.0, -2.0, 2.0]);
        let est = node_cardinality(&sums, &q);
        let truth = q.filter_indices(data.row_iter()).len();
        assert!(
            est > truth as f64 * 0.3 && est < truth as f64 * 3.0,
            "estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn degenerate_cluster_dimension_counts_fully_when_covered() {
        // A cluster whose second dimension is a single point.
        let data = Matrix::from_rows(&[vec![0.0, 5.0], vec![1.0, 5.0], vec![2.0, 5.0]]);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(1, 0));
        let sums = summarize(&data, &model);
        let covering = Query::from_boundary_vec(0, &[0.0, 2.0, 0.0, 10.0]);
        assert!((node_cardinality(&sums, &covering) - 3.0).abs() < 1e-9);
        let missing = Query::from_boundary_vec(0, &[0.0, 2.0, 6.0, 10.0]);
        assert_eq!(node_cardinality(&sums, &missing), 0.0);
    }
}

//! Cluster summaries: what a node actually ships to the leader.
//!
//! Per §III-C the nodes "just send to the leader the boundaries of their
//! clusters and the number of the clusters per node" — a
//! [`ClusterSummary`] is exactly that payload: the per-dimension min/max
//! rectangle of the members, the representative `u_k`, and the member
//! count (used for data-volume accounting in Fig. 9).

use geom::HyperRect;
use linalg::Matrix;

use crate::kmeans::KMeans;

/// Summary of a single non-empty cluster on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster index within the node (0..K).
    pub cluster_id: usize,
    /// Number of member samples.
    pub size: usize,
    /// The representative `u_k` (centroid).
    pub representative: Vec<f64>,
    /// Per-dimension min/max rectangle of the members.
    pub rect: HyperRect,
}

impl ClusterSummary {
    /// Serialized payload size in bytes (used by the edge-network cost
    /// model): boundary vector + representative + two counters.
    pub fn wire_bytes(&self) -> usize {
        let d = self.rect.dim();
        (2 * d + d) * std::mem::size_of::<f64>() + 2 * std::mem::size_of::<u64>()
    }
}

/// Summarises every *non-empty* cluster of a fitted model.
///
/// Empty clusters (possible when K exceeds the diversity of the data)
/// simply do not produce summaries; the `K` the node reports is the
/// number of summaries returned.
pub fn summarize(data: &Matrix, model: &KMeans) -> Vec<ClusterSummary> {
    let mut out = Vec::with_capacity(model.k());
    for c in 0..model.k() {
        let members = model.members(c);
        if members.is_empty() {
            continue;
        }
        let rect = HyperRect::bounding_points(members.iter().map(|&i| data.row(i)))
            .expect("non-empty member set always yields a bounding box");
        out.push(ClusterSummary {
            cluster_id: c,
            size: members.len(),
            representative: model.centroids().row(c).to_vec(),
            rect,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansConfig;
    use geom::Interval;

    fn two_blob_data() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64 * 0.01, 1.0 + i as f64 * 0.01]);
        }
        for i in 0..20 {
            rows.push(vec![100.0 + i as f64 * 0.01, -50.0 + i as f64 * 0.01]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn summaries_cover_their_members() {
        let data = two_blob_data();
        let model = KMeans::fit(&data, &KMeansConfig::with_k(2, 3));
        let sums = summarize(&data, &model);
        assert_eq!(sums.len(), 2);
        for s in &sums {
            for i in model.members(s.cluster_id) {
                assert!(s.rect.contains_point(data.row(i)));
            }
            assert!(
                s.rect.contains_point(&s.representative),
                "centroid outside its own rect"
            );
        }
        assert_eq!(sums.iter().map(|s| s.size).sum::<usize>(), data.rows());
    }

    #[test]
    fn rects_are_tight() {
        // One cluster, so the rect must be the dataset bounding box exactly.
        let data = Matrix::from_rows(&[vec![1.0, -5.0], vec![4.0, 2.0], vec![2.0, 0.0]]);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(1, 0));
        let sums = summarize(&data, &model);
        assert_eq!(
            sums[0].rect.intervals(),
            &[Interval::new(1.0, 4.0), Interval::new(-5.0, 2.0)]
        );
    }

    #[test]
    fn wire_bytes_scales_with_dimension() {
        let data = two_blob_data();
        let model = KMeans::fit(&data, &KMeansConfig::with_k(2, 3));
        let s = &summarize(&data, &model)[0];
        // d = 2: 4 boundary f64 + 2 representative f64 + 2 u64 counters.
        assert_eq!(s.wire_bytes(), 6 * 8 + 2 * 8);
    }

    #[test]
    fn singleton_cluster_has_point_rect() {
        let data = Matrix::from_rows(&[vec![0.0], vec![100.0]]);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(2, 1));
        let sums = summarize(&data, &model);
        assert_eq!(sums.len(), 2);
        for s in &sums {
            assert_eq!(s.size, 1);
            assert_eq!(s.rect.interval(0).length(), 0.0);
        }
    }
}

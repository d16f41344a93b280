//! Cluster summaries: what a node actually ships to the leader.
//!
//! Per §III-C the nodes "just send to the leader the boundaries of their
//! clusters and the number of the clusters per node". [`summarize`]
//! describes each non-empty cluster of a fitted model as a
//! [`ClusterSummary`]: the per-dimension min/max rectangle of the
//! members, the representative `u_k` and the member count (used for
//! data-volume accounting in Fig. 9).
//!
//! The leader keeps less. A [`SummaryTable`] holds a node's summaries
//! flat, in one heap block: the rectangles' intervals contiguous, then a
//! full-width `(cluster_id, size)` per cluster. The representative is
//! dropped on intake, since no selection, index or ranking path reads
//! it. Readers borrow a [`ClusterView`] per cluster.

use std::mem::{align_of, size_of};

use geom::{HyperRect, Interval};
use linalg::Matrix;

use crate::kmeans::KMeans;

/// Summary of a single non-empty cluster on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster index within the node (0..K).
    pub cluster_id: usize,
    /// Number of member samples.
    pub size: usize,
    /// The representative `u_k` (centroid). [`SummaryTable`] does not
    /// keep it; only private release ([`crate::privacy`]) reads it.
    pub representative: Vec<f64>,
    /// Per-dimension min/max rectangle of the members.
    pub rect: HyperRect,
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

/// One cluster as the leader reads it, borrowed from a [`SummaryTable`]:
/// what Eq. 2–4 and the cardinality estimates need, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterView<'a> {
    /// Cluster index within the node.
    pub cluster_id: usize,
    /// Number of member samples.
    pub size: usize,
    /// Per-dimension min/max of the members, one interval per axis.
    pub bounds: &'a [Interval],
}

/// A node's cluster summaries as the leader keeps them, in summary
/// order and in one heap block: the K clusters' `d` intervals each,
/// contiguous (`K·d` cells), then each cluster's `(cluster_id, size)`
/// (`K` cells). The representative is not kept.
///
/// At a million summary-only nodes the block is most of the fleet: a
/// `Vec<ClusterSummary>` takes seven heap blocks for a three-cluster
/// node, the table one.
#[derive(Clone, Default)]
pub struct SummaryTable {
    dims: usize,
    cells: Box<[Cell]>,
}

/// One 16-byte cell of a [`SummaryTable`]: an interval, or a cluster's
/// `(cluster_id, size)` at full width.
#[derive(Clone, Copy)]
#[repr(C)]
union Cell {
    interval: Interval,
    meta: [u64; 2],
}

// `SummaryTable::split` lends the interval cells as `[Interval]`.
const _: () = assert!(
    size_of::<Cell>() == size_of::<Interval>() && align_of::<Cell>() == align_of::<Interval>()
);

impl SummaryTable {
    /// The table of `summaries`, without their representatives.
    ///
    /// # Panics
    /// Panics if the summaries' dimensionalities disagree.
    pub fn new(summaries: &[ClusterSummary]) -> Self {
        let dims = summaries.first().map_or(0, |s| s.rect.dim());
        let mut cells = Vec::with_capacity(summaries.len() * (dims + 1));
        for s in summaries {
            assert_eq!(s.rect.dim(), dims, "summary rect dim mismatch");
            cells.extend(s.rect.intervals().iter().map(|&interval| Cell { interval }));
        }
        cells.extend(summaries.iter().map(|s| Cell {
            meta: [s.cluster_id as u64, s.size as u64],
        }));
        Self {
            dims,
            cells: cells.into_boxed_slice(),
        }
    }

    /// Number of clusters `K`.
    pub fn len(&self) -> usize {
        self.cells.len() / (self.dims + 1)
    }

    /// True when the table holds no cluster.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Dimensionality `d` of the clusters' rectangles (0 when empty).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Every cluster's intervals, cluster after cluster: `K·d` of them,
    /// cluster `c`'s at `c·d..(c + 1)·d`.
    pub fn intervals(&self) -> &[Interval] {
        self.split().0
    }

    /// Cluster `c`, in summary order.
    ///
    /// # Panics
    /// Panics if `c >= len()`.
    pub fn get(&self, c: usize) -> ClusterView<'_> {
        let (intervals, meta) = self.split();
        view(intervals, self.dims, c, &meta[c])
    }

    /// The clusters in summary order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ClusterView<'_>> + '_ {
        let (intervals, meta) = self.split();
        let dims = self.dims;
        meta.iter()
            .enumerate()
            .map(move |(c, cell)| view(intervals, dims, c, cell))
    }

    /// The interval cells, lent as intervals, and the meta cells.
    fn split(&self) -> (&[Interval], &[Cell]) {
        let (intervals, meta) = self.cells.split_at(self.cells.len() - self.len());
        // SAFETY: `Cell` is a `repr(C)` union, so `interval` sits at
        // offset 0, and it has the size and alignment of `Interval`
        // (asserted above): the cells are laid out as a `[Interval]` of
        // the same length. `new` writes the first `K·d` cells through
        // `interval`, so each of them holds an initialised `Interval`.
        let intervals = unsafe {
            std::slice::from_raw_parts(intervals.as_ptr().cast::<Interval>(), intervals.len())
        };
        (intervals, meta)
    }
}

/// Cluster `c` of a table, given its intervals and its meta cell.
#[inline]
fn view<'a>(intervals: &'a [Interval], dims: usize, c: usize, meta: &Cell) -> ClusterView<'a> {
    // SAFETY: `SummaryTable::new` writes the meta cells through `meta`,
    // and every bit pattern is a valid `[u64; 2]`.
    let [cluster_id, size] = unsafe { meta.meta };
    ClusterView {
        cluster_id: cluster_id as usize,
        size: size as usize,
        bounds: &intervals[c * dims..(c + 1) * dims],
    }
}

impl PartialEq for SummaryTable {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for SummaryTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
    fn table_keeps_every_summary_but_its_representative() {
        let data = two_blob_data();
        let model = KMeans::fit(&data, &KMeansConfig::with_k(2, 3));
        let sums = summarize(&data, &model);
        let table = SummaryTable::new(&sums);
        assert_eq!((table.len(), table.dims()), (2, 2));
        assert_eq!(table.iter().len(), 2);
        for (c, (s, v)) in sums.iter().zip(table.iter()).enumerate() {
            assert_eq!((v.cluster_id, v.size), (s.cluster_id, s.size));
            assert_eq!(v.bounds, s.rect.intervals());
            assert_eq!(table.get(c), v);
            assert_eq!(&table.intervals()[2 * c..2 * c + 2], s.rect.intervals());
        }
        assert_eq!(table.clone(), table);
    }

    #[test]
    fn table_keeps_ids_and_sizes_at_full_width() {
        let wide = ClusterSummary {
            cluster_id: usize::MAX,
            size: u32::MAX as usize + 7,
            representative: Vec::new(),
            rect: HyperRect::from_boundary_vec(&[0.0, 1.0]),
        };
        let table = SummaryTable::new(&[wide]);
        let v = table.get(0);
        assert_eq!((v.cluster_id, v.size), (usize::MAX, u32::MAX as usize + 7));
    }

    #[test]
    fn empty_table_has_no_clusters() {
        let table = SummaryTable::default();
        assert!(table.is_empty());
        assert_eq!((table.len(), table.dims()), (0, 0));
        assert!(table.intervals().is_empty());
        assert_eq!(table, SummaryTable::new(&[]));
    }

    #[test]
    #[should_panic(expected = "summary rect dim mismatch")]
    fn table_rejects_mixed_dimensions() {
        let summary = |bounds: &[f64]| ClusterSummary {
            cluster_id: 0,
            size: 1,
            representative: Vec::new(),
            rect: HyperRect::from_boundary_vec(bounds),
        };
        SummaryTable::new(&[summary(&[0.0, 1.0]), summary(&[0.0, 1.0, 0.0, 1.0])]);
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

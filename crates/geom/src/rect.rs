//! d-dimensional hyper-rectangles and the data-overlapping rate (Eq. 2).

use crate::interval::Interval;

/// An axis-aligned hyper-rectangle: one [`Interval`] per data dimension.
///
/// Both cluster summaries (per-dimension min/max of the members) and
/// analytics queries are hyper-rectangles in the paper's formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperRect {
    dims: Vec<Interval>,
}

impl HyperRect {
    /// Builds a rectangle from per-dimension intervals.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn new(dims: Vec<Interval>) -> Self {
        assert!(
            !dims.is_empty(),
            "hyper-rectangle needs at least one dimension"
        );
        Self { dims }
    }

    /// Builds a rectangle from the paper's flat boundary vector
    /// `[x_1^min, x_1^max, …, x_d^min, x_d^max]`.
    ///
    /// # Panics
    /// Panics if the vector is empty, has odd length, or any `min > max`.
    pub fn from_boundary_vec(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty() && bounds.len().is_multiple_of(2),
            "boundary vector must have positive even length, got {}",
            bounds.len()
        );
        let dims = bounds
            .chunks_exact(2)
            .map(|c| Interval::new(c[0], c[1]))
            .collect();
        Self::new(dims)
    }

    /// The bounding box of a set of points (each point a `dim()`-length
    /// slice row in `points`).
    ///
    /// Returns `None` when `points` is empty.
    pub fn bounding_points<'a>(mut points: impl Iterator<Item = &'a [f64]>) -> Option<Self> {
        let first = points.next()?;
        let mut lo = first.to_vec();
        let mut hi = first.to_vec();
        for p in points {
            assert_eq!(p.len(), lo.len(), "inconsistent point dimensionality");
            for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(p) {
                *l = l.min(x);
                *h = h.max(x);
            }
        }
        Some(Self::new(
            lo.into_iter()
                .zip(hi)
                .map(|(l, h)| Interval::new(l, h))
                .collect(),
        ))
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension intervals.
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// Interval of dimension `d`.
    #[inline]
    pub fn interval(&self, d: usize) -> &Interval {
        &self.dims[d]
    }

    /// The paper's flat boundary vector `[x_1^min, x_1^max, …]`.
    pub fn to_boundary_vec(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 * self.dims.len());
        for i in &self.dims {
            v.push(i.lo());
            v.push(i.hi());
        }
        v
    }

    /// Geometric centre.
    pub fn center(&self) -> Vec<f64> {
        self.dims.iter().map(Interval::center).collect()
    }

    /// Product of side lengths (0 when any side is degenerate).
    pub fn volume(&self) -> f64 {
        self.dims.iter().map(Interval::length).product()
    }

    /// True when the point lies inside (boundaries inclusive).
    ///
    /// # Panics
    /// Panics if `point.len() != dim()`.
    pub fn contains_point(&self, point: &[f64]) -> bool {
        assert_eq!(point.len(), self.dim(), "point dimensionality mismatch");
        self.dims.iter().zip(point).all(|(i, &x)| i.contains(x))
    }

    /// True when the rectangles share at least one point.
    pub fn intersects(&self, other: &HyperRect) -> bool {
        assert_eq!(self.dim(), other.dim(), "rect dimensionality mismatch");
        self.dims
            .iter()
            .zip(&other.dims)
            .all(|(a, b)| a.intersects(b))
    }

    /// The intersection rectangle, or `None` when disjoint on any axis.
    pub fn intersection(&self, other: &HyperRect) -> Option<HyperRect> {
        assert_eq!(self.dim(), other.dim(), "rect dimensionality mismatch");
        let dims: Option<Vec<Interval>> = self
            .dims
            .iter()
            .zip(&other.dims)
            .map(|(a, b)| a.intersection(b))
            .collect();
        dims.map(HyperRect::new)
    }

    /// The smallest rectangle containing both.
    pub fn hull(&self, other: &HyperRect) -> HyperRect {
        assert_eq!(self.dim(), other.dim(), "rect dimensionality mismatch");
        HyperRect::new(
            self.dims
                .iter()
                .zip(&other.dims)
                .map(|(a, b)| a.hull(b))
                .collect(),
        )
    }

    /// Grows every side by `margin`.
    pub fn expanded(&self, margin: f64) -> HyperRect {
        HyperRect::new(self.dims.iter().map(|i| i.expanded(margin)).collect())
    }

    /// The paper's data-overlapping rate (Eq. 2) of `self` (a *query*
    /// rectangle) against `cluster`:
    ///
    /// `h_ik = (1/d) Σ_d h_ik^d`
    ///
    /// where `h_ik^d` is the five-case per-dimension ratio
    /// ([`Interval::overlap_ratio`]). Always in `[0, 1]`.
    pub fn overlap_rate(&self, cluster: &HyperRect) -> f64 {
        assert_eq!(self.dim(), cluster.dim(), "rect dimensionality mismatch");
        let sum: f64 = self
            .dims
            .iter()
            .zip(&cluster.dims)
            .map(|(q, k)| q.overlap_ratio(k))
            .sum();
        sum / self.dim() as f64
    }

    /// Volume-fraction overlap: `vol(q ∩ k) / vol(hull(q, k))`.
    ///
    /// This is the natural multiplicative alternative to the paper's
    /// additive Eq. 2 and is used only by `repro ablations`. It is much
    /// harsher: one disjoint dimension zeroes the whole score.
    pub fn volume_overlap(&self, cluster: &HyperRect) -> f64 {
        match self.intersection(cluster) {
            None => 0.0,
            Some(inter) => {
                let hull_vol = self.hull(cluster).volume();
                if hull_vol > 0.0 {
                    inter.volume() / hull_vol
                } else {
                    1.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> HyperRect {
        HyperRect::from_boundary_vec(&[0.0, 1.0, 0.0, 1.0])
    }

    #[test]
    fn boundary_vec_round_trips() {
        let r = HyperRect::from_boundary_vec(&[0.0, 1.0, -2.0, 3.0]);
        assert_eq!(r.dim(), 2);
        assert_eq!(r.to_boundary_vec(), vec![0.0, 1.0, -2.0, 3.0]);
        assert_eq!(r.center(), vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive even length")]
    fn odd_boundary_vec_rejected() {
        HyperRect::from_boundary_vec(&[0.0, 1.0, 2.0]);
    }

    #[test]
    fn bounding_points_covers_all_points() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 5.0], vec![2.0, -1.0], vec![1.0, 3.0]];
        let r = HyperRect::bounding_points(pts.iter().map(|p| p.as_slice())).unwrap();
        assert_eq!(r.to_boundary_vec(), vec![0.0, 2.0, -1.0, 5.0]);
        for p in &pts {
            assert!(r.contains_point(p));
        }
        assert!(HyperRect::bounding_points(std::iter::empty()).is_none());
    }

    #[test]
    fn volume_and_containment() {
        let r = HyperRect::from_boundary_vec(&[0.0, 2.0, 0.0, 3.0]);
        assert_eq!(r.volume(), 6.0);
        assert!(r.contains_point(&[0.0, 3.0]));
        assert!(!r.contains_point(&[2.1, 1.0]));
    }

    #[test]
    fn intersection_and_hull() {
        let a = unit_square();
        let b = HyperRect::from_boundary_vec(&[0.5, 2.0, 0.5, 2.0]);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.to_boundary_vec(), vec![0.5, 1.0, 0.5, 1.0]);
        let h = a.hull(&b);
        assert_eq!(h.to_boundary_vec(), vec![0.0, 2.0, 0.0, 2.0]);
    }

    #[test]
    fn disjoint_on_one_axis_means_disjoint() {
        let a = unit_square();
        let b = HyperRect::from_boundary_vec(&[0.0, 1.0, 5.0, 6.0]);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.volume_overlap(&b), 0.0);
        // But the additive Eq. 2 rate still credits the overlapping axis.
        assert_eq!(a.overlap_rate(&b), 0.5);
    }

    #[test]
    fn overlap_rate_identical_rects_is_one() {
        let a = unit_square();
        assert_eq!(a.overlap_rate(&a), 1.0);
        assert_eq!(a.volume_overlap(&a), 1.0);
    }

    #[test]
    fn overlap_rate_averages_dimensions() {
        // dim 0: query [0,1] inside cluster [0,2] -> 0.5
        // dim 1: identical -> 1.0
        let q = HyperRect::from_boundary_vec(&[0.0, 1.0, 0.0, 1.0]);
        let k = HyperRect::from_boundary_vec(&[0.0, 2.0, 0.0, 1.0]);
        assert!((q.overlap_rate(&k) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn expanded_contains_original() {
        let r = unit_square().expanded(0.5);
        assert_eq!(r.to_boundary_vec(), vec![-0.5, 1.5, -0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_dims_panic() {
        let a = unit_square();
        let b = HyperRect::from_boundary_vec(&[0.0, 1.0]);
        a.overlap_rate(&b);
    }
}

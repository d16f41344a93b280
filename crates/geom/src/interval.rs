//! Closed 1-D intervals and the paper's five-case overlap ratio.

/// A closed interval `[lo, hi]` on one data dimension.
///
/// `lo == hi` (a degenerate, point interval) is allowed: it arises
/// naturally when a cluster contains a single sample or a constant
/// feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

/// How a query interval relates to a cluster interval on one dimension.
///
/// These are exactly the five cases of the paper's Fig. 3 and Fig. 4
/// (Fig. 4's two sub-figures are both [`OverlapCase::Disjoint`]; the fifth
/// case — cluster strictly inside the query — is stated in the text as
/// "five overlapping cases" and recovered here by symmetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlapCase {
    /// Fig. 3a: both query boundaries lie inside the cluster boundaries.
    QueryInsideCluster,
    /// Fig. 3b: only the query's minimum boundary lies inside the cluster
    /// (the query extends beyond the cluster's maximum).
    PartialLow,
    /// Fig. 3c: only the query's maximum boundary lies inside the cluster
    /// (the query starts below the cluster's minimum).
    PartialHigh,
    /// The cluster lies entirely inside the query.
    ClusterInsideQuery,
    /// Fig. 4: the intervals do not intersect.
    Disjoint,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "interval bounds must be finite ({lo}, {hi})"
        );
        assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        Self { lo, hi }
    }

    /// Lower bound.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Length `hi - lo` (0 for a point interval).
    #[inline]
    pub fn length(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    #[inline]
    pub fn center(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// True when `x` lies in `[lo, hi]`.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True when `other` lies entirely within `self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// True when the two intervals share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The intersection interval, or `None` when disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// The smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Classifies the relation of a *query* interval (`self`) against a
    /// *cluster* interval per the paper's five cases.
    ///
    /// Boundary ties resolve toward containment: a query exactly equal to
    /// the cluster is [`OverlapCase::QueryInsideCluster`] (the ratio is 1
    /// either way).
    pub fn overlap_case(&self, cluster: &Interval) -> OverlapCase {
        let q = self;
        let k = cluster;
        if !q.intersects(k) {
            OverlapCase::Disjoint
        } else if k.contains_interval(q) {
            OverlapCase::QueryInsideCluster
        } else if q.contains_interval(k) {
            OverlapCase::ClusterInsideQuery
        } else if q.lo >= k.lo {
            // q starts inside the cluster and ends above it (Fig. 3b).
            OverlapCase::PartialLow
        } else {
            // q starts below the cluster and ends inside it (Fig. 3c).
            OverlapCase::PartialHigh
        }
    }

    /// The paper's per-dimension overlap ratio `h_{ik}^d`, written as the
    /// explicit five-case expressions of §III-C:
    ///
    /// * query inside cluster: `(q_max − q_min) / (k_max − k_min)`
    /// * partial low (Fig. 3b): `(k_max − q_min) / (q_max − k_min)`
    /// * partial high (Fig. 3c): `(q_max − k_min) / (k_max − q_min)`
    /// * cluster inside query: `(k_max − k_min) / (q_max − q_min)`
    /// * disjoint: `0`
    ///
    /// Every case is the interval Jaccard `|q∩k| / |span(q∪k)|` (see
    /// [`Interval::jaccard`], property-tested equal), except that
    /// degenerate (zero-width) intervals are defined by membership, not
    /// measure: a point interval that lies inside the other interval
    /// overlaps fully (1), otherwise not at all (0). A point query asks
    /// for exactly one value; a cluster that covers that value can serve
    /// it completely, and a single-valued cluster dimension (one sample,
    /// or a constant feature) inside the query range is fully requested.
    /// Without this branch the five-case formulas divide 0/0 for, e.g., a
    /// point query sharing a boundary with a point cluster — the NaN then
    /// poisons every downstream ranking sort.
    pub fn overlap_ratio(&self, cluster: &Interval) -> f64 {
        let q = self;
        let k = cluster;
        if q.length() == 0.0 || k.length() == 0.0 {
            return if q.intersects(k) { 1.0 } else { 0.0 };
        }
        // Both lengths are strictly positive from here on, so every
        // denominator below is strictly positive (the partial cases span
        // at least the longer of the two overlapping intervals): the
        // divisions can produce neither NaN nor infinity.
        match q.overlap_case(k) {
            OverlapCase::Disjoint => 0.0,
            OverlapCase::QueryInsideCluster => q.length() / k.length(),
            OverlapCase::PartialLow => (k.hi - q.lo) / (q.hi - k.lo),
            OverlapCase::PartialHigh => (q.hi - k.lo) / (k.hi - q.lo),
            OverlapCase::ClusterInsideQuery => k.length() / q.length(),
        }
    }

    /// Interval Jaccard: `|q ∩ k| / |hull(q, k)|`, the closed form of
    /// [`Interval::overlap_ratio`] — including the membership rule for
    /// degenerate intervals (a point inside the other interval gives 1,
    /// outside gives 0), so the two stay property-test equal.
    ///
    /// Identical intervals give 1 (including identical points); disjoint
    /// intervals give 0; two distinct non-degenerate intervals touching
    /// at a single point give 0 (a measure-zero shared range).
    pub fn jaccard(&self, other: &Interval) -> f64 {
        if self.length() == 0.0 || other.length() == 0.0 {
            return if self.intersects(other) { 1.0 } else { 0.0 };
        }
        match self.intersection(other) {
            None => 0.0,
            Some(inter) => inter.length() / self.hull(other).length(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(-1.0, 3.0);
        assert_eq!(i.lo(), -1.0);
        assert_eq!(i.hi(), 3.0);
        assert_eq!(i.length(), 4.0);
        assert_eq!(i.center(), 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn inverted_bounds_rejected() {
        Interval::new(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_bounds_rejected() {
        Interval::new(f64::NEG_INFINITY, 0.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = Interval::new(0.0, 10.0);
        let b = Interval::new(2.0, 4.0);
        assert!(a.contains_interval(&b));
        assert!(!b.contains_interval(&a));
        assert_eq!(a.intersection(&b), Some(b));
        assert_eq!(a.hull(&b), a);
        assert!(a.contains(0.0) && a.contains(10.0) && !a.contains(10.1));
    }

    #[test]
    fn disjoint_intersection_is_none() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert_eq!(a.intersection(&b), None);
        assert!(!a.intersects(&b));
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
    }

    #[test]
    fn touching_intervals_intersect_at_a_point() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, 2.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(Interval::new(1.0, 1.0)));
        // Measure-zero intersection contributes no overlap.
        assert_eq!(a.overlap_ratio(&b), 0.0);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    // ---- the five paper cases (Fig. 3 and Fig. 4) ----

    #[test]
    fn case1_query_inside_cluster() {
        let q = Interval::new(2.0, 4.0);
        let k = Interval::new(0.0, 10.0);
        assert_eq!(q.overlap_case(&k), OverlapCase::QueryInsideCluster);
        // (q_max - q_min) / (k_max - k_min) = 2/10
        assert_eq!(q.overlap_ratio(&k), 0.2);
    }

    #[test]
    fn case2_partial_low_only_query_min_inside() {
        let q = Interval::new(6.0, 14.0);
        let k = Interval::new(0.0, 10.0);
        assert_eq!(q.overlap_case(&k), OverlapCase::PartialLow);
        // (k_max - q_min) / (q_max - k_min) = 4/14
        assert!((q.overlap_ratio(&k) - 4.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn case3_partial_high_only_query_max_inside() {
        let q = Interval::new(-4.0, 4.0);
        let k = Interval::new(0.0, 10.0);
        assert_eq!(q.overlap_case(&k), OverlapCase::PartialHigh);
        // (q_max - k_min) / (k_max - q_min) = 4/14
        assert!((q.overlap_ratio(&k) - 4.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn case4_disjoint_both_directions() {
        let k = Interval::new(0.0, 10.0);
        let right = Interval::new(11.0, 12.0); // q_min > k_max (Fig. 4a)
        let left = Interval::new(-5.0, -1.0); // q_max < k_min (Fig. 4b)
        assert_eq!(right.overlap_case(&k), OverlapCase::Disjoint);
        assert_eq!(left.overlap_case(&k), OverlapCase::Disjoint);
        assert_eq!(right.overlap_ratio(&k), 0.0);
        assert_eq!(left.overlap_ratio(&k), 0.0);
    }

    #[test]
    fn case5_cluster_inside_query() {
        let q = Interval::new(-10.0, 20.0);
        let k = Interval::new(0.0, 10.0);
        assert_eq!(q.overlap_case(&k), OverlapCase::ClusterInsideQuery);
        // (k_max - k_min) / (q_max - q_min) = 10/30
        assert!((q.overlap_ratio(&k) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn identical_intervals_overlap_fully() {
        let a = Interval::new(1.0, 2.0);
        assert_eq!(a.overlap_case(&a), OverlapCase::QueryInsideCluster);
        assert_eq!(a.overlap_ratio(&a), 1.0);
        assert_eq!(a.jaccard(&a), 1.0);
    }

    #[test]
    fn identical_point_intervals_overlap_fully() {
        let p = Interval::new(3.0, 3.0);
        assert_eq!(p.overlap_ratio(&p), 1.0);
        assert_eq!(p.jaccard(&p), 1.0);
    }

    /// Degenerate semantics: a point query inside a wide cluster is
    /// fully served (the cluster covers the one requested value), so
    /// the ratio is 1, not the measure-theoretic 0.
    #[test]
    fn point_query_inside_wide_cluster_overlaps_fully() {
        let p = Interval::new(5.0, 5.0);
        let k = Interval::new(0.0, 10.0);
        assert_eq!(p.overlap_case(&k), OverlapCase::QueryInsideCluster);
        assert_eq!(p.overlap_ratio(&k), 1.0);
        assert_eq!(p.jaccard(&k), 1.0);
    }

    /// Regression (degenerate-interval sweep): a single-valued cluster
    /// dimension — one sample, or a constant feature — must score 1
    /// inside the query range and 0 outside, never NaN. The boundary
    /// cases (point exactly on a query bound, point query on a point
    /// cluster) are the 0/0 shapes that used to be reachable.
    #[test]
    fn single_valued_cluster_dimension_never_yields_nan() {
        let q = Interval::new(0.0, 10.0);
        for (cluster, expected) in [
            (Interval::new(5.0, 5.0), 1.0),   // inside
            (Interval::new(0.0, 0.0), 1.0),   // on the low bound
            (Interval::new(10.0, 10.0), 1.0), // on the high bound
            (Interval::new(-1.0, -1.0), 0.0), // outside (below)
            (Interval::new(11.0, 11.0), 0.0), // outside (above)
        ] {
            let r = q.overlap_ratio(&cluster);
            assert!(r.is_finite(), "NaN/inf for cluster {cluster:?}");
            assert_eq!(r, expected, "cluster {cluster:?}");
            // Symmetric: the degenerate interval as the query side.
            assert_eq!(cluster.overlap_ratio(&q), expected);
            assert_eq!(q.jaccard(&cluster), expected);
        }
        // Point query vs point cluster: 0/0 in every five-case formula.
        assert_eq!(
            Interval::new(3.0, 3.0).overlap_ratio(&Interval::new(3.0, 3.0)),
            1.0
        );
        assert_eq!(
            Interval::new(3.0, 3.0).overlap_ratio(&Interval::new(4.0, 4.0)),
            0.0
        );
        // Point sitting exactly on the boundary of a wide interval: the
        // PartialLow/PartialHigh formulas would divide 0 by the width
        // sum only by luck of case classification; the membership rule
        // makes the answer principled.
        assert_eq!(Interval::new(10.0, 10.0).overlap_ratio(&q), 1.0);
    }

    #[test]
    fn ratio_is_bounded_by_one() {
        let q = Interval::new(0.0, 8.0);
        for (lo, hi) in [
            (0.0, 8.0),
            (2.0, 6.0),
            (-3.0, 5.0),
            (4.0, 20.0),
            (-100.0, 100.0),
        ] {
            let k = Interval::new(lo, hi);
            let r = q.overlap_ratio(&k);
            assert!(
                (0.0..=1.0).contains(&r),
                "ratio {r} for cluster [{lo},{hi}]"
            );
        }
    }
}

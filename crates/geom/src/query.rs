//! Analytics queries as bounded regions of the data space.

use crate::rect::HyperRect;

/// An analytics query `q` (§III-C): a request to build a model over the
/// data falling inside a hyper-rectangular region of the feature space.
///
/// The paper expresses it as the boundary vector
/// `q = [q_1^min, q_1^max, …, q_d^min, q_d^max]`; [`Query::region`]
/// exposes it as a [`HyperRect`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    id: u64,
    region: HyperRect,
}

impl Query {
    /// Creates a query with an explicit identifier.
    pub fn new(id: u64, region: HyperRect) -> Self {
        Self { id, region }
    }

    /// Creates a query from the paper's flat boundary vector.
    ///
    /// # Panics
    /// Panics under the same conditions as
    /// [`HyperRect::from_boundary_vec`].
    pub fn from_boundary_vec(id: u64, bounds: &[f64]) -> Self {
        Self::new(id, HyperRect::from_boundary_vec(bounds))
    }

    /// The query identifier (position in the issued workload).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The requested data region.
    #[inline]
    pub fn region(&self) -> &HyperRect {
        &self.region
    }

    /// Query dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.region.dim()
    }

    /// The paper's boundary-vector form.
    pub fn to_boundary_vec(&self) -> Vec<f64> {
        self.region.to_boundary_vec()
    }

    /// Indices of the `points` that fall inside the query region.
    pub fn filter_indices<'a>(&self, points: impl Iterator<Item = &'a [f64]>) -> Vec<usize> {
        points
            .enumerate()
            .filter(|(_, p)| self.region.contains_point(p))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_vec_round_trip() {
        let q = Query::from_boundary_vec(7, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(q.id(), 7);
        assert_eq!(q.dim(), 2);
        assert_eq!(q.to_boundary_vec(), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn filter_indices_returns_positions() {
        let q = Query::from_boundary_vec(0, &[0.0, 1.0]);
        // A point on the boundary is inside.
        let pts: Vec<Vec<f64>> = vec![vec![2.0], vec![0.5], vec![0.9], vec![-1.0], vec![1.0]];
        assert_eq!(
            q.filter_indices(pts.iter().map(|p| p.as_slice())),
            vec![1, 2, 4]
        );
    }
}

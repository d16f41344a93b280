//! Global-space feature scaling.
//!
//! Gradient training on raw air-quality magnitudes (CO reaches thousands)
//! diverges at the paper's learning rates, so — like the Keras pipelines
//! the paper used — data is normalised before training. In a federation
//! the only scaling statistics *every* party can agree on without moving
//! data are the global data-space bounds, which the leader already knows
//! from the nodes' cluster summaries. [`SpaceScaler`] min-max scales the
//! joint space onto `[0, 1]` per dimension and is broadcast with the
//! initial model; losses reported by different nodes are then directly
//! comparable.

use geom::HyperRect;
use linalg::Matrix;
use mlkit::DenseDataset;

/// Min-max scaler derived from a joint-space bounding rectangle
/// (features first, label last — the [`crate::EdgeNode::joint`] layout).
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceScaler {
    bounds: Vec<(f64, f64)>,
}

impl SpaceScaler {
    /// Builds a scaler from a joint-space rectangle.
    pub fn from_space(space: &HyperRect) -> Self {
        Self {
            bounds: space
                .intervals()
                .iter()
                .map(|iv| (iv.lo(), iv.hi()))
                .collect(),
        }
    }

    /// Joint dimensionality (features + label).
    pub fn dim(&self) -> usize {
        self.bounds.len()
    }

    fn fwd(&self, d: usize, v: f64) -> f64 {
        let (lo, hi) = self.bounds[d];
        let span = hi - lo;
        if span > 0.0 {
            (v - lo) / span
        } else {
            0.0
        }
    }

    /// Scales a supervised dataset (features = dims `0..d-1`, label =
    /// dim `d-1`) onto the unit cube.
    ///
    /// # Panics
    /// Panics if `data.dim() + 1 != self.dim()`.
    pub fn transform_dataset(&self, data: &DenseDataset) -> DenseDataset {
        let d = data.dim();
        assert_eq!(
            d + 1,
            self.dim(),
            "dataset width {} != scaler joint dim {}",
            d + 1,
            self.dim()
        );
        let mut x = Matrix::zeros(data.len(), d);
        for (i, row) in data.x().row_iter().enumerate() {
            let out = x.row_mut(i);
            for (j, &v) in row.iter().enumerate() {
                out[j] = self.fwd(j, v);
            }
        }
        let y: Vec<f64> = data.y().iter().map(|&v| self.fwd(d, v)).collect();
        DenseDataset::new(x, y)
    }

    /// Scales one joint row (features, then the label) onto the unit
    /// cube with [`SpaceScaler::transform_dataset`]'s arithmetic: the
    /// scaled features into `features` (cleared first), the scaled label
    /// returned.
    ///
    /// # Panics
    /// Panics if `joint.len() != self.dim()`.
    pub fn transform_joint_row(&self, joint: &[f64], features: &mut Vec<f64>) -> f64 {
        assert_eq!(
            joint.len(),
            self.dim(),
            "row width {} != scaler joint dim {}",
            joint.len(),
            self.dim()
        );
        let d = joint.len() - 1;
        features.clear();
        features.extend(joint[..d].iter().enumerate().map(|(j, &v)| self.fwd(j, v)));
        self.fwd(d, joint[d])
    }

    /// Converts a *scaled-space* MSE back to original label units
    /// (multiplies by the squared label span), so losses can be reported
    /// in the dataset's natural units.
    pub fn unscale_mse(&self, scaled_mse: f64) -> f64 {
        let (lo, hi) = self.bounds[self.dim() - 1];
        let span = hi - lo;
        scaled_mse * span * span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::HyperRect;

    fn scaler() -> SpaceScaler {
        SpaceScaler::from_space(&HyperRect::from_boundary_vec(&[0.0, 10.0, 100.0, 300.0]))
    }

    fn toy() -> DenseDataset {
        DenseDataset::new(
            Matrix::from_rows(&[vec![0.0], vec![5.0], vec![10.0]]),
            vec![100.0, 200.0, 300.0],
        )
    }

    #[test]
    fn transform_maps_bounds_to_unit_interval() {
        let t = scaler().transform_dataset(&toy());
        assert_eq!(t.x().col(0), vec![0.0, 0.5, 1.0]);
        assert_eq!(t.y(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn unscale_mse_applies_squared_span() {
        let s = scaler();
        // Label span is 200, so scaled MSE of 0.01 is 0.01 * 200^2 = 400.
        assert!((s.unscale_mse(0.01) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_dimension_is_safe() {
        let s = SpaceScaler::from_space(&HyperRect::from_boundary_vec(&[5.0, 5.0, 0.0, 1.0]));
        let ds = DenseDataset::new(Matrix::from_rows(&[vec![5.0]]), vec![0.5]);
        let t = s.transform_dataset(&ds);
        assert_eq!(t.x()[(0, 0)], 0.0);
        assert_eq!(s.unscale_mse(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "scaler joint dim")]
    fn wrong_width_rejected() {
        let ds = DenseDataset::new(Matrix::from_rows(&[vec![1.0, 2.0]]), vec![0.0]);
        scaler().transform_dataset(&ds);
    }
}

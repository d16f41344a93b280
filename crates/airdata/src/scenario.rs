//! Ready-made node populations for the experiments.
//!
//! Three builders cover everything the evaluation needs:
//!
//! * [`realistic_nodes_multi`] — the §V-A setting: 10 of the 12 air-quality
//!   stations, one input feature (PM10) and one label (PM2.5) per node.
//! * [`homogeneous_nodes`] — the §II "similar participants" setting
//!   behind Table I / Fig. 1: every node samples the same relation, so
//!   any selection mechanism performs alike.
//! * [`heterogeneous_nodes`] — the §II "dissimilar participants" setting
//!   behind Table II / Fig. 2: nodes occupy shifted data ranges and some
//!   even invert the feature/label relation, so random selection is
//!   catastrophic.

use mlkit::DenseDataset;

use linalg::rng as lrng;
use linalg::Matrix;

use crate::generate::{generate_station, GeneratorConfig};
use crate::impute;
use crate::profile::StationProfile;
use crate::schema::Feature;

/// A node's dataset plus its provenance label.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeData {
    /// Human-readable origin (station name or synthetic spec).
    pub name: String,
    /// The node's local supervised dataset `D_k`.
    pub dataset: DenseDataset,
}

/// The paper's realistic setting: `n_nodes ≤ 12` stations, each node's
/// dataset pairing the `inputs` features with one label feature. The
/// paper uses one input (PM10 → PM2.5); its formulation is d-dimensional
/// throughout (queries are `2d`-boundary vectors), so the joint space is
/// `inputs.len() + 1` dimensional.
///
/// Missing values are forward-filled before extraction.
///
/// # Panics
/// Panics if `n_nodes` is outside `1..=12`, `inputs` is empty, or the
/// label appears among the inputs.
pub fn realistic_nodes_multi(
    n_nodes: usize,
    hours: u64,
    seed: u64,
    inputs: &[Feature],
    label: Feature,
) -> Vec<NodeData> {
    assert!(
        (1..=12).contains(&n_nodes),
        "the dataset has 12 stations; {n_nodes} nodes requested"
    );
    assert!(!inputs.is_empty(), "need at least one input feature");
    assert!(
        !inputs.contains(&label),
        "label {label:?} cannot also be an input"
    );
    let profiles = StationProfile::all();
    profiles[..n_nodes]
        .iter()
        .map(|p| {
            let mut data = generate_station(p, &GeneratorConfig::short(hours, seed));
            impute::forward_fill(&mut data);
            let x = data.to_matrix(inputs);
            let y = data.feature_column(label);
            NodeData {
                name: p.name.clone(),
                dataset: DenseDataset::new(x, y),
            }
        })
        .collect()
}

/// Generation spec for one synthetic regression node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Uniform input range `[lo, hi)`.
    pub x_range: (f64, f64),
    /// Linear slope of the label on the input.
    pub slope: f64,
    /// Label intercept.
    pub intercept: f64,
    /// Gaussian label-noise standard deviation.
    pub noise_std: f64,
}

impl NodeSpec {
    /// Samples `n` points from the spec.
    pub fn sample(&self, n: usize, seed: u64) -> DenseDataset {
        use linalg::rng::Rng;
        let mut rng = lrng::rng_for(seed, 0x5CE_EA10);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.gen_range(self.x_range.0..self.x_range.1);
            let y = self.slope * x + self.intercept + lrng::normal(&mut rng, 0.0, self.noise_std);
            xs.push(vec![x]);
            ys.push(y);
        }
        DenseDataset::new(Matrix::from_rows(&xs), ys)
    }
}

/// Specs for the homogeneous population: every node shares the same
/// relation and input range (§II, Table I / Fig. 1).
pub fn homogeneous_specs(n_nodes: usize) -> Vec<NodeSpec> {
    assert!(n_nodes > 0, "need at least one node");
    (0..n_nodes)
        .map(|_| NodeSpec {
            x_range: (0.0, 50.0),
            slope: 1.8,
            intercept: 5.0,
            noise_std: 5.0,
        })
        .collect()
}

/// Specs for the heterogeneous population (§II, Table II / Fig. 2).
///
/// Node 0 is the *leader-like* pattern; node 1 repeats it (the compatible
/// node the mechanism should find); the remaining nodes walk away from it
/// in range, slope sign and magnitude — the paper's "negative in one
/// participant and positive in the other" observation.
pub fn heterogeneous_specs(n_nodes: usize) -> Vec<NodeSpec> {
    assert!(
        n_nodes >= 2,
        "heterogeneous scenario needs at least leader + one node"
    );
    let mut specs = Vec::with_capacity(n_nodes);
    // Leader pattern and its compatible twin.
    specs.push(NodeSpec {
        x_range: (0.0, 20.0),
        slope: 2.0,
        intercept: 3.0,
        noise_std: 2.0,
    });
    specs.push(NodeSpec {
        x_range: (1.0, 21.0),
        slope: 2.0,
        intercept: 3.5,
        noise_std: 2.0,
    });
    // Everything else: progressively shifted, scaled and sign-flipped.
    let templates = [
        NodeSpec {
            x_range: (30.0, 55.0),
            slope: -2.5,
            intercept: 120.0,
            noise_std: 3.0,
        },
        NodeSpec {
            x_range: (60.0, 90.0),
            slope: 0.4,
            intercept: -40.0,
            noise_std: 4.0,
        },
        NodeSpec {
            x_range: (-40.0, -10.0),
            slope: -4.0,
            intercept: -15.0,
            noise_std: 3.0,
        },
        NodeSpec {
            x_range: (100.0, 140.0),
            slope: 6.0,
            intercept: 300.0,
            noise_std: 8.0,
        },
        NodeSpec {
            x_range: (15.0, 45.0),
            slope: -1.0,
            intercept: 60.0,
            noise_std: 2.5,
        },
        NodeSpec {
            x_range: (-80.0, -50.0),
            slope: 3.0,
            intercept: 200.0,
            noise_std: 5.0,
        },
        NodeSpec {
            x_range: (200.0, 260.0),
            slope: -0.8,
            intercept: 250.0,
            noise_std: 6.0,
        },
        NodeSpec {
            x_range: (50.0, 70.0),
            slope: 5.0,
            intercept: -150.0,
            noise_std: 4.0,
        },
    ];
    for i in 2..n_nodes {
        let t = &templates[(i - 2) % templates.len()];
        // Shift repeated templates so very large populations stay distinct.
        let lap = ((i - 2) / templates.len()) as f64;
        specs.push(NodeSpec {
            x_range: (t.x_range.0 + 300.0 * lap, t.x_range.1 + 300.0 * lap),
            ..t.clone()
        });
    }
    specs
}

/// Materialises a population of synthetic nodes from specs.
pub fn nodes_from_specs(specs: &[NodeSpec], samples_per_node: usize, seed: u64) -> Vec<NodeData> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| NodeData {
            name: format!("synthetic-{i}"),
            dataset: s.sample(samples_per_node, lrng::derive_seed(seed, i as u64)),
        })
        .collect()
}

/// The homogeneous population (§II, Table I / Fig. 1).
pub fn homogeneous_nodes(n_nodes: usize, samples_per_node: usize, seed: u64) -> Vec<NodeData> {
    nodes_from_specs(&homogeneous_specs(n_nodes), samples_per_node, seed)
}

/// The heterogeneous population (§II, Table II / Fig. 2).
pub fn heterogeneous_nodes(n_nodes: usize, samples_per_node: usize, seed: u64) -> Vec<NodeData> {
    nodes_from_specs(&heterogeneous_specs(n_nodes), samples_per_node, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::stats;

    #[test]
    fn realistic_nodes_have_expected_shape() {
        let nodes = realistic_nodes_multi(10, 500, 3, &[Feature::Pm10], Feature::Pm25);
        assert_eq!(nodes.len(), 10);
        for n in &nodes {
            assert_eq!(n.dataset.len(), 500);
            assert_eq!(n.dataset.dim(), 1);
            assert!(
                n.dataset.x().all_finite(),
                "{} has NaNs after imputation",
                n.name
            );
            assert!(n.dataset.y().iter().all(|v| v.is_finite()));
        }
        // Distinct stations -> distinct data.
        assert_ne!(nodes[0].dataset, nodes[1].dataset);
    }

    #[test]
    #[should_panic(expected = "12 stations")]
    fn too_many_realistic_nodes_rejected() {
        realistic_nodes_multi(13, 10, 0, &[Feature::Pm10], Feature::Pm25);
    }

    #[test]
    fn homogeneous_nodes_share_their_pattern() {
        let nodes = homogeneous_nodes(10, 400, 7);
        assert_eq!(nodes.len(), 10);
        let slopes: Vec<f64> = nodes
            .iter()
            .map(|n| {
                let xs = n.dataset.x().col(0);
                stats::ols_line(&xs, n.dataset.y()).0
            })
            .collect();
        for s in &slopes {
            assert!(
                (s - 1.8).abs() < 0.15,
                "slope {s} strays from the shared pattern"
            );
        }
    }

    #[test]
    fn heterogeneous_nodes_disagree_in_slope_sign_and_range() {
        let nodes = heterogeneous_nodes(10, 400, 9);
        let specs = heterogeneous_specs(10);
        // The compatible twin matches the leader.
        assert_eq!(specs[0].slope, specs[1].slope);
        // At least one node inverts the relation.
        assert!(specs.iter().any(|s| s.slope < 0.0));
        // Ranges of leader and node 2 are disjoint.
        assert!(specs[2].x_range.0 > specs[0].x_range.1);
        // Materialised data respects the spec ranges.
        for (node, spec) in nodes.iter().zip(&specs) {
            let xs = node.dataset.x().col(0);
            let (lo, hi) = stats::min_max(&xs).unwrap();
            assert!(lo >= spec.x_range.0 && hi <= spec.x_range.1);
        }
    }

    #[test]
    fn large_heterogeneous_population_stays_distinct() {
        let specs = heterogeneous_specs(14);
        assert_eq!(specs.len(), 14);
        // Template repeats are shifted, not identical.
        assert_ne!(specs[2].x_range, specs[10].x_range);
    }

    #[test]
    fn node_sampling_is_deterministic() {
        let a = heterogeneous_nodes(5, 100, 42);
        let b = heterogeneous_nodes(5, 100, 42);
        assert_eq!(a, b);
        let c = heterogeneous_nodes(5, 100, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn spec_sampling_respects_noise() {
        let spec = NodeSpec {
            x_range: (0.0, 10.0),
            slope: 1.0,
            intercept: 0.0,
            noise_std: 0.0,
        };
        let ds = spec.sample(50, 1);
        for (row, &y) in ds.x().row_iter().zip(ds.y()) {
            assert!((y - row[0]).abs() < 1e-12, "noise-free spec must be exact");
        }
    }
}

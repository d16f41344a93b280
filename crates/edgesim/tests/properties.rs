//! Property-style tests for the edge-environment substrate
//! (deterministic sweeps over the in-tree RNG; no proptest needed
//! offline).

use edgesim::{CostModel, EdgeNetwork, SpaceScaler};
use linalg::rng::{rng_for, Rng};
use linalg::Matrix;
use mlkit::DenseDataset;

const CASES: usize = 32;

/// 1–5 nodes with random offsets and sizes.
fn random_network(rng: &mut impl Rng) -> EdgeNetwork {
    let count = rng.gen_range(1..5usize);
    let datasets = (0..count)
        .map(|i| {
            let offset = rng.gen_range(-100.0..100.0);
            let n = rng.gen_range(5..40usize);
            let x = Matrix::from_rows(&(0..n).map(|j| vec![offset + j as f64]).collect::<Vec<_>>());
            let y: Vec<f64> = (0..n).map(|j| offset * 0.5 + j as f64 * 2.0).collect();
            (format!("node-{i}"), DenseDataset::new(x, y))
        })
        .collect();
    EdgeNetwork::from_datasets(datasets)
}

/// The global space contains every joint point of every node.
#[test]
fn global_space_is_a_hull() {
    let mut rng = rng_for(0xED6E, 1);
    for _ in 0..CASES {
        let net = random_network(&mut rng);
        let space = net.global_space();
        for node in net.nodes() {
            for row in node.joint().row_iter() {
                assert!(space.contains_point(row));
            }
        }
    }
}

/// Quantisation with any K partitions every node's data.
#[test]
fn quantisation_partitions() {
    let mut rng = rng_for(0xED6E, 2);
    for _ in 0..CASES {
        let mut net = random_network(&mut rng);
        let k = rng.gen_range(1..7usize);
        let seed = rng.gen_range(0..100u64);
        net.quantize_all(k, seed);
        for node in net.nodes() {
            let covered: usize = node.summaries().iter().map(|s| s.size).sum();
            assert_eq!(covered, node.len());
            assert!(node.k() <= k.min(node.len()));
        }
    }
}

/// Scaling the joint space maps every node's data into [0, 1] and
/// inverts exactly on labels: a scaled label times the global label
/// span, plus its low end, is the raw label.
#[test]
fn space_scaler_bounds_and_inverts() {
    let mut rng = rng_for(0xED6E, 3);
    for _ in 0..CASES {
        let net = random_network(&mut rng);
        let space = net.global_space();
        let label = space.interval(space.dim() - 1);
        let scaler = SpaceScaler::from_space(&space);
        for node in net.nodes() {
            let t = scaler.transform_dataset(node.data());
            for &v in t.x().as_slice() {
                assert!((-1e-9..=1.0 + 1e-9).contains(&v));
            }
            for (&v, &raw) in t.y().iter().zip(node.data().y()) {
                assert!((-1e-9..=1.0 + 1e-9).contains(&v));
                let round = v * label.length() + label.lo();
                assert!((round - raw).abs() < 1e-6 * raw.abs().max(1.0));
            }
        }
    }
}

/// Cost model monotonicity: more work or more bytes never costs less.
#[test]
fn cost_model_is_monotone() {
    let mut rng = rng_for(0xED6E, 4);
    for _ in 0..CASES {
        let v1 = rng.gen_range(0..100_000usize);
        let v2 = rng.gen_range(0..100_000usize);
        let b1 = rng.gen_range(0..1_000_000usize);
        let b2 = rng.gen_range(0..1_000_000usize);
        let cap = rng.gen_range(0.1..10.0);
        let m = CostModel::default();
        let (vlo, vhi) = (v1.min(v2), v1.max(v2));
        let (blo, bhi) = (b1.min(b2), b1.max(b2));
        assert!(m.training_seconds(vlo, cap) <= m.training_seconds(vhi, cap));
        assert!(m.transfer_seconds(blo) <= m.transfer_seconds(bhi));
        // The slower of two nodes is the one with more of both.
        let fast = m.training_seconds(vlo, cap) + m.transfer_seconds(blo);
        let slow = m.training_seconds(vhi, cap) + m.transfer_seconds(bhi);
        assert!(fast <= slow);
    }
}

/// Cardinality estimates never exceed the node's sample count and the
/// exact count is bounded the same way.
#[test]
fn cardinality_bounds() {
    let mut rng = rng_for(0xED6E, 5);
    for _ in 0..CASES {
        let mut net = random_network(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let qx = rng.gen_range(-150.0..150.0);
        let qw = rng.gen_range(1.0..100.0);
        net.quantize_all(4, seed);
        let space = net.global_space();
        let y = space.interval(1);
        let q = geom::Query::from_boundary_vec(0, &[qx, qx + qw, y.lo() - 1.0, y.hi() + 1.0]);
        for node in net.nodes() {
            let est = node.estimated_query_cardinality(&q);
            let exact = node.exact_query_cardinality(&q);
            assert!(est >= -1e-9 && est <= node.len() as f64 + 1e-9);
            assert!(exact <= node.len());
        }
    }
}

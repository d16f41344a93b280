//! Property-style tests for the linalg substrate.
//!
//! Each test sweeps a few hundred pseudo-random cases drawn from the
//! in-tree deterministic RNG — same coverage shape as the previous
//! proptest suite, but reproducible bit-for-bit and dependency-free.

use linalg::rng::{rng_for, Rng};
use linalg::{matrix::Matrix, ops, stats};

const CASES: usize = 200;

fn random_matrix(rng: &mut impl Rng, max_rows: usize, max_cols: usize) -> Matrix {
    let r = rng.gen_range(1..=max_rows);
    let c = rng.gen_range(1..=max_cols);
    let data: Vec<f64> = (0..r * c).map(|_| rng.gen_range(-1e6..1e6)).collect();
    Matrix::from_vec(r, c, data)
}

fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect()
}

fn vec_pair(rng: &mut impl Rng, max_len: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rng.gen_range(1..=max_len);
    (random_vec(rng, n), random_vec(rng, n))
}

#[test]
fn transpose_is_an_involution() {
    let mut rng = rng_for(0xA110, 1);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 12, 12);
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn matmul_with_identity_is_identity() {
    let mut rng = rng_for(0xA110, 2);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 8, 8);
        let i = Matrix::identity(m.cols());
        let p = m.matmul(&i);
        for (a, b) in p.as_slice().iter().zip(m.as_slice()) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
    }
}

#[test]
fn matmul_transpose_identity() {
    // (A B)^T == B^T A^T.
    let mut rng = rng_for(0xA110, 3);
    for _ in 0..CASES {
        let (m, k, n) = (
            rng.gen_range(1..=6usize),
            rng.gen_range(1..=6usize),
            rng.gen_range(1..=6usize),
        );
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-1e3..1e3)).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.gen_range(-1e3..1e3)).collect());
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_eq!(lhs.shape(), rhs.shape());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() <= 1e-6 * y.abs().max(1.0));
        }
    }
}

#[test]
fn dot_is_commutative() {
    let mut rng = rng_for(0xA110, 4);
    for _ in 0..CASES {
        let (a, b) = vec_pair(&mut rng, 64);
        let ab = ops::dot(&a, &b);
        let ba = ops::dot(&b, &a);
        assert!((ab - ba).abs() <= 1e-9 * ab.abs().max(1.0));
    }
}

#[test]
fn squared_distance_is_symmetric_and_nonnegative() {
    let mut rng = rng_for(0xA110, 5);
    for _ in 0..CASES {
        let (a, b) = vec_pair(&mut rng, 64);
        let d1 = ops::squared_distance(&a, &b);
        let d2 = ops::squared_distance(&b, &a);
        assert!(d1 >= 0.0);
        assert!((d1 - d2).abs() <= 1e-9 * d1.max(1.0));
        assert_eq!(ops::squared_distance(&a, &a), 0.0);
    }
}

#[test]
fn triangle_inequality() {
    let mut rng = rng_for(0xA110, 6);
    for _ in 0..CASES {
        let (a, b) = vec_pair(&mut rng, 32);
        let t = rng.gen_range(0.0..1.0);
        let mid = ops::lerp(&a, &b, t);
        let direct = ops::distance(&a, &b);
        let via = ops::distance(&a, &mid) + ops::distance(&mid, &b);
        assert!(via <= direct + 1e-6 * direct.max(1.0));
    }
}

#[test]
fn percentile_is_monotone() {
    let mut rng = rng_for(0xA110, 9);
    for _ in 0..CASES {
        let n = rng.gen_range(1..=128usize);
        let xs = random_vec(&mut rng, n);
        let p1 = rng.gen_range(0.0..100.0);
        let p2 = rng.gen_range(0.0..100.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&xs, lo).unwrap();
        let b = stats::percentile(&xs, hi).unwrap();
        assert!(a <= b + 1e-9);
    }
}

#[test]
fn pearson_is_bounded() {
    let mut rng = rng_for(0xA110, 10);
    for _ in 0..CASES {
        let (a, b) = vec_pair(&mut rng, 64);
        let r = stats::pearson(&a, &b);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
    }
}

#[test]
fn column_stats_consistent_with_slice_stats() {
    let mut rng = rng_for(0xA110, 11);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 16, 4);
        let means = stats::column_means(&m);
        for (c, &mu) in means.iter().enumerate() {
            let col = m.col(c);
            assert!((mu - stats::mean(&col)).abs() <= 1e-9 * mu.abs().max(1.0));
        }
    }
}

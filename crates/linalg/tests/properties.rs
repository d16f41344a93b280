//! Property-style tests for the linalg substrate.
//!
//! Each test sweeps a few hundred pseudo-random cases drawn from the
//! in-tree deterministic RNG — same coverage shape as the previous
//! proptest suite, but reproducible bit-for-bit and dependency-free.

use linalg::rng::{rng_for, Rng};
use linalg::{ops, stats};

const CASES: usize = 200;

fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect()
}

fn vec_pair(rng: &mut impl Rng, max_len: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rng.gen_range(1..=max_len);
    (random_vec(rng, n), random_vec(rng, n))
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
        let mid: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + t * (y - x)).collect();
        let direct = ops::distance(&a, &b);
        let via = ops::distance(&a, &mid) + ops::distance(&mid, &b);
        assert!(via <= direct + 1e-6 * direct.max(1.0));
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

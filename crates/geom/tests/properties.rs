//! Property-style tests for the overlap geometry.
//!
//! The most important property in this file proves the design note in
//! DESIGN.md: the paper's explicit five-case overlap ratio equals the
//! interval Jaccard for every pair of intervals. Cases are swept with
//! the in-tree deterministic RNG (no proptest needed offline).

use geom::{HyperRect, Interval, OverlapCase, Query};
use linalg::rng::{rng_for, Rng};

const CASES: usize = 300;

fn random_interval(rng: &mut impl Rng) -> Interval {
    let lo = rng.gen_range(-1e6..1e6);
    let len = rng.gen_range(0.0..1e6);
    Interval::new(lo, lo + len)
}

fn random_rect(rng: &mut impl Rng, dim: usize) -> HyperRect {
    HyperRect::new((0..dim).map(|_| random_interval(rng)).collect())
}

/// A pair of rects of equal dimensionality in `1..=max_dim`.
fn rect_pair(rng: &mut impl Rng, max_dim: usize) -> (HyperRect, HyperRect) {
    let d = rng.gen_range(1..=max_dim);
    (random_rect(rng, d), random_rect(rng, d))
}

/// The paper's five explicit case formulas collapse to the interval
/// Jaccard — all five cases, including degenerate intervals.
#[test]
fn five_case_ratio_equals_interval_jaccard() {
    let mut rng = rng_for(0x6E0, 1);
    for _ in 0..CASES {
        let q = random_interval(&mut rng);
        let k = random_interval(&mut rng);
        let five = q.overlap_ratio(&k);
        let jac = q.jaccard(&k);
        assert!(
            (five - jac).abs() <= 1e-12 * jac.max(1.0),
            "five-case {five} vs jaccard {jac} for q={q:?} k={k:?}"
        );
    }
}

#[test]
fn overlap_ratio_is_bounded() {
    let mut rng = rng_for(0x6E0, 2);
    for _ in 0..CASES {
        let q = random_interval(&mut rng);
        let k = random_interval(&mut rng);
        let r = q.overlap_ratio(&k);
        assert!((0.0..=1.0).contains(&r), "ratio {r}");
    }
}

/// Jaccard is symmetric, so the five-case ratio must be too.
#[test]
fn overlap_ratio_is_symmetric() {
    let mut rng = rng_for(0x6E0, 3);
    for _ in 0..CASES {
        let q = random_interval(&mut rng);
        let k = random_interval(&mut rng);
        let a = q.overlap_ratio(&k);
        let b = k.overlap_ratio(&q);
        assert!((a - b).abs() <= 1e-12, "asymmetry {a} vs {b}");
    }
}

#[test]
fn disjoint_case_iff_zero_ratio_or_touching() {
    let mut rng = rng_for(0x6E0, 4);
    for _ in 0..CASES {
        let q = random_interval(&mut rng);
        let k = random_interval(&mut rng);
        match q.overlap_case(&k) {
            OverlapCase::Disjoint => assert_eq!(q.overlap_ratio(&k), 0.0),
            _ => {
                // Non-disjoint cases may still produce 0 when the shared
                // region is a single point (measure zero).
                assert!(q.overlap_ratio(&k) >= 0.0);
            }
        }
    }
}

#[test]
fn intersection_is_contained_in_both() {
    let mut rng = rng_for(0x6E0, 5);
    for _ in 0..CASES {
        let (x, y) = rect_pair(&mut rng, 5);
        if let Some(i) = x.intersection(&y) {
            for (d, iv) in i.intervals().iter().enumerate() {
                assert!(x.interval(d).contains_interval(iv));
                assert!(y.interval(d).contains_interval(iv));
            }
        }
    }
}

#[test]
fn hull_contains_both() {
    let mut rng = rng_for(0x6E0, 6);
    for _ in 0..CASES {
        let (x, y) = rect_pair(&mut rng, 5);
        let h = x.hull(&y);
        for d in 0..x.dim() {
            assert!(h.interval(d).contains_interval(x.interval(d)));
            assert!(h.interval(d).contains_interval(y.interval(d)));
        }
    }
}

#[test]
fn overlap_rate_bounded_and_symmetric() {
    let mut rng = rng_for(0x6E0, 7);
    for _ in 0..CASES {
        let (q, k) = rect_pair(&mut rng, 6);
        let a = q.overlap_rate(&k);
        let b = k.overlap_rate(&q);
        assert!((0.0..=1.0 + 1e-12).contains(&a));
        assert!((a - b).abs() <= 1e-12);
    }
}

#[test]
fn volume_overlap_never_exceeds_eq2_rate_by_am_gm() {
    // vol ratio = prod(h_d') with each factor <= the per-dim jaccard,
    // and Eq.2 is the arithmetic mean of per-dim jaccards, so by
    // AM >= GM the volume score never exceeds the Eq.2 score.
    let mut rng = rng_for(0x6E0, 8);
    for _ in 0..CASES {
        let (q, k) = rect_pair(&mut rng, 6);
        assert!(q.volume_overlap(&k) <= q.overlap_rate(&k) + 1e-9);
    }
}

#[test]
fn self_overlap_is_full() {
    let mut rng = rng_for(0x6E0, 9);
    for _ in 0..CASES {
        let d = rng.gen_range(1..=6usize);
        let r = random_rect(&mut rng, d);
        assert!((r.overlap_rate(&r) - 1.0).abs() <= 1e-12);
    }
}

#[test]
fn bounding_box_contains_every_point() {
    let mut rng = rng_for(0x6E0, 10);
    for _ in 0..CASES {
        let n = rng.gen_range(1..=40usize);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-1e6..1e6)).collect())
            .collect();
        let rect = HyperRect::bounding_points(pts.iter().map(|p| p.as_slice())).unwrap();
        for p in &pts {
            assert!(rect.contains_point(p));
        }
    }
}

#[test]
fn query_selectivity_counts_match_filter() {
    let mut rng = rng_for(0x6E0, 11);
    for _ in 0..CASES {
        let n = rng.gen_range(0..=60usize);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..2).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();
        let x0 = rng.gen_range(-10.0..10.0);
        let xl = rng.gen_range(0.0..20.0);
        let y0 = rng.gen_range(-10.0..10.0);
        let yl = rng.gen_range(0.0..20.0);
        let q = Query::from_boundary_vec(0, &[x0, x0 + xl, y0, y0 + yl]);
        let inside = pts.iter().filter(|p| q.region().contains_point(p)).count();
        let idx = q.filter_indices(pts.iter().map(|p| p.as_slice()));
        assert_eq!(inside, idx.len());
        for i in idx {
            assert!(q.region().contains_point(&pts[i]));
        }
    }
}

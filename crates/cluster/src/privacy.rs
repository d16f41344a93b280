//! Differentially-private cluster summaries.
//!
//! Privacy is the paper's motivation for never moving data — but even the
//! cluster *summaries* leak the exact extrema and counts of a node's
//! data. This module adds the standard remedy: Laplace noise on the
//! rectangle boundaries and member counts before they leave the node, at
//! a per-summary budget ε. `repro ablations` measures what the noise
//! costs the selection mechanism.

use geom::{HyperRect, Interval};
use linalg::rng as lrng;
use linalg::rng::Rng;

use crate::summary::ClusterSummary;

/// Per-summary privacy budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    /// The Laplace ε: larger = less noise = less privacy.
    pub epsilon: f64,
    /// Fraction of each dimension's span treated as the boundary
    /// sensitivity (how much one sample can move a min/max). 0.05 is a
    /// reasonable default for bounded sensor data.
    pub boundary_sensitivity: f64,
}

impl PrivacyBudget {
    /// A budget with the default boundary sensitivity.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            epsilon,
            boundary_sensitivity: 0.05,
        }
    }
}

/// One Laplace(0, b) sample.
fn laplace(rng: &mut impl Rng, b: f64) -> f64 {
    let u: f64 = rng.gen::<f64>() - 0.5; // (-0.5, 0.5)
    -b * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-300).ln()
}

/// Releases a noised copy of one summary.
///
/// * Each boundary gets Laplace noise scaled by
///   `span · boundary_sensitivity / ε`; lo/hi are re-ordered if the noise
///   inverts them.
/// * The representative gets the same treatment (it is derived from the
///   same private data).
/// * The count gets integer Laplace noise at sensitivity 1 and is clamped
///   to at least 1.
pub fn noise_summary(
    summary: &ClusterSummary,
    budget: &PrivacyBudget,
    rng: &mut impl Rng,
) -> ClusterSummary {
    let b_count = 1.0 / budget.epsilon;
    let noisy_size = (summary.size as f64 + laplace(rng, b_count))
        .round()
        .max(1.0) as usize;

    let mut intervals = Vec::with_capacity(summary.rect.dim());
    let mut representative = Vec::with_capacity(summary.rect.dim());
    for (iv, &r) in summary.rect.intervals().iter().zip(&summary.representative) {
        // A degenerate dimension still gets a minimal noise scale so the
        // release does not reveal "this cluster is a single point".
        let span = iv.length().max(1e-9);
        let b = span * budget.boundary_sensitivity / budget.epsilon;
        let lo = iv.lo() + laplace(rng, b);
        let hi = iv.hi() + laplace(rng, b);
        intervals.push(Interval::new(lo.min(hi), lo.max(hi)));
        representative.push(r + laplace(rng, b));
    }

    ClusterSummary {
        cluster_id: summary.cluster_id,
        size: noisy_size,
        representative,
        rect: HyperRect::new(intervals),
    }
}

/// Releases noised copies of a node's whole summary set
/// (deterministic in `seed`).
pub fn noise_summaries(
    summaries: &[ClusterSummary],
    budget: &PrivacyBudget,
    seed: u64,
) -> Vec<ClusterSummary> {
    let mut rng = lrng::rng_for(seed, 0xD1FF);
    summaries
        .iter()
        .map(|s| noise_summary(s, budget, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{KMeans, KMeansConfig};
    use crate::summary::summarize;
    use linalg::Matrix;

    fn summaries() -> Vec<ClusterSummary> {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 40) as f64, (i / 2) as f64])
            .collect();
        let data = Matrix::from_rows(&rows);
        let model = KMeans::fit(&data, &KMeansConfig::with_k(4, 1));
        summarize(&data, &model)
    }

    #[test]
    fn high_epsilon_barely_perturbs() {
        let sums = summaries();
        let noised = noise_summaries(&sums, &PrivacyBudget::new(1000.0), 7);
        for (a, b) in sums.iter().zip(&noised) {
            assert_eq!(a.cluster_id, b.cluster_id);
            let size_diff = (a.size as f64 - b.size as f64).abs();
            assert!(size_diff <= 1.0, "size moved by {size_diff} at eps=1000");
            for (ia, ib) in a.rect.intervals().iter().zip(b.rect.intervals()) {
                assert!((ia.lo() - ib.lo()).abs() < 0.05 * ia.length().max(1.0));
            }
        }
    }

    #[test]
    fn low_epsilon_perturbs_substantially() {
        let sums = summaries();
        let noised = noise_summaries(&sums, &PrivacyBudget::new(0.05), 7);
        let moved = sums
            .iter()
            .zip(&noised)
            .any(|(a, b)| (a.rect.interval(0).lo() - b.rect.interval(0).lo()).abs() > 1.0);
        assert!(moved, "eps=0.05 should visibly move boundaries");
    }

    #[test]
    fn noised_summaries_remain_structurally_valid() {
        let sums = summaries();
        for eps in [0.01, 0.1, 1.0, 10.0] {
            let noised = noise_summaries(&sums, &PrivacyBudget::new(eps), 3);
            for s in &noised {
                assert!(s.size >= 1);
                assert_eq!(s.rect.dim(), 2);
                for iv in s.rect.intervals() {
                    assert!(iv.lo() <= iv.hi());
                    assert!(iv.lo().is_finite() && iv.hi().is_finite());
                }
            }
        }
    }

    #[test]
    fn noising_is_deterministic_per_seed() {
        let sums = summaries();
        let budget = PrivacyBudget::new(0.5);
        assert_eq!(
            noise_summaries(&sums, &budget, 9),
            noise_summaries(&sums, &budget, 9)
        );
        assert_ne!(
            noise_summaries(&sums, &budget, 9),
            noise_summaries(&sums, &budget, 10)
        );
    }

    #[test]
    fn laplace_sample_moments() {
        let mut rng = lrng::rng_for(1, 1);
        let b = 2.0;
        let xs: Vec<f64> = (0..40_000).map(|_| laplace(&mut rng, b)).collect();
        let mean = linalg::stats::mean(&xs);
        let var = linalg::stats::variance(&xs);
        assert!(mean.abs() < 0.06, "laplace mean {mean}");
        // Var of Laplace(b) is 2b² = 8.
        assert!((var - 8.0).abs() < 0.6, "laplace variance {var}");
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        PrivacyBudget::new(0.0);
    }
}

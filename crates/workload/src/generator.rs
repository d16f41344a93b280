//! Seeded query-stream generation over a global data space.

use geom::{HyperRect, Interval, Query};
use linalg::rng as lrng;
use linalg::rng::Rng;

/// The distribution family driving query centres (the "dynamic workload"
/// of Savva et al. \[18\]).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Centres uniform over the whole space — the paper's baseline
    /// "randomly created over the whole data space".
    Uniform,
    /// Centres follow a Gaussian whose mean random-walks across the space
    /// (a drifting analytic focus).
    Drifting {
        /// Random-walk step as a fraction of each dimension's span.
        step_frac: f64,
        /// Gaussian spread around the walking mean, as a span fraction.
        spread_frac: f64,
    },
    /// Centres drawn from a mixture of fixed hotspots (recurring analytic
    /// interests).
    Hotspot {
        /// Number of mixture components.
        hotspots: usize,
        /// Gaussian spread around each hotspot, as a span fraction.
        spread_frac: f64,
    },
}

/// Workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of queries to issue (the paper uses 200).
    pub n_queries: usize,
    /// Per-dimension query half-width, as a fraction of the dimension's
    /// span, drawn uniformly from this range per query and dimension.
    pub halfwidth_frac: (f64, f64),
    /// Centre distribution.
    pub kind: WorkloadKind,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's workload: 200 uniform queries of moderate selectivity.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            n_queries: 200,
            halfwidth_frac: (0.05, 0.30),
            kind: WorkloadKind::Uniform,
            seed,
        }
    }
}

/// A generated stream of queries plus the space it was generated over.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryWorkload {
    /// The global data space queried.
    pub space: HyperRect,
    /// Queries in issue order (ids 0..n).
    pub queries: Vec<Query>,
}

impl QueryWorkload {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Generates a query workload over `space`.
///
/// Every query rectangle is clipped to `space`, so queries always request
/// a region the system could in principle serve.
///
/// # Panics
/// Panics if `n_queries == 0`, the half-width fractions are not ordered in
/// `(0, 1]`, or a `Hotspot` workload has zero hotspots.
pub fn generate(space: &HyperRect, config: &WorkloadConfig) -> QueryWorkload {
    assert!(config.n_queries > 0, "empty workload requested");
    let (lo_frac, hi_frac) = config.halfwidth_frac;
    assert!(
        0.0 < lo_frac && lo_frac <= hi_frac && hi_frac <= 1.0,
        "half-width fractions ({lo_frac}, {hi_frac}) must satisfy 0 < lo <= hi <= 1"
    );
    let mut rng = lrng::rng_for(config.seed, 0x0_9E7);
    let dim = space.dim();
    let spans: Vec<f64> = space.intervals().iter().map(Interval::length).collect();

    // Hotspot means are fixed for the whole stream.
    let hotspot_means: Vec<Vec<f64>> = match &config.kind {
        WorkloadKind::Hotspot { hotspots, .. } => {
            assert!(*hotspots > 0, "hotspot workload needs at least one hotspot");
            (0..*hotspots)
                .map(|_| uniform_center(space, &mut rng))
                .collect()
        }
        _ => Vec::new(),
    };
    // Drifting mean starts at the space centre.
    let mut walk = space.center();

    let mut queries = Vec::with_capacity(config.n_queries);
    for id in 0..config.n_queries {
        let center: Vec<f64> = match &config.kind {
            WorkloadKind::Uniform => uniform_center(space, &mut rng),
            WorkloadKind::Drifting {
                step_frac,
                spread_frac,
            } => {
                for d in 0..dim {
                    walk[d] += lrng::normal(&mut rng, 0.0, step_frac * spans[d]);
                    // Reflect the walk at the space boundaries.
                    let iv = space.interval(d);
                    if walk[d] < iv.lo() {
                        walk[d] = 2.0 * iv.lo() - walk[d];
                    }
                    if walk[d] > iv.hi() {
                        walk[d] = 2.0 * iv.hi() - walk[d];
                    }
                    walk[d] = walk[d].clamp(iv.lo(), iv.hi());
                }
                (0..dim)
                    .map(|d| {
                        (walk[d] + lrng::normal(&mut rng, 0.0, spread_frac * spans[d]))
                            .clamp(space.interval(d).lo(), space.interval(d).hi())
                    })
                    .collect()
            }
            WorkloadKind::Hotspot { spread_frac, .. } => {
                let h = &hotspot_means[rng.gen_range(0..hotspot_means.len())];
                (0..dim)
                    .map(|d| {
                        (h[d] + lrng::normal(&mut rng, 0.0, spread_frac * spans[d]))
                            .clamp(space.interval(d).lo(), space.interval(d).hi())
                    })
                    .collect()
            }
        };

        let intervals: Vec<Interval> = (0..dim)
            .map(|d| {
                let frac = rng.gen_range(lo_frac..=hi_frac);
                let half = 0.5 * frac * spans[d];
                clamped_query_interval(center[d], half, space.interval(d))
            })
            .collect();
        let rect = HyperRect::new(intervals);
        // Postcondition of the whole generator: no query may leave the
        // space, whatever the centre distribution did near (or beyond)
        // the boundaries — downstream consumers (selection caching,
        // figure pipelines) assume containment.
        debug_assert!(
            rect.intervals()
                .iter()
                .enumerate()
                .all(|(d, iv)| space.interval(d).contains_interval(iv)),
            "generated query {id} leaves the space: {rect:?}"
        );
        queries.push(Query::new(id as u64, rect));
    }

    QueryWorkload {
        space: space.clone(),
        queries,
    }
}

/// The query's extent on one dimension: `centre ± half`, with *both*
/// bounds clamped into the space and inverted results pinned to a point.
///
/// Clamping only the low bound up and the high bound down is not enough
/// on its own when a centre sits outside the space: `centre + half`
/// could then undershoot `space.lo()` and flip the interval. Clamping
/// both bounds into `[lo, hi]` makes containment unconditional.
fn clamped_query_interval(center: f64, half: f64, space: &Interval) -> Interval {
    let lo = (center - half).clamp(space.lo(), space.hi());
    let hi = (center + half).clamp(space.lo(), space.hi());
    Interval::new(lo, hi.max(lo))
}

fn uniform_center(space: &HyperRect, rng: &mut impl Rng) -> Vec<f64> {
    space
        .intervals()
        .iter()
        .map(|iv| {
            if iv.length() > 0.0 {
                rng.gen_range(iv.lo()..iv.hi())
            } else {
                iv.lo()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> HyperRect {
        HyperRect::from_boundary_vec(&[0.0, 100.0, -50.0, 50.0])
    }

    #[test]
    fn paper_default_issues_200_queries() {
        let w = generate(&space(), &WorkloadConfig::paper_default(1));
        assert_eq!(w.len(), 200);
        for (i, q) in w.queries.iter().enumerate() {
            assert_eq!(q.id(), i as u64);
        }
    }

    /// Boundary-containment pin for every workload kind: no generated
    /// query may extend past `QueryWorkload::space`, even with
    /// aggressive spreads and near-full-span half-widths (the
    /// centre ± half overshoot case).
    #[test]
    fn queries_stay_inside_the_space() {
        let kinds = [
            WorkloadKind::Uniform,
            WorkloadKind::Drifting {
                step_frac: 0.4,
                spread_frac: 0.3,
            },
            WorkloadKind::Hotspot {
                hotspots: 3,
                spread_frac: 0.3,
            },
        ];
        for kind in kinds {
            for seed in [3, 4, 5] {
                let cfg = WorkloadConfig {
                    kind: kind.clone(),
                    halfwidth_frac: (0.05, 0.95),
                    seed,
                    ..WorkloadConfig::paper_default(seed)
                };
                let w = generate(&space(), &cfg);
                for q in &w.queries {
                    for (d, iv) in q.region().intervals().iter().enumerate() {
                        let s = w.space.interval(d);
                        assert!(
                            s.contains_interval(iv),
                            "{kind:?} query {} leaves the space on dim {d}: \
                             [{}, {}] vs [{}, {}]",
                            q.id(),
                            iv.lo(),
                            iv.hi(),
                            s.lo(),
                            s.hi()
                        );
                    }
                }
            }
        }
    }

    /// The clamp helper itself: inverted extents (centre beyond the
    /// space) must pin to a boundary point instead of panicking in
    /// `Interval::new`.
    #[test]
    fn clamped_interval_handles_out_of_space_centres() {
        let s = Interval::new(0.0, 10.0);
        assert_eq!(
            clamped_query_interval(5.0, 2.0, &s),
            Interval::new(3.0, 7.0)
        );
        assert_eq!(
            clamped_query_interval(0.5, 2.0, &s),
            Interval::new(0.0, 2.5)
        );
        // Centre far below the space: both bounds clamp to space.lo().
        assert_eq!(
            clamped_query_interval(-50.0, 2.0, &s),
            Interval::new(0.0, 0.0)
        );
        // Centre far above: both bounds clamp to space.hi().
        assert_eq!(
            clamped_query_interval(50.0, 2.0, &s),
            Interval::new(10.0, 10.0)
        );
    }

    #[test]
    fn halfwidth_controls_query_size() {
        let narrow = WorkloadConfig {
            halfwidth_frac: (0.01, 0.02),
            ..WorkloadConfig::paper_default(5)
        };
        let wide = WorkloadConfig {
            halfwidth_frac: (0.8, 0.9),
            ..WorkloadConfig::paper_default(5)
        };
        let mean_len = |w: &QueryWorkload| {
            w.queries
                .iter()
                .map(|q| q.region().interval(0).length())
                .sum::<f64>()
                / w.len() as f64
        };
        let n = generate(&space(), &narrow);
        let wi = generate(&space(), &wide);
        assert!(mean_len(&wi) > 10.0 * mean_len(&n));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::paper_default(9);
        assert_eq!(generate(&space(), &cfg), generate(&space(), &cfg));
        let other = WorkloadConfig { seed: 10, ..cfg };
        assert_ne!(
            generate(&space(), &WorkloadConfig::paper_default(9)),
            generate(&space(), &other)
        );
    }

    #[test]
    fn uniform_centres_spread_over_the_space() {
        let w = generate(&space(), &WorkloadConfig::paper_default(11));
        let centers: Vec<f64> = w.queries.iter().map(|q| q.region().center()[0]).collect();
        let lo_third = centers.iter().filter(|&&c| c < 33.3).count();
        let hi_third = centers.iter().filter(|&&c| c > 66.6).count();
        assert!(
            lo_third > 20 && hi_third > 20,
            "centres not spread: {lo_third}/{hi_third}"
        );
    }

    #[test]
    fn hotspot_centres_concentrate() {
        let cfg = WorkloadConfig {
            kind: WorkloadKind::Hotspot {
                hotspots: 1,
                spread_frac: 0.01,
            },
            ..WorkloadConfig::paper_default(13)
        };
        let w = generate(&space(), &cfg);
        let centers: Vec<f64> = w.queries.iter().map(|q| q.region().center()[0]).collect();
        assert!(
            linalg::stats::std_dev(&centers) < 5.0,
            "hotspot workload too dispersed"
        );
    }

    #[test]
    fn degenerate_space_dimension_is_tolerated() {
        let s = HyperRect::from_boundary_vec(&[0.0, 10.0, 5.0, 5.0]);
        let w = generate(&s, &WorkloadConfig::paper_default(17));
        for q in &w.queries {
            assert_eq!(q.region().interval(1).length(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "half-width fractions")]
    fn bad_halfwidths_rejected() {
        let cfg = WorkloadConfig {
            halfwidth_frac: (0.5, 0.2),
            ..WorkloadConfig::paper_default(0)
        };
        generate(&space(), &cfg);
    }
}

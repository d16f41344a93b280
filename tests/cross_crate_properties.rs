//! Property-style tests spanning the whole pipeline: random node
//! populations and random queries must uphold the system invariants.
//! (Deterministic sweeps over the in-tree RNG; no proptest needed
//! offline.)

use qens::airdata::scenario::{nodes_from_specs, NodeSpec};
use qens::linalg::rng::{rng_for, Rng};
use qens::prelude::*;
use qens::selection::{RankingRule, SelectionCap};

const CASES: usize = 16;

/// A population of 2–6 synthetic regression nodes with random ranges
/// and slopes.
fn population(rng: &mut impl Rng) -> Vec<NodeSpec> {
    let count = rng.gen_range(2..6usize);
    (0..count)
        .map(|_| {
            let lo = rng.gen_range(-50.0..50.0);
            let span = rng.gen_range(5.0..60.0);
            NodeSpec {
                x_range: (lo, lo + span),
                slope: rng.gen_range(-4.0..4.0),
                intercept: rng.gen_range(-20.0..20.0),
                noise_std: rng.gen_range(0.5..5.0),
            }
        })
        .collect()
}

fn build_fed(specs: &[NodeSpec], seed: u64) -> Federation {
    let nodes = nodes_from_specs(specs, 60, seed);
    FederationBuilder::new()
        .datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect())
        .clusters_per_node(4)
        .seed(seed)
        .epochs(3)
        .build()
}

/// Whatever the population and query, a successful round satisfies the
/// resource and weight invariants.
#[test]
fn round_invariants() {
    let mut rng = rng_for(0xCC, 1);
    for _ in 0..CASES {
        let specs = population(&mut rng);
        let seed = rng.gen_range(0..100u64);
        let qx = rng.gen_range(-60.0..60.0);
        let qw = rng.gen_range(1.0..80.0);
        let fed = build_fed(&specs, seed);
        let global = fed.network().global_space();
        let y = global.interval(1);
        let q = fed.query_from_bounds(0, &[qx, qx + qw, y.lo(), y.hi()]);
        match fed.run_query(&q, &PolicyKind::query_driven(3)) {
            Err(FederationError::NoParticipants { .. }) => {
                // Legal when the query misses every cluster.
            }
            Err(e) => panic!("unexpected error {e}"),
            Ok(out) => {
                assert!(out.selection.len() <= 3);
                assert!(out.accounting.samples_used <= out.accounting.samples_total);
                assert!(out.accounting.data_fraction() <= 1.0 + 1e-12);
                let lambdas = out.selection.lambda_weights();
                assert!((lambdas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                if let Some(loss) = out.query_loss(fed.network(), &q) {
                    assert!(loss.is_finite() && loss >= 0.0);
                }
                // Participant rankings are positive and sorted.
                for w in out.selection.participants.windows(2) {
                    assert!(w[0].ranking >= w[1].ranking);
                }
                for p in &out.selection.participants {
                    assert!(p.ranking > 0.0);
                }
            }
        }
    }
}

/// Selection never invents nodes and never duplicates them.
#[test]
fn selection_returns_distinct_known_nodes() {
    let mut rng = rng_for(0xCC, 2);
    for _ in 0..CASES {
        let specs = population(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let fed = build_fed(&specs, seed);
        let bounds = fed.network().global_space().to_boundary_vec();
        let q = Query::from_boundary_vec(1, &bounds);
        for policy in [
            PolicyKind::query_driven(10),
            PolicyKind::Random { l: 10, seed },
            PolicyKind::AllNodes,
        ] {
            let ctx = SelectionContext::new(fed.network(), &q);
            let sel = policy.build().select(&ctx);
            let mut ids: Vec<usize> = sel.participants.iter().map(|p| p.node.0).collect();
            let before = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                before,
                "duplicate participants from {}",
                policy.name()
            );
            for id in ids {
                assert!(id < fed.network().len());
            }
        }
    }
}

/// Data selectivity can only shrink what a participant trains on.
#[test]
fn selectivity_is_monotone() {
    let mut rng = rng_for(0xCC, 3);
    for _ in 0..CASES {
        let specs = population(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let qx = rng.gen_range(-60.0..60.0);
        let qw = rng.gen_range(5.0..60.0);
        let fed = build_fed(&specs, seed);
        let global = fed.network().global_space();
        let y = global.interval(1);
        let q = fed.query_from_bounds(2, &[qx, qx + qw, y.lo(), y.hi()]);
        let with = fed.run_query(
            &q,
            &PolicyKind::QueryDriven {
                epsilon: 0.05,
                l: 10,
            },
        );
        let without = fed.run_query(
            &q,
            &PolicyKind::QueryDrivenNoSelectivity {
                epsilon: 0.05,
                l: 10,
            },
        );
        if let (Ok(a), Ok(b)) = (with, without) {
            assert!(a.accounting.samples_used <= b.accounting.samples_used);
            assert_eq!(a.selection.len(), b.selection.len());
        }
    }
}

/// A larger ε never selects *more* clusters on any node.
#[test]
fn epsilon_is_monotone() {
    let mut rng = rng_for(0xCC, 4);
    for _ in 0..CASES {
        let specs = population(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let fed = build_fed(&specs, seed);
        let bounds = fed.network().global_space().to_boundary_vec();
        let q = Query::from_boundary_vec(3, &bounds);
        let count = |eps: f64| {
            let policy = QueryDriven::new(eps, SelectionCap::TopL(10), RankingRule::PaperEq4);
            let ctx = SelectionContext::new(fed.network(), &q);
            policy
                .select(&ctx)
                .participants
                .iter()
                .map(|p| p.supporting_clusters.len())
                .sum::<usize>()
        };
        let loose = count(0.01);
        let tight = count(0.3);
        assert!(
            tight <= loose,
            "eps=0.3 selected {tight} clusters vs {loose} at 0.01"
        );
    }
}

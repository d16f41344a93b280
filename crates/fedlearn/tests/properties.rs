//! Property-style tests for the distributed-learning mechanism
//! (deterministic sweeps over the in-tree RNG; no proptest needed
//! offline).

use airdata::scenario::{nodes_from_specs, NodeSpec};
use edgesim::EdgeNetwork;
use fedlearn::{
    run_query, Aggregation, FederationConfig, FederationError, GlobalModel, StageOrder,
};
use geom::Query;
use linalg::rng::{rng_for, Rng};
use mlkit::TrainConfig;
use selection::QueryDriven;

const CASES: usize = 16;

fn random_specs(rng: &mut impl Rng) -> Vec<NodeSpec> {
    let count = rng.gen_range(2..5usize);
    (0..count)
        .map(|_| {
            let lo = rng.gen_range(-40.0..40.0);
            let span = rng.gen_range(10.0..40.0);
            NodeSpec {
                x_range: (lo, lo + span),
                slope: rng.gen_range(-2.0..2.0),
                intercept: 0.0,
                noise_std: 1.0,
            }
        })
        .collect()
}

fn build(specs: &[NodeSpec], seed: u64) -> EdgeNetwork {
    let nodes = nodes_from_specs(specs, 40, seed);
    let mut net =
        EdgeNetwork::from_datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect());
    net.quantize_all(3, seed);
    net
}

fn fast_cfg(seed: u64, agg: Aggregation, order: StageOrder) -> FederationConfig {
    FederationConfig {
        train: TrainConfig::paper_lr(seed).with_epochs(3),
        stage_order: order,
        ..FederationConfig::paper_lr(seed)
    }
    .with_aggregation(agg)
}

/// A completed round's accounting and model are always well-formed,
/// under every aggregation rule and stage order.
#[test]
fn round_outputs_are_well_formed() {
    let mut rng = rng_for(0xFED, 1);
    for _ in 0..CASES {
        let specs = random_specs(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let agg = [
            Aggregation::ModelAveraging,
            Aggregation::WeightedAveraging,
            Aggregation::FedAvgWeights,
        ][rng.gen_range(0..3usize)];
        let order = [StageOrder::Sequential, StageOrder::Interleaved][rng.gen_range(0..2usize)];
        let net = build(&specs, seed);
        let q = Query::new(0, net.global_space());
        match run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &fast_cfg(seed, agg, order),
        ) {
            Err(FederationError::NoParticipants { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
            Ok(out) => {
                assert!(out.accounting.samples_used <= out.accounting.samples_total);
                assert!(out.accounting.sample_visits > 0);
                assert!(out.accounting.sim_seconds > 0.0);
                assert!(out.accounting.sim_seconds <= out.accounting.sim_seconds_total + 1e-12);
                match (&out.global, agg) {
                    (GlobalModel::Single(_), Aggregation::FedAvgWeights) => {}
                    (GlobalModel::Ensemble { members, lambdas }, _) => {
                        assert_eq!(members.len(), lambdas.len());
                        assert!((lambdas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                    }
                    other => panic!("wrong model shape {other:?}"),
                }
                // Predictions over the unit cube stay finite.
                for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    assert!(out.global.predict_row(&[x]).is_finite());
                }
                if let Some(loss) = out.query_loss(&net, &q) {
                    assert!(loss.is_finite() && loss >= 0.0);
                }
            }
        }
    }
}

/// Parallel and serial execution agree bit-for-bit.
#[test]
fn parallel_matches_serial() {
    let mut rng = rng_for(0xFED, 2);
    for _ in 0..CASES {
        let specs = random_specs(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let net = build(&specs, seed);
        let q = Query::new(0, net.global_space());
        let par_cfg = fast_cfg(seed, Aggregation::WeightedAveraging, StageOrder::Sequential)
            .with_thread_count(4);
        let ser_cfg = par_cfg.clone().with_thread_count(1);
        let par = run_query(&net, &q, &QueryDriven::top_l(3), &par_cfg);
        let ser = run_query(&net, &q, &QueryDriven::top_l(3), &ser_cfg);
        match (par, ser) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.query_loss(&net, &q), b.query_loss(&net, &q));
                assert_eq!(a.accounting.sample_visits, b.accounting.sample_visits);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("parallel/serial diverged: {other:?}"),
        }
    }
}

/// Extra FedAvg rounds scale the paid cost linearly.
#[test]
fn multi_round_cost_scales() {
    let mut rng = rng_for(0xFED, 3);
    for _ in 0..CASES {
        let specs = random_specs(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let rounds = rng.gen_range(2..4usize);
        let net = build(&specs, seed);
        let q = Query::new(0, net.global_space());
        let one = fast_cfg(seed, Aggregation::FedAvgWeights, StageOrder::Sequential);
        let many = FederationConfig {
            rounds,
            ..one.clone()
        };
        if let (Ok(a), Ok(b)) = (
            run_query(&net, &q, &QueryDriven::top_l(3), &one),
            run_query(&net, &q, &QueryDriven::top_l(3), &many),
        ) {
            let ratio = b.accounting.sample_visits as f64 / a.accounting.sample_visits as f64;
            assert!(
                (ratio - rounds as f64).abs() < 0.6,
                "visits ratio {ratio} for {rounds} rounds"
            );
        }
    }
}

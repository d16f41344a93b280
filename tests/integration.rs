//! Cross-crate integration tests: the individual substrates working
//! together the way the paper's system composes them.

use qens::prelude::*;

/// Builds the standard heterogeneous test federation.
fn hetero_fed(seed: u64) -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(8, 150)
        .clusters_per_node(5)
        .seed(seed)
        .epochs(8)
        .build()
}

#[test]
fn summaries_are_the_only_leader_visible_state() {
    let fed = hetero_fed(1);
    // Every node reports at most K summaries, each with a rect in the
    // joint space and a positive member count: O(K*d) numbers.
    for node in fed.network().nodes() {
        assert!(node.k() >= 1 && node.k() <= 5);
        assert_eq!(
            node.summaries().intervals().len(),
            node.k() * node.joint_dim()
        );
        let mut total = 0;
        for s in node.summaries().iter() {
            assert_eq!(s.bounds.len(), node.joint_dim());
            assert!(s.size > 0);
            total += s.size;
        }
        assert_eq!(
            total,
            node.len(),
            "summaries must partition the node's data"
        );
    }
}

#[test]
fn ranking_prefers_nodes_whose_data_matches_the_query() {
    let fed = hetero_fed(2);
    // The heterogeneous scenario puts the leader pattern on nodes 0 and 1
    // (x in [0,21], y = 2x+3); this query targets exactly that region.
    let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
    let out = fed.run_query(&q, &PolicyKind::query_driven(8)).unwrap();
    let selected: Vec<usize> = out
        .selection
        .participants
        .iter()
        .map(|p| p.node.0)
        .collect();
    assert!(
        selected.contains(&0) && selected.contains(&1),
        "selected {selected:?}"
    );
    // And they rank at the top.
    assert!(selected[0] == 0 || selected[0] == 1);
    assert!(selected[1] == 0 || selected[1] == 1);
}

#[test]
fn training_respects_data_selectivity() {
    let fed = hetero_fed(3);
    let q = fed.query_from_bounds(0, &[0.0, 10.0, 0.0, 25.0]);
    let out = fed.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
    for p in &out.selection.participants {
        let node = fed.network().node(p.node);
        let used = p.training_samples(fed.network());
        assert!(used <= node.len());
        // The sub-query covers only part of the leader nodes' space, so
        // at least one participant must have trained on a strict subset.
        if p.node.0 <= 1 {
            assert!(used < node.len(), "node {} trained on all its data", p.node);
        }
    }
}

#[test]
fn aggregation_weights_match_selection_rankings() {
    let fed = hetero_fed(4);
    let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
    let out = fed.run_query(&q, &PolicyKind::query_driven(4)).unwrap();
    match &out.global {
        GlobalModel::Ensemble { lambdas, members } => {
            assert_eq!(members.len(), out.selection.len());
            assert!((lambdas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let expected = out.selection.lambda_weights();
            for (a, b) in lambdas.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9);
            }
        }
        other => panic!("expected ensemble, got {other:?}"),
    }
}

#[test]
fn accounting_is_internally_consistent() {
    let fed = hetero_fed(5);
    let wl = fed.workload(&WorkloadConfig {
        n_queries: 10,
        ..WorkloadConfig::paper_default(5)
    });
    let res = fed.run_workload(&wl, &PolicyKind::query_driven(3));
    for (row, q) in res
        .accounting
        .rows
        .iter()
        .zip(res.per_query.iter().filter(|r| r.error.is_none()))
    {
        assert_eq!(row.query_id, q.query_id);
        assert!(row.samples_used <= row.samples_total);
        assert!(row.sim_seconds > 0.0);
        assert!(row.wall_seconds >= 0.0);
        assert!(row.bytes_transferred > 0);
        assert!((row.data_fraction() - q.data_fraction).abs() < 1e-12);
    }
}

#[test]
fn air_quality_pipeline_runs_end_to_end() {
    let fed = FederationBuilder::new()
        .air_quality_nodes(10, 24 * 30)
        .seed(7)
        .epochs(5)
        .build();
    assert_eq!(fed.network().len(), 10);
    let wl = fed.workload(&WorkloadConfig {
        n_queries: 6,
        ..WorkloadConfig::paper_default(2)
    });
    let res = fed.run_workload(&wl, &PolicyKind::query_driven(4));
    let ok = res.per_query.len() - res.failed_queries();
    assert!(ok >= 3, "too many failed queries: {}", res.failed_queries());
    for r in res.per_query.iter().filter(|r| r.error.is_none()) {
        if let Some(loss) = r.loss {
            assert!(loss.is_finite() && loss >= 0.0);
        }
        assert!(r.nodes_selected >= 1 && r.nodes_selected <= 4);
    }
}

#[test]
fn nn_federation_runs_and_stays_finite() {
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(5, 80)
        .model(ModelKind::Neural { hidden: 8 })
        .seed(9)
        .epochs(5)
        .build();
    let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
    let out = fed.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
    let loss = out.query_loss(fed.network(), &q).unwrap();
    assert!(loss.is_finite() && loss >= 0.0);
}

#[test]
fn gt_baseline_has_visible_selection_overhead() {
    let fed = hetero_fed(11);
    let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
    let ours = fed.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
    let gt = fed
        .run_query(
            &q,
            &PolicyKind::GameTheory {
                leader: 0,
                l: 3,
                seed: 3,
            },
        )
        .unwrap();
    // GT pays a probe round before training: more simulated time and more
    // bytes than the summary-only query-driven mechanism.
    assert!(gt.accounting.sim_seconds > ours.accounting.sim_seconds);
    assert!(gt.accounting.bytes_transferred > ours.accounting.bytes_transferred);
}

#[test]
fn csv_round_trip_feeds_the_same_pipeline() {
    use qens::airdata::{csvio, generate, profile, scenario, Feature};
    // Generate one station, write CSV, read it back, and build a node.
    let data = generate::generate_station(
        &profile::StationProfile::of("Tiantan"),
        &generate::GeneratorConfig::short(300, 4),
    );
    let csv = csvio::to_csv_string(&data);
    let mut reread = csvio::from_csv_reader(csv.as_bytes()).unwrap();
    qens::airdata::impute::forward_fill(&mut reread);
    let x = reread.to_matrix(&[Feature::Pm10]);
    let y = reread.feature_column(Feature::Pm25);
    let ds = DenseDataset::new(x, y);
    assert_eq!(ds.len(), 300);
    // The same scenario helper path accepts it.
    let nodes = scenario::realistic_nodes_multi(2, 100, 1, &[Feature::Pm10], Feature::Pm25);
    assert_eq!(nodes.len(), 2);
}

#[test]
fn multi_feature_federation_runs_in_higher_dimensions() {
    use qens::airdata::Feature;
    // Predict O3 from (TEMP, WSPM, NO2): a 4-dimensional joint space.
    let inputs = [Feature::Temp, Feature::Wspm, Feature::No2];
    let nodes = scenario::realistic_nodes_multi(6, 24 * 20, 21, &inputs, Feature::O3);
    let fed = FederationBuilder::new()
        .datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect())
        .seed(21)
        .epochs(5)
        .build();
    assert_eq!(fed.network().nodes()[0].joint_dim(), 4);
    for node in fed.network().nodes() {
        for s in node.summaries().iter() {
            assert_eq!(s.bounds.len(), 4);
        }
    }
    // A 4-d query: warm, breezy, moderate-NO2 hours, any O3 value.
    let space = fed.network().global_space();
    let o3 = space.interval(3);
    let q = fed.query_from_bounds(0, &[15.0, 35.0, 1.0, 4.0, 10.0, 80.0, o3.lo(), o3.hi()]);
    let out = fed
        .run_query(&q, &PolicyKind::query_driven(3))
        .expect("summer region has data");
    assert!(!out.selection.is_empty());
    if let Some(loss) = out.query_loss(fed.network(), &q) {
        assert!(loss.is_finite() && loss >= 0.0);
    }
    // Data selectivity still bites in higher dimensions.
    assert!(out.accounting.samples_used < out.accounting.samples_total);
}

#[test]
fn leader_cardinality_estimates_track_reality() {
    let fed = hetero_fed(12);
    let q = fed.query_from_bounds(0, &[0.0, 15.0, 0.0, 35.0]);
    let mut est_total = 0.0;
    let mut exact_total = 0;
    for node in fed.network().nodes() {
        est_total += node.estimated_query_cardinality(&q);
        exact_total += node.exact_query_cardinality(&q);
    }
    assert!(exact_total > 0, "query region must contain data");
    let err = (est_total - exact_total as f64).abs() / exact_total as f64;
    assert!(
        err < 0.5,
        "estimate {est_total} vs exact {exact_total} (err {err})"
    );
}

#[test]
fn slow_links_raise_round_time() {
    use qens::fedlearn::{run_query, FederationConfig};
    use qens::selection::QueryDriven;
    let nodes = scenario::heterogeneous_nodes(5, 100, 3);
    let build = |slow: bool| {
        let mut net = EdgeNetwork::from_datasets(
            nodes
                .iter()
                .map(|n| (n.name.clone(), n.dataset.clone()))
                .collect(),
        );
        if slow {
            net = net.with_random_links((1e3, 2e3), (0.5, 1.0), 7);
        }
        net.quantize_all(5, 1);
        net
    };
    let fast_net = build(false);
    let slow_net = build(true);
    let q = Query::from_boundary_vec(0, &[0.0, 20.0, 0.0, 45.0]);
    let cfg = FederationConfig {
        train: TrainConfig::paper_lr(1).with_epochs(3),
        ..FederationConfig::paper_lr(1)
    };
    let fast = run_query(&fast_net, &q, &QueryDriven::top_l(3), &cfg).unwrap();
    let slow = run_query(&slow_net, &q, &QueryDriven::top_l(3), &cfg).unwrap();
    assert!(
        slow.accounting.sim_seconds > fast.accounting.sim_seconds + 0.4,
        "slow links ({}) must dominate fast ({})",
        slow.accounting.sim_seconds,
        fast.accounting.sim_seconds
    );
}

#[test]
fn multi_round_and_stage_order_are_deterministic() {
    let run = |rounds: usize, order: StageOrder| {
        let fed = FederationBuilder::new()
            .heterogeneous_nodes(5, 80)
            .seed(31)
            .epochs(4)
            .rounds(rounds)
            .stage_order(order)
            .build();
        let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
        let out = fed.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
        out.query_loss(fed.network(), &q).unwrap()
    };
    for (rounds, order) in [
        (1, StageOrder::Sequential),
        (1, StageOrder::Interleaved),
        (3, StageOrder::Sequential),
    ] {
        assert_eq!(
            run(rounds, order),
            run(rounds, order),
            "rounds={rounds} order={order:?}"
        );
    }
    // The variants genuinely differ from each other.
    assert_ne!(
        run(1, StageOrder::Sequential),
        run(1, StageOrder::Interleaved)
    );
}

#[test]
fn private_summaries_still_select_sensibly() {
    let nodes = scenario::heterogeneous_nodes(8, 150, 5);
    let mut net =
        EdgeNetwork::from_datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect());
    net.quantize_all_private(5, 2, 0.5);
    let q = Query::from_boundary_vec(0, &[0.0, 20.0, 0.0, 45.0]);
    let ctx = SelectionContext::new(&net, &q);
    let sel = QueryDriven::top_l(3).select(&ctx);
    assert!(
        !sel.is_empty(),
        "noised summaries must still support the leader query"
    );
    // The leader-pattern nodes (0 and 1) still surface under eps = 0.5.
    let picked: Vec<usize> = sel.participants.iter().map(|p| p.node.0).collect();
    assert!(
        picked.contains(&0) || picked.contains(&1),
        "picked {picked:?}"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let fed = hetero_fed(42);
        let wl = fed.workload(&WorkloadConfig {
            n_queries: 5,
            ..WorkloadConfig::paper_default(42)
        });
        let res = fed.run_workload(&wl, &PolicyKind::query_driven(3));
        res.per_query
            .iter()
            .filter_map(|r| r.loss)
            .collect::<Vec<f64>>()
    };
    assert_eq!(run(), run());
}

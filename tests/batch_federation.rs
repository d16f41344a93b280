//! Integration tests for batched federation runs
//! ([`Federation::run_batch`]):
//!
//! * batched and per-query execution must be **bitwise identical** —
//!   every selection ranking, every model weight, every loss — for the
//!   same workload under the same seed,
//! * errors are per-slot: a query with no participants fails alone
//!   while its batch mates still train,
//! * the admission-control config rides the builder end to end,
//! * a batch is timed query by query, as that many `run_query` calls.

use qens::prelude::*;

fn builder(seed: u64) -> FederationBuilder {
    FederationBuilder::new()
        .heterogeneous_nodes(5, 80)
        .clusters_per_node(4)
        .seed(seed)
        .epochs(3)
        .selection_cache(true)
        .selection_cache_bucket(20.0)
}

/// A workload with repeats (memo hits), a slight drift and a distinct
/// sub-region.
fn bucketed_queries(fed: &Federation) -> Vec<Query> {
    vec![
        fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]),
        fed.query_from_bounds(1, &[0.0, 20.0, 0.0, 45.0]),
        fed.query_from_bounds(2, &[0.5, 20.5, 0.5, 45.5]),
        fed.query_from_bounds(3, &[0.0, 10.0, 0.0, 25.0]),
        fed.query_from_bounds(4, &[0.0, 20.0, 0.0, 45.0]),
    ]
}

#[test]
fn run_batch_is_bit_identical_to_run_query_for_a_workload() {
    let policy = PolicyKind::query_driven(3);
    let fed = builder(21).build();
    let queries = bucketed_queries(&fed);
    let batched = fed.run_batch(&queries, &policy);
    assert_eq!(batched.len(), queries.len());
    for (query, outcome) in queries.iter().zip(&batched) {
        let batched_out = outcome.as_ref().expect("batched query trains");
        let solo = fed.run_query(query, &policy).expect("solo query trains");
        assert_eq!(
            batched_out.selection,
            solo.selection,
            "query {}: selections diverge",
            query.id()
        );
        for (b, s) in batched_out
            .selection
            .participants
            .iter()
            .zip(&solo.selection.participants)
        {
            assert_eq!(
                b.ranking.to_bits(),
                s.ranking.to_bits(),
                "query {}: ranking bits diverge on node {}",
                query.id(),
                b.node
            );
        }
        let b_loss = batched_out
            .query_loss(fed.network(), query)
            .expect("batched loss");
        let s_loss = solo.query_loss(fed.network(), query).expect("solo loss");
        assert_eq!(
            b_loss.to_bits(),
            s_loss.to_bits(),
            "query {}: loss bits diverge ({b_loss} vs {s_loss})",
            query.id()
        );
        assert_eq!(
            batched_out.accounting.samples_used,
            solo.accounting.samples_used,
            "query {}: training volume diverges",
            query.id()
        );
    }
}

#[test]
fn batch_errors_are_per_slot() {
    let policy = PolicyKind::query_driven(3);
    let fed = builder(33).build();
    let queries = vec![
        fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]),
        // Far outside every node's data region: no participants.
        fed.query_from_bounds(1, &[1e5, 2e5, 1e5, 2e5]),
        fed.query_from_bounds(2, &[0.0, 20.0, 0.0, 45.0]),
    ];
    let outcomes = fed.run_batch(&queries, &policy);
    assert!(outcomes[0].is_ok(), "first neighbour must train");
    assert!(
        matches!(
            outcomes[1],
            Err(FederationError::NoParticipants { query_id: 1 })
        ),
        "the empty-region query must fail alone, got {:?}",
        outcomes[1]
    );
    assert!(outcomes[2].is_ok(), "second neighbour must train");
}

/// Each query of a batch is observed on its own: five queries leave five
/// `qens_fedlearn_run_query_nanos` samples, and no batch-wide timing
/// series is registered.
#[test]
fn a_batch_is_timed_query_by_query() {
    let fed = builder(21).telemetry(true).build();
    let queries = bucketed_queries(&fed);
    let outcomes = fed.run_batch(&queries, &PolicyKind::query_driven(3));
    let snap = fed.telemetry().snapshot();
    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    let samples = snap
        .histogram("qens_fedlearn_run_query_nanos")
        .map_or(0, |h| h.count);
    assert_eq!(samples, queries.len() as u64);
    let batch_series: Vec<&str> = snap
        .histograms
        .iter()
        .map(|h| h.name.as_str())
        .filter(|name| name.contains("batch"))
        .collect();
    assert!(batch_series.is_empty(), "{batch_series:?}");
}

#[test]
fn admission_config_flows_builder_to_federation() {
    let cfg = AdmissionConfig {
        body_cap_bytes: 1024,
    };
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(3, 40)
        .clusters_per_node(2)
        .seed(5)
        .epochs(1)
        .admission(cfg)
        .build();
    assert_eq!(fed.admission(), cfg);
}

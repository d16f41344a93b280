//! End-to-end suite for the deterministic fault-injection subsystem.
//!
//! Pins the contracts the `faults` crate and the fault-aware round
//! engine promise at the public-API (`qens`) layer:
//!
//! * same seed ⇒ byte-identical `FaultTrace`, identical participant
//!   sets and bit-identical final models, for any pinned thread count;
//! * a federation with faults disabled (or an inert spec) behaves
//!   bit-identically to one that never heard of the subsystem;
//! * quorum loss is a recoverable error a stream runner records and
//!   moves past, never a panic;
//! * ranked standby promotion keeps the query-driven cohort at full
//!   strength under dropout where a tail-less policy collapses.

use qens::prelude::*;

fn build(seed: u64, spec: Option<FaultSpec>, tolerance: FaultTolerance) -> Federation {
    let mut b = FederationBuilder::new()
        .heterogeneous_nodes(8, 90)
        .clusters_per_node(4)
        .seed(seed)
        .epochs(4)
        .capacities(0.5, 2.0)
        .links((1e6, 20e6), (0.005, 0.05))
        .fault_tolerance(tolerance);
    if let Some(spec) = spec {
        b = b.faults(spec);
    }
    b.build()
}

fn probe_query(fed: &Federation) -> Query {
    fed.query_from_bounds(3, &[0.0, 20.0, 0.0, 45.0])
}

#[test]
fn fault_runs_are_identical_across_thread_counts() {
    let spec = FaultSpec::unreliable_edge(11);
    let outcomes: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let fed = build(5, Some(spec.clone()), FaultTolerance::full_strength());
            let mut config = fed.config().clone();
            config.threads = Some(threads);
            let q = probe_query(&fed);
            let out = qens::fedlearn::run_query(
                fed.network(),
                &q,
                PolicyKind::query_driven(3).build().as_ref(),
                &config,
            )
            .expect("faulty round completes at full strength");
            let loss = out.query_loss(fed.network(), &q).expect("query has data");
            (out, loss)
        })
        .collect();
    let (ref base, base_loss) = outcomes[0];
    assert!(!base.fault_trace.is_empty(), "spec should fire something");
    for (out, loss) in &outcomes[1..] {
        assert_eq!(out.fault_trace.to_json(), base.fault_trace.to_json());
        assert_eq!(
            out.final_cohort.iter().map(|p| p.node).collect::<Vec<_>>(),
            base.final_cohort.iter().map(|p| p.node).collect::<Vec<_>>(),
        );
        assert_eq!(loss.to_bits(), base_loss.to_bits());
        assert_eq!(out.accounting.retries, base.accounting.retries);
        assert_eq!(out.accounting.replacements, base.accounting.replacements);
    }
}

#[test]
fn disabled_faults_match_a_fault_free_federation_bitwise() {
    let plain = build(9, None, FaultTolerance::default());
    let inert = build(9, Some(FaultSpec::none()), FaultTolerance::default());
    let q = probe_query(&plain);
    let a = plain
        .run_query(&q, &PolicyKind::query_driven(3))
        .expect("plain run");
    let b = inert
        .run_query(&q, &PolicyKind::query_driven(3))
        .expect("inert run");
    assert!(a.fault_trace.is_empty() && b.fault_trace.is_empty());
    assert_eq!(
        a.query_loss(plain.network(), &q).unwrap().to_bits(),
        b.query_loss(inert.network(), &q).unwrap().to_bits()
    );
    assert_eq!(a.accounting.sim_seconds, b.accounting.sim_seconds);
    assert_eq!(
        a.accounting.bytes_transferred,
        b.accounting.bytes_transferred
    );
    assert_eq!(a.accounting.retries, 0);
    assert_eq!(a.accounting.replacements, 0);
}

#[test]
fn quorum_loss_is_recorded_by_the_stream_not_fatal() {
    // Certain dropout: every participant misses every round, and there
    // is no standby deep enough to save a full-strength quorum.
    let fed = build(
        13,
        Some(FaultSpec::dropout(13, 1.0)),
        FaultTolerance::full_strength(),
    );
    let wl = fed.workload(&WorkloadConfig {
        n_queries: 4,
        ..WorkloadConfig::paper_default(17)
    });
    let res = fed.run_workload(&wl, &PolicyKind::query_driven(3));
    assert_eq!(res.per_query.len(), 4);
    assert_eq!(res.failed_queries(), 4, "every round must lose quorum");
    for row in &res.per_query {
        match &row.error {
            Some(FederationError::QuorumLost { survivors, .. }) => {
                assert_eq!(*survivors, 0);
            }
            Some(FederationError::NoParticipants { .. }) => {} // empty region
            other => panic!("expected QuorumLost/NoParticipants, got {other:?}"),
        }
    }
    assert_eq!(res.mean_loss(), None);
}

#[test]
fn standby_promotion_outlives_dropout_where_tail_less_selection_fails() {
    let spec = FaultSpec::dropout(3, 0.4);
    let tolerance = FaultTolerance::full_strength();
    let fed = build(21, Some(spec), tolerance);
    let wl = fed.workload(&WorkloadConfig {
        n_queries: 10,
        ..WorkloadConfig::paper_default(29)
    });
    let ours = fed.run_workload(&wl, &PolicyKind::query_driven(3));
    let random = fed.run_workload(&wl, &PolicyKind::Random { l: 3, seed: 31 });
    let ours_ok = ours.per_query.len() - ours.failed_queries();
    let random_ok = random.per_query.len() - random.failed_queries();
    assert!(
        ours_ok > random_ok,
        "standby-backed selection completed {ours_ok} vs random {random_ok}"
    );
    let replacements: usize = ours.accounting.rows.iter().map(|r| r.replacements).sum();
    assert!(replacements > 0, "survival must come from promotions");
    // And the ledger's fault fields stayed internally consistent.
    for row in &ours.accounting.rows {
        assert!(row.replacements <= row.dropped_participants + row.replacements);
        assert!(row.sim_seconds.is_finite() && row.sim_seconds >= 0.0);
    }
}

#[test]
fn fault_telemetry_counters_mirror_the_ledger() {
    let fed = build(
        7,
        Some(FaultSpec::unreliable_edge(19)),
        FaultTolerance::full_strength(),
    );
    fed.telemetry().set_enabled(true);
    let q = probe_query(&fed);
    let out = fed
        .run_query(&q, &PolicyKind::query_driven(3))
        .expect("faulty round completes");
    let snap = fed.telemetry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(
        snap.counters
            .iter()
            .any(|(name, _)| name.starts_with("qens_fault_")),
        "the plan fired no fault, so no qens_fault_* series exists"
    );
    assert_eq!(
        counter("qens_fault_retries_total"),
        out.accounting.retries as u64
    );
    assert_eq!(
        counter("qens_fault_dropped_participants_total"),
        out.accounting.dropped_participants as u64
    );
    assert_eq!(
        counter("qens_fault_replacements_total"),
        out.accounting.replacements as u64
    );
    assert_eq!(
        counter("qens_fault_deadline_misses_total"),
        out.accounting.deadline_misses as u64
    );
}

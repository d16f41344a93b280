//! Integration tests for the hierarchical trace subsystem:
//!
//! * the logical-clock trace export must be **byte-identical** across
//!   worker counts (the same contract `faults::FaultTrace` gives the
//!   fault engine),
//! * the wall-clock trace must be structurally valid (balanced
//!   begin/end, parents open before children),
//! * events must be attributed to the query that produced them,
//! * disabled tracing must record nothing at all.
//!
//! The trace collector and mode are process-global, so every test
//! serialises on one lock and clears the buffer first.

use qens::prelude::*;
use qens::telemetry::trace;

/// Serialises tests that flip the process-global trace state.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs two queries on a fresh logical-clock trace and returns the
/// Chrome export.
fn traced_run(threads: usize) -> String {
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .threads(threads)
        .faults(FaultSpec::unreliable_edge(7).with_dropout(0.3))
        .fault_tolerance(FaultTolerance::full_strength())
        .build();
    trace::clear();
    for qid in 0..2u64 {
        let q = fed.query_from_bounds(qid, &[0.0, 20.0, 0.0, 45.0]);
        // Quorum loss under the hostile plan is acceptable: failed
        // attempts still trace deterministically, which is exactly what
        // the byte-identity contract must cover.
        let _ = fed.run_query(&q, &PolicyKind::query_driven(2));
    }
    trace::export_chrome(None)
}

#[test]
fn logical_trace_is_byte_identical_across_worker_counts() {
    let _g = lock();
    trace::set_mode(Some(trace::Clock::Logical));
    let serial = traced_run(1);
    let pooled = traced_run(2);
    trace::set_mode(None);
    trace::clear();
    assert!(
        serial.contains("\"ph\":\"B\""),
        "logical trace must contain spans"
    );
    assert_eq!(
        serial, pooled,
        "logical-clock trace must not depend on the worker count"
    );
}

#[test]
fn logical_trace_is_structurally_valid_and_query_attributed() {
    let _g = lock();
    trace::set_mode(Some(trace::Clock::Logical));
    let _ = traced_run(2);
    let events = trace::snapshot_events();
    let queries = trace::query_ids();
    trace::set_mode(None);
    trace::clear();
    trace::validate_structure(&events).expect("logical trace is well-formed");
    assert_eq!(queries, vec![0, 1], "both queries must appear in the trace");
    // The round spans must be owned by a query.
    assert!(
        events
            .iter()
            .any(|e| e.name == "fedlearn.round" && e.query != u64::MAX),
        "round spans must be attributed to their query"
    );
    // Logical mode records only leader-serial events: one thread.
    assert!(
        events.iter().all(|e| e.tid == 0),
        "logical-clock events must all be on tid 0"
    );
}

#[test]
fn wall_trace_is_structurally_valid_and_sees_worker_spans() {
    let _g = lock();
    trace::set_mode(Some(trace::Clock::Wall));
    let _ = traced_run(2);
    let events = trace::snapshot_events();
    trace::set_mode(None);
    trace::clear();
    trace::validate_structure(&events).expect("wall trace is well-formed");
    // Wall mode additionally records the scheduling-dependent spans.
    for name in ["fedlearn.train", "par.task", "selection.score_node"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "wall trace must contain {name} spans"
        );
    }
    // Timestamps are monotone per thread.
    let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for e in &events {
        let prev = last.entry(e.tid).or_insert(0);
        assert!(e.ts >= *prev, "per-thread timestamps must be monotone");
        *prev = e.ts;
    }
}

#[test]
fn disabled_tracing_records_nothing() {
    let _g = lock();
    trace::set_mode(None);
    trace::clear();
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(3, 40)
        .clusters_per_node(2)
        .seed(5)
        .epochs(1)
        .build();
    let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
    fed.run_query(&q, &PolicyKind::query_driven(2))
        .expect("query runs");
    assert_eq!(
        trace::events_len(),
        0,
        "disabled tracing must buffer no events"
    );
    let span = telemetry::span("never.recorded", &[]);
    assert!(!span.is_recording(), "disabled spans must be inert");
    drop(span);
    assert_eq!(trace::events_len(), 0);
}

#[test]
fn export_filters_by_query_id() {
    let _g = lock();
    trace::set_mode(Some(trace::Clock::Logical));
    let _ = traced_run(1);
    let all = trace::export_chrome(None);
    let only_q1 = trace::export_chrome(Some(1));
    trace::set_mode(None);
    trace::clear();
    assert!(all.len() > only_q1.len(), "filtered export must be smaller");
    assert!(
        !only_q1.contains("\"q\":0") && only_q1.contains("\"q\":1"),
        "filtered export must only contain the requested query"
    );
}

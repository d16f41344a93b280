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
//! Each test reads the trace store of the federation it built.

use qens::prelude::*;
use qens::telemetry::trace;

/// Runs two queries traced on `clock` (the build untraced) and returns
/// the federation, whose trace store holds them.
fn traced_run(clock: trace::Clock, threads: usize) -> Federation {
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .threads(threads)
        .faults(FaultSpec::unreliable_edge(7).with_dropout(0.3))
        .fault_tolerance(FaultTolerance::full_strength())
        .build();
    fed.telemetry().trace().set_mode(Some(clock));
    for qid in 0..2u64 {
        let q = fed.query_from_bounds(qid, &[0.0, 20.0, 0.0, 45.0]);
        // Quorum loss under the hostile plan is acceptable: failed
        // attempts still trace deterministically, which is exactly what
        // the byte-identity contract must cover.
        let _ = fed.run_query(&q, &PolicyKind::query_driven(2));
    }
    fed
}

/// The Chrome export of [`traced_run`] on the logical clock.
fn logical_export(threads: usize) -> String {
    let fed = traced_run(trace::Clock::Logical, threads);
    fed.telemetry().trace().export_chrome(None)
}

#[test]
fn logical_trace_is_byte_identical_across_worker_counts() {
    let serial = logical_export(1);
    let pooled = logical_export(2);
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
    let fed = traced_run(trace::Clock::Logical, 2);
    let events = fed.telemetry().trace().snapshot_events();
    let queries = fed.telemetry().trace().query_ids();
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
    let fed = traced_run(trace::Clock::Wall, 2);
    let events = fed.telemetry().trace().snapshot_events();
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
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(3, 40)
        .clusters_per_node(2)
        .seed(5)
        .epochs(1)
        .build();
    let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
    fed.run_query(&q, &PolicyKind::query_driven(2))
        .expect("query runs");
    let store = fed.telemetry().trace();
    assert_eq!(
        store.events_len(),
        0,
        "disabled tracing must buffer no events"
    );
    let span = fed
        .telemetry()
        .enter(|| telemetry::span("never.recorded", &[]));
    assert!(!span.is_recording(), "disabled spans must be inert");
    drop(span);
    assert_eq!(store.events_len(), 0);
}

#[test]
fn export_filters_by_query_id() {
    let fed = traced_run(trace::Clock::Logical, 1);
    let all = fed.telemetry().trace().export_chrome(None);
    let only_q1 = fed.telemetry().trace().export_chrome(Some(1));
    assert!(all.len() > only_q1.len(), "filtered export must be smaller");
    assert!(
        !only_q1.contains("\"q\":0") && only_q1.contains("\"q\":1"),
        "filtered export must only contain the requested query"
    );
}

/// How many `name` spans begin in `events`.
fn begins(events: &[trace::TraceEvent], name: &str) -> usize {
    events
        .iter()
        .filter(|e| e.name == name && e.phase == trace::Phase::Begin)
        .count()
}

#[test]
fn concurrent_traced_queries_keep_their_own_trees() {
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .threads(2)
        .trace(Some(trace::Clock::Wall))
        .build();
    let store = fed.telemetry().trace();
    let bounds = [0.0, 20.0, 0.0, 45.0];
    let policy = PolicyKind::query_driven(2);
    // Alone, one query's tree holds every pool task of its round; the
    // same rectangle always submits the same tasks.
    fed.run_query(&fed.query_from_bounds(999, &bounds), &policy)
        .expect("query runs");
    let tasks = begins(&store.snapshot_query(999), "par.task");
    assert!(tasks > 0, "the round must use the pool");
    // Two threads answer queries side by side on one federation, as the
    // server's connection threads do; the pool's workers run tasks of
    // both queries.
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (fed, policy) = (&fed, &policy);
            s.spawn(move || {
                for i in 0..20 {
                    let q = fed.query_from_bounds(100 * t + i, &bounds);
                    fed.run_query(&q, policy).expect("query runs");
                }
            });
        }
    });
    let trees: Vec<(u64, Vec<trace::TraceEvent>)> = (0..2u64)
        .flat_map(|t| (0..20).map(move |i| 100 * t + i))
        .map(|id| (id, store.snapshot_query(id)))
        .collect();
    for (id, events) in trees {
        let ends = events
            .iter()
            .filter(|e| e.name == "query" && e.phase == trace::Phase::End)
            .count();
        assert_eq!(
            (begins(&events, "query"), ends),
            (1, 1),
            "query {id} must have exactly one root span"
        );
        trace::validate_structure(&events)
            .unwrap_or_else(|e| panic!("query {id}'s tree is malformed: {e}"));
        // Wherever a task ran, it is stamped with the query that
        // submitted it.
        assert_eq!(
            begins(&events, "par.task"),
            tasks,
            "query {id} must own exactly its own pool tasks"
        );
    }
}

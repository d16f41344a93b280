//! Integration tests for the fleet observability subsystem
//! (`telemetry::fleet` + `telemetry::journal`):
//!
//! * scorecards and the logical-clock journal export must be
//!   **byte-identical** across worker counts — including under a
//!   hostile fault plan (the same contract `faults::FaultTrace` and the
//!   trace subsystem honour),
//! * dropout and standby promotion must be attributed to the *right*
//!   nodes: per-node journal event counts must equal the scorecard
//!   counters,
//! * registry totals must agree with the `QueryAccounting` ledger on
//!   streams where every query completed,
//! * a disabled fleet (`FederationBuilder::fleet(false)`)
//!   must record nothing and leave query results bitwise unchanged.
//!
//! Each stream runs on a federation of its own and reads that
//! federation's telemetry handle.

use qens::prelude::*;
use qens::telemetry::trace::Clock;
use qens::workload::{WorkloadConfig, WorkloadKind};

const N_QUERIES: usize = 200;

fn build_fed(threads: usize, dropout: Option<(f64, FaultTolerance)>, fleet_on: bool) -> Federation {
    let mut b = FederationBuilder::new()
        .heterogeneous_nodes(6, 80)
        .clusters_per_node(3)
        .seed(11)
        .epochs(3)
        .threads(threads)
        .fleet(fleet_on);
    if let Some((rate, tolerance)) = dropout {
        b = b
            .faults(FaultSpec::dropout(11, rate))
            .fault_tolerance(tolerance);
    }
    b.build()
}

/// Runs one 200-query stream on a fresh federation with the fleet layer
/// on (no stream fills the journal's ring, so none is overwritten) and
/// returns the deterministic fleet JSON, the full logical-clock journal
/// export, the stream result and the federation.
fn run_fleet_stream(
    threads: usize,
    kind: WorkloadKind,
    dropout: Option<(f64, FaultTolerance)>,
    halfwidth_frac: (f64, f64),
) -> (String, String, qens::fedlearn::StreamResult, Federation) {
    let fed = build_fed(threads, dropout, true);
    let wl = fed.workload(&WorkloadConfig {
        n_queries: N_QUERIES,
        kind,
        halfwidth_frac,
        ..WorkloadConfig::paper_default(77)
    });
    let stream = fed.run_workload(&wl, &PolicyKind::query_driven(3));
    let tele = fed.telemetry();
    assert_eq!(tele.journal().overwritten(), 0);
    (
        tele.fleet().to_json(),
        tele.journal().to_jsonl(Clock::Logical, None),
        stream,
        fed.clone(),
    )
}

fn workloads() -> [WorkloadKind; 3] {
    [
        WorkloadKind::Uniform,
        WorkloadKind::Drifting {
            step_frac: 0.02,
            spread_frac: 0.03,
        },
        WorkloadKind::Hotspot {
            hotspots: 3,
            spread_frac: 0.05,
        },
    ]
}

#[test]
fn scorecards_and_journal_are_byte_identical_across_threads() {
    for kind in workloads() {
        // A hostile plan on every stream: dropout, retries, standby
        // promotion and the occasional quorum loss must all replay
        // identically regardless of the worker count.
        let (base_fleet, base_journal, ..) = run_fleet_stream(
            1,
            kind.clone(),
            Some((0.2, FaultTolerance::full_strength())),
            (0.05, 0.30),
        );
        assert!(base_fleet.contains("\"skew\":{"), "fleet doc: {base_fleet}");
        assert!(
            base_journal.contains("\"kind\":\"node_dropped\""),
            "the 20% dropout plan must surface drops"
        );
        assert!(!base_journal.contains("wall_nanos"));
        for threads in [2usize, 4] {
            let (f, j, ..) = run_fleet_stream(
                threads,
                kind.clone(),
                Some((0.2, FaultTolerance::full_strength())),
                (0.05, 0.30),
            );
            assert_eq!(
                f, base_fleet,
                "fleet JSON diverged at {threads} threads ({kind:?})"
            );
            assert_eq!(
                j, base_journal,
                "journal export diverged at {threads} threads ({kind:?})"
            );
        }
    }
}

/// Counts journal events of `kind` attributed to each node.
fn events_per_node(journal_doc: &str, kind: &str) -> std::collections::BTreeMap<u64, u64> {
    let needle = format!("\"kind\":\"{kind}\"");
    let mut counts = std::collections::BTreeMap::new();
    for line in journal_doc.lines().filter(|l| l.contains(&needle)) {
        let node = line
            .split("\"node\":")
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .filter(|s| !s.is_empty())
            })
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{kind} event without node attribution: {line}"));
        *counts.entry(node).or_insert(0) += 1;
    }
    counts
}

#[test]
fn faulted_run_attributes_drops_and_promotions_to_the_right_nodes() {
    let (fleet_doc, journal_doc, _, fed) = run_fleet_stream(
        1,
        WorkloadKind::Uniform,
        Some((0.2, FaultTolerance::full_strength())),
        (0.05, 0.30),
    );
    let cards = fed.telemetry().fleet().snapshot();
    let dropped_events = events_per_node(&journal_doc, "node_dropped");
    let promoted_events = events_per_node(&journal_doc, "standby_promoted");
    assert!(
        !dropped_events.is_empty() && !promoted_events.is_empty(),
        "the fault plan must produce drops and promotions"
    );
    // Scorecard counters and journal attribution are two views of the
    // same round loop: they must agree node by node.
    for card in &cards {
        assert_eq!(
            card.dropped,
            dropped_events.get(&card.node).copied().unwrap_or(0),
            "node {} dropped",
            card.node
        );
        assert_eq!(
            card.promoted,
            promoted_events.get(&card.node).copied().unwrap_or(0),
            "node {} promoted",
            card.node
        );
    }
    // Every journal-attributed node exists in the registry.
    for node in dropped_events.keys().chain(promoted_events.keys()) {
        assert!(
            cards.iter().any(|c| c.node == *node),
            "journal names node {node} missing from the registry"
        );
    }
    assert!(fleet_doc.contains("\"fleet_size\":6"));
}

#[test]
fn registry_totals_agree_with_the_accounting_ledger() {
    // The ledger only rows *completed* queries, while the registry (by
    // design) counts all activity — including rounds of queries that
    // later lost quorum. The journal attributes every event to its
    // query, so failed-query activity can be subtracted exactly and the
    // remainder must match the ledger to the unit.
    let (_, journal_doc, stream, fed) = run_fleet_stream(
        1,
        WorkloadKind::Uniform,
        Some((0.2, FaultTolerance::full_strength())),
        (0.05, 0.30),
    );
    let failed: std::collections::HashSet<u64> = stream
        .per_query
        .iter()
        .filter(|q| q.error.is_some())
        .map(|q| q.query_id)
        .collect();
    let in_failed = |kind: &str| -> u64 {
        let needle = format!("\"kind\":\"{kind}\"");
        journal_doc
            .lines()
            .filter(|l| l.contains(&needle))
            .filter(|l| {
                l.split("\"query\":")
                    .nth(1)
                    .and_then(|rest| {
                        rest.split(|c: char| !c.is_ascii_digit())
                            .next()?
                            .parse::<u64>()
                            .ok()
                    })
                    .is_some_and(|q| failed.contains(&q))
            })
            .count() as u64
    };
    let cards = fed.telemetry().fleet().snapshot();
    let fleet_totals = (
        cards.iter().map(|c| c.retried).sum::<u64>(),
        cards.iter().map(|c| c.dropped).sum::<u64>() - in_failed("node_dropped"),
        cards.iter().map(|c| c.promoted).sum::<u64>() - in_failed("standby_promoted"),
        cards.iter().map(|c| c.selected).sum::<u64>() - in_failed("node_selected"),
    );
    let rows = &stream.accounting.rows;
    let ledger_totals = (
        rows.iter().map(|r| r.retries).sum::<usize>() as u64,
        rows.iter().map(|r| r.dropped_participants).sum::<usize>() as u64,
        rows.iter().map(|r| r.replacements).sum::<usize>() as u64,
        rows.iter().map(|r| r.nodes_selected).sum::<usize>() as u64,
    );
    assert_eq!(
        fleet_totals,
        ledger_totals,
        "(retried, dropped, promoted, selected) must match the ledger \
         once failed-query activity is removed ({} failed)",
        failed.len()
    );
    assert!(
        fleet_totals.1 > 0 && fleet_totals.2 > 0,
        "the plan must exercise the fault counters: {fleet_totals:?}"
    );
    assert_eq!(fed.telemetry().fleet().queries(), N_QUERIES as u64);
}

#[test]
fn disabled_fleet_is_inert_and_leaves_results_bitwise_unchanged() {
    // Enabled run first.
    let (_, _, enabled, _) = run_fleet_stream(
        1,
        WorkloadKind::Uniform,
        Some((0.2, FaultTolerance::full_strength())),
        (0.05, 0.30),
    );
    // Disabled run: same federation, fleet(false).
    let fed = build_fed(1, Some((0.2, FaultTolerance::full_strength())), false);
    let tele = fed.telemetry();
    assert!(
        !tele.fleet().enabled(),
        "fleet(false) must disable the registry"
    );
    let wl = fed.workload(&WorkloadConfig {
        n_queries: N_QUERIES,
        kind: WorkloadKind::Uniform,
        ..WorkloadConfig::paper_default(77)
    });
    let disabled = fed.run_workload(&wl, &PolicyKind::query_driven(3));
    assert!(
        tele.fleet().snapshot().is_empty()
            && tele.fleet().queries() == 0
            && tele.journal().tail(None).is_empty(),
        "a disabled fleet must record nothing"
    );
    // Observability must never perturb the computation: identical
    // losses, bit for bit.
    assert_eq!(enabled.per_query.len(), disabled.per_query.len());
    for (a, b) in enabled.per_query.iter().zip(disabled.per_query.iter()) {
        assert_eq!(a.query_id, b.query_id);
        assert_eq!(
            a.loss.map(f64::to_bits),
            b.loss.map(f64::to_bits),
            "query {} loss changed with fleet off",
            a.query_id
        );
    }
}

//! Integration tests for the query profiler and SLO subsystem:
//!
//! * the folded-stack export (and the SVG rendered from it) must be
//!   **byte-identical** across worker counts under the logical clock —
//!   the same contract the Chrome trace export already carries,
//! * the slow-query flight recorder must retain an identical set of
//!   queries, in an identical order, at any `QENS_THREADS`,
//! * the SLO tracker's rolling windows must stay consistent across
//!   ring-buffer wrap-arounds,
//! * `run_query`'s one query guard must time, classify and root the
//!   trace tree of every query exactly once,
//! * the new Prometheus series (`qens_build_info`,
//!   `qens_uptime_seconds`, `qens_slo_*`) must conform to the text
//!   exposition format.
//!
//! The trace collector, flight recorder, SLO tracker and metric
//! registry are process-global, so every test serialises on one lock
//! and clears the relevant state first.

use qens::prelude::*;
use qens::telemetry;
use qens::telemetry::profile;
use qens::telemetry::trace;

/// Serialises tests that flip the process-global telemetry state.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs three queries on a fresh logical-clock trace and returns the
/// aggregated profile artefacts plus the flight-recorder verdict.
fn profiled_run(threads: usize) -> (String, String, Vec<(u64, u64, usize)>) {
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
    profile::reset();
    for qid in 0..3u64 {
        let q = fed.query_from_bounds(qid, &[0.0, 20.0, 0.0, 45.0]);
        // Quorum loss under the hostile plan is acceptable: failed
        // attempts still profile deterministically, which is exactly
        // what the byte-identity contract must cover.
        let _ = fed.run_query(&q, &PolicyKind::query_driven(2));
    }
    let agg = profile::aggregate(&trace::snapshot_events());
    let folded = profile::to_folded(&agg);
    let svg = profile::to_svg(&agg, "profile_slo test", "ticks");
    let slowest = profile::slowest()
        .iter()
        .map(|e| (e.query_id, e.duration, e.events.len()))
        .collect();
    (folded, svg, slowest)
}

#[test]
fn folded_profile_is_byte_identical_across_worker_counts() {
    let _g = lock();
    trace::set_mode(Some(trace::Clock::Logical));
    let serial = profiled_run(1);
    let two = profiled_run(2);
    let four = profiled_run(4);
    trace::set_mode(None);
    trace::clear();
    profile::reset();
    assert!(
        serial.0.lines().any(|l| l.starts_with("query ")),
        "folded export must contain the query root"
    );
    assert!(
        serial
            .0
            .lines()
            .any(|l| l.starts_with("query;fedlearn.round ")),
        "folded export must contain the round phase under the query"
    );
    assert_eq!(
        serial.0, two.0,
        "folded stacks must not depend on the worker count (1 vs 2)"
    );
    assert_eq!(
        serial.0, four.0,
        "folded stacks must not depend on the worker count (1 vs 4)"
    );
    assert_eq!(
        serial.1, four.1,
        "the SVG flamegraph must not depend on the worker count"
    );
    assert!(
        serial.1.starts_with("<svg ") && serial.1.ends_with("</svg>\n"),
        "the flamegraph must be a complete SVG document"
    );
}

#[test]
fn flight_recorder_retains_identical_slow_queries_across_worker_counts() {
    let _g = lock();
    trace::set_mode(Some(trace::Clock::Logical));
    let serial = profiled_run(1);
    let pooled = profiled_run(4);
    trace::set_mode(None);
    trace::clear();
    profile::reset();
    assert_eq!(
        serial.2.len(),
        3,
        "the recorder must retain all three queries (cap {})",
        profile::DEFAULT_FLIGHT_K
    );
    assert_eq!(
        serial.2, pooled.2,
        "flight-recorder contents (ids, tick spans, event counts) must \
         not depend on the worker count"
    );
    // Slowest first; ties break toward the lower query id.
    for pair in serial.2.windows(2) {
        assert!(
            pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
            "entries must be ordered by duration desc, then query id asc: {:?}",
            serial.2
        );
    }
}

/// `run_query` opens one query guard (the observer, which roots the
/// trace tree) and one timer; three queries must each be timed once,
/// classified once and traced as one balanced tree under `query`.
#[test]
fn each_query_is_timed_classified_and_traced_once() {
    let _g = lock();
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .telemetry(true)
        .build();
    telemetry::global().reset();
    trace::set_mode(Some(trace::Clock::Logical));
    trace::clear();
    profile::reset();
    for qid in 0..3u64 {
        let q = fed.query_from_bounds(qid, &[0.0, 20.0, 0.0, 45.0]);
        fed.run_query(&q, &PolicyKind::query_driven(2))
            .expect("query runs");
    }
    trace::set_mode(None);
    let snap = telemetry::global().snapshot();
    let ids = trace::query_ids();
    let trees: Vec<_> = ids.iter().map(|&id| trace::snapshot_query(id)).collect();
    let mut recorded = profile::slowest();
    recorded.sort_by_key(|e| e.query_id);
    telemetry::set_enabled(false);
    trace::clear();
    profile::reset();

    let timed = snap.histogram("qens_fedlearn_run_query_nanos");
    assert_eq!(timed.map(|h| h.count), Some(3));
    let verdicts =
        ["qens_slo_good_total", "qens_slo_bad_total"].map(|name| snap.counter(name).unwrap_or(0));
    assert_eq!(verdicts.iter().sum::<u64>(), 3, "{verdicts:?}");
    assert_eq!(ids, [0, 1, 2]);
    for (id, events) in ids.iter().zip(&trees) {
        trace::validate_structure(events).unwrap_or_else(|e| panic!("query {id}: {e}"));
        let root = &events[0];
        assert_eq!(
            (root.name, root.phase),
            ("query", trace::Phase::Begin),
            "query {id} must open with its query span"
        );
    }
    // The span closes before the tree reaches the flight recorder.
    assert_eq!(recorded.len(), 3);
    for (entry, (id, events)) in recorded.iter().zip(ids.iter().zip(&trees)) {
        assert_eq!(entry.query_id, *id);
        assert!(
            entry.events == *events,
            "query {id}: the flight recorder holds {} of its {} events",
            entry.events.len(),
            events.len()
        );
    }
}

#[test]
fn slo_windows_stay_consistent_across_ring_wrap() {
    let _g = lock();
    let cfg = profile::SloConfig {
        objective_nanos: 1_000,
        target: 0.9,
        window: 4,
    };
    let mut t = profile::SloTracker::new(cfg);
    // Fill the whole 6x ring (24 slots) with good verdicts, then push
    // 4 bad ones: the 1x window must read 100% bad while the 6x window
    // still remembers 20 good verdicts.
    for _ in 0..24 {
        assert!(t.observe(10), "10ns is within the 1µs objective");
    }
    assert_eq!(t.burn_rate_1x(), 0.0);
    assert_eq!(t.burn_rate_6x(), 0.0);
    for _ in 0..4 {
        assert!(!t.observe(10_000), "10µs must breach the 1µs objective");
    }
    // budget = 1 - 0.9 = 0.1; 1x window is all bad -> 1.0 / 0.1 = 10.
    assert!(
        (t.burn_rate_1x() - 10.0).abs() < 1e-9,
        "{}",
        t.burn_rate_1x()
    );
    // 6x window holds 4 bad of 24 -> (4/24) / 0.1 = 5/3.
    assert!(
        (t.burn_rate_6x() - (4.0 / 24.0) / 0.1).abs() < 1e-9,
        "{}",
        t.burn_rate_6x()
    );
    assert_eq!(t.good_total(), 24);
    assert_eq!(t.bad_total(), 4);
    // Another 24 good verdicts wrap the ring fully: the bad slots must
    // age out of both windows even though the lifetime totals persist.
    for _ in 0..24 {
        t.observe(10);
    }
    assert_eq!(t.burn_rate_1x(), 0.0);
    assert_eq!(t.burn_rate_6x(), 0.0);
    assert_eq!(t.bad_total(), 4, "lifetime counters must never age out");
}

#[test]
fn prometheus_export_covers_build_info_uptime_and_slo_series() {
    let _g = lock();
    telemetry::set_enabled(true);
    // One verdict on each side of the default 250ms objective so both
    // counters exist in the registry.
    profile::observe_query(1);
    profile::observe_query(10_000_000_000);
    let text = telemetry::export::to_prometheus(&telemetry::global().snapshot());
    telemetry::set_enabled(false);
    profile::reset();

    for series in [
        "qens_build_info",
        "qens_uptime_seconds",
        "qens_slo_good_total",
        "qens_slo_bad_total",
        "qens_slo_burn_rate_1x",
        "qens_slo_burn_rate_6x",
        "qens_slo_objective_seconds",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(series)),
            "export must contain a {series} sample"
        );
        assert!(
            text.contains(&format!("# HELP {series} ")),
            "{series} must carry HELP"
        );
        assert!(
            text.contains(&format!("# TYPE {series} ")),
            "{series} must carry TYPE"
        );
    }
    // Build info is the labels-as-metadata idiom: value is always 1.
    let build = text
        .lines()
        .find(|l| l.starts_with("qens_build_info{"))
        .expect("build info sample");
    assert!(build.contains("version=\""), "{build}");
    assert!(build.contains("profile=\""), "{build}");
    assert!(build.ends_with(" 1"), "{build}");
    // Text exposition conformance: every non-comment line is
    // `name[{labels}] value` with a parseable float value.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("sample has a value");
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "malformed metric name in line: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in line: {line}"
        );
    }
}

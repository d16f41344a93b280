//! Integration tests coupling the telemetry subsystem to the pipeline:
//!
//! * the resource ledger (`QueryAccounting`) and the telemetry counters
//!   must tell the same story,
//! * federation on a pool of four and inline on a pool of one must
//!   produce identical models AND identical counter totals (the
//!   determinism guard),
//! * concurrent recording must be lossless,
//! * disabled mode must record nothing,
//! * two federations run side by side keep their telemetry apart.
//!
//! Each test reads the telemetry handle of the federation it built.

use qens::prelude::*;
use qens::telemetry::{self, trace::Clock, Telemetry};

fn builder(seed: u64) -> FederationBuilder {
    FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(seed)
        .epochs(2)
}

fn small_fed(seed: u64) -> Federation {
    builder(seed).build()
}

/// The telemetry counters and the accounting rows agree exactly: every
/// resource the ledger reports is mirrored in `qens_edgesim_*` totals.
#[test]
fn accounting_rows_agree_with_counters() {
    let fed = small_fed(11);
    let global = fed.network().global_space();
    let y = global.interval(1);
    // A mix of full-space and partial queries; some may legally fail.
    let bounds = [(0.0, 40.0), (-100.0, 100.0), (5.0, 12.0), (-5.0, 60.0)];
    let queries: Vec<Query> = bounds
        .iter()
        .enumerate()
        .map(|(i, (lo, hi))| fed.query_from_bounds(i as u64, &[*lo, *hi, y.lo(), y.hi()]))
        .collect();
    let policy = PolicyKind::query_driven(3);

    fed.telemetry().set_enabled(true);
    let outcomes: Vec<_> = queries.iter().map(|q| fed.run_query(q, &policy)).collect();
    assert_rows_match_counters(&fed.telemetry().snapshot(), outcomes);
}

/// Asserts the snapshot's `qens_edgesim_*` totals equal the summed
/// ledgers of the completed outcomes.
fn assert_rows_match_counters(
    snap: &telemetry::Snapshot,
    outcomes: Vec<Result<qens::fedlearn::RoundOutcome, FederationError>>,
) {
    let rows: Vec<_> = outcomes
        .into_iter()
        .flatten()
        .map(|out| out.accounting)
        .collect();
    assert!(!rows.is_empty(), "at least one query must complete");

    let sum = |f: fn(&qens::edgesim::QueryAccounting) -> u64| rows.iter().map(f).sum::<u64>();
    assert_eq!(
        snap.counter("qens_edgesim_queries_total"),
        Some(rows.len() as u64)
    );
    assert_eq!(
        snap.counter("qens_edgesim_nodes_selected_total"),
        Some(sum(|r| r.nodes_selected as u64))
    );
    assert_eq!(
        snap.counter("qens_edgesim_samples_used_total"),
        Some(sum(|r| r.samples_used as u64))
    );
    assert_eq!(
        snap.counter("qens_edgesim_sample_visits_total"),
        Some(sum(|r| r.sample_visits as u64))
    );
    assert_eq!(
        snap.counter("qens_edgesim_bytes_transferred_total"),
        Some(sum(|r| r.bytes_transferred as u64))
    );
    let wall: f64 = rows.iter().map(|r| r.wall_seconds).sum();
    let got_wall = snap.gauge("qens_edgesim_wall_seconds").unwrap();
    assert!(
        (got_wall - wall).abs() <= 1e-9 * wall.max(1.0),
        "{got_wall} vs {wall}"
    );
    let sim: f64 = rows.iter().map(|r| r.sim_seconds).sum();
    let got_sim = snap.gauge("qens_edgesim_sim_seconds").unwrap();
    assert!(
        (got_sim - sim).abs() <= 1e-9 * sim.max(1.0),
        "{got_sim} vs {sim}"
    );
    // One histogram observation per completed query.
    assert_eq!(
        snap.histogram("qens_edgesim_query_bytes").unwrap().count,
        rows.len() as u64
    );
}

/// The determinism guard: a federation round on four pool workers and
/// one trained inline on a pool of one produce the same model (same
/// loss) and, because counters are order-independent, bit-identical
/// counter totals and histogram counts.
#[test]
fn parallel_and_serial_runs_are_telemetry_identical() {
    let fed = small_fed(23);
    let q = fed.query_from_bounds(0, &fed.network().global_space().to_boundary_vec());
    let with_threads = |threads| FederationConfig {
        threads: Some(threads),
        ..fed.config().clone()
    };
    let (par_cfg, ser_cfg) = (with_threads(4), with_threads(1));

    let mut runs = Vec::new();
    for cfg in [par_cfg, ser_cfg] {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        let policy = PolicyKind::query_driven(3).build();
        let out = tele
            .enter(|| qens::fedlearn::run_query(fed.network(), &q, policy.as_ref(), &cfg))
            .expect("full-space query must complete");
        let loss = out.query_loss(fed.network(), &q).expect("loss available");
        runs.push((loss, tele.snapshot()));
    }

    let (par_loss, par_snap) = &runs[0];
    let (ser_loss, ser_snap) = &runs[1];
    assert_eq!(
        par_loss, ser_loss,
        "models diverged between parallel and serial"
    );
    // Domain counters must agree exactly. The `par` pool's own
    // scheduling counters (scopes/tasks/inline-tasks) are excluded:
    // whether work ran inline or as queued pool jobs is scheduling
    // detail, explicitly outside the determinism contract.
    let domain = |s: &telemetry::Snapshot| {
        s.counters
            .iter()
            .filter(|(name, _)| !name.starts_with("qens_par_"))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        domain(par_snap),
        domain(ser_snap),
        "domain counter totals diverged"
    );
    // Histogram *timings* differ run to run, but the number of
    // observations per metric is structural and must match (again minus
    // the pool's queue-depth scheduling histogram).
    let counts = |s: &telemetry::Snapshot| {
        s.histograms
            .iter()
            .filter(|h| !h.name.starts_with("qens_par_"))
            .map(|h| (h.name.clone(), h.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        counts(par_snap),
        counts(ser_snap),
        "histogram observation counts diverged"
    );
}

/// Concurrent recording from scoped threads loses no increments and no
/// histogram observations.
#[test]
fn concurrent_recording_is_lossless() {
    let reg = telemetry::Registry::new();
    let threads = 8;
    let per_thread = 10_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let reg = &reg;
            s.spawn(move || {
                let c = reg.counter("qens_test_concurrent_total");
                let h = reg.histogram("qens_test_concurrent_nanos");
                for i in 0..per_thread {
                    c.incr();
                    h.record(t * per_thread + i);
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("qens_test_concurrent_total"),
        Some(threads * per_thread)
    );
    assert_eq!(
        snap.histogram("qens_test_concurrent_nanos").unwrap().count,
        threads * per_thread
    );
}

/// With telemetry disabled the whole pipeline records nothing — the
/// near-free disabled mode really is off.
#[test]
fn disabled_mode_records_nothing() {
    let fed = small_fed(41);
    let q = fed.query_from_bounds(0, &fed.network().global_space().to_boundary_vec());
    fed.run_query(&q, &PolicyKind::query_driven(3))
        .expect("query completes");

    let snap = fed.telemetry().snapshot();
    assert!(snap.is_empty(), "disabled telemetry must record nothing");
    assert!(snap.counters.is_empty() && snap.histograms.is_empty());
}

/// What one federation's handle saw of its own queries.
#[derive(Debug, PartialEq)]
struct Seen {
    run_query_samples: u64,
    edgesim_queries: u64,
    fleet_queries: u64,
    trace_query_ids: Vec<u64>,
    chrome: String,
}

/// Builds a fully observed federation (telemetry, fleet, logical trace)
/// of `seed` and runs `n` queries with ids from `first_id` on it.
fn observed_run(seed: u64, first_id: u64, n: u64) -> Seen {
    let fed = builder(seed)
        .telemetry(true)
        .fleet(true)
        .trace(Some(Clock::Logical))
        .build();
    for id in first_id..first_id + n {
        let lo = (id % 4) as f64 * 2.5;
        let q = fed.query_from_bounds(id, &[lo, lo + 20.0, 0.0, 45.0]);
        fed.run_query(&q, &PolicyKind::query_driven(2))
            .expect("query runs");
    }
    let tele = fed.telemetry();
    let snap = tele.snapshot();
    Seen {
        run_query_samples: snap
            .histogram("qens_fedlearn_run_query_nanos")
            .map_or(0, |h| h.count),
        edgesim_queries: snap.counter("qens_edgesim_queries_total").unwrap_or(0),
        fleet_queries: tele.fleet().queries(),
        trace_query_ids: tele.trace().query_ids(),
        chrome: tele.trace().export_chrome(None),
    }
}

/// Two differently seeded federations, each with every telemetry layer
/// on, run at once on two threads (sharing the global pool). Each
/// handle counts exactly its own queries, and each logical trace is
/// byte-identical to the same federation's run alone: no counter, card,
/// span or tick of one reaches the other.
#[test]
fn two_federations_on_two_threads_keep_their_own_telemetry() {
    let runs = [(31, 0, 3), (32, 100, 5)];
    let alone: Vec<Seen> = runs
        .iter()
        .map(|&(seed, first, n)| observed_run(seed, first, n))
        .collect();
    let together: Vec<Seen> = std::thread::scope(|s| {
        let threads: Vec<_> = runs
            .iter()
            .map(|&(seed, first, n)| s.spawn(move || observed_run(seed, first, n)))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for ((&(_, first, n), alone), together) in runs.iter().zip(&alone).zip(&together) {
        let ids: Vec<u64> = (first..first + n).collect();
        assert_eq!(
            (
                together.run_query_samples,
                together.edgesim_queries,
                together.fleet_queries,
                &together.trace_query_ids
            ),
            (n, n, n, &ids)
        );
        assert!(together.chrome.contains("fedlearn.round"));
        assert_eq!(together, alone);
    }
}

//! Integration tests coupling the telemetry subsystem to the pipeline:
//!
//! * the resource ledger (`QueryAccounting`) and the telemetry counters
//!   must tell the same story,
//! * federation on a pool of four and inline on a pool of one must
//!   produce identical models AND identical counter totals (the
//!   determinism guard),
//! * concurrent recording must be lossless,
//! * disabled mode must record nothing.
//!
//! The telemetry enablement flag and the registry are process-global, so
//! every test serialises on one lock and resets the registry first.

use qens::prelude::*;
use qens::telemetry;

/// Serialises tests that flip the process-global telemetry state.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_fed(seed: u64) -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(seed)
        .epochs(2)
        .build()
}

/// The telemetry counters and the accounting rows agree exactly: every
/// resource the ledger reports is mirrored in `qens_edgesim_*` totals —
/// for a `run_query` loop and again for the same queries as one batch.
#[test]
fn accounting_rows_agree_with_counters() {
    let _g = lock();
    telemetry::set_enabled(true);

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

    telemetry::global().reset();
    let outcomes: Vec<_> = queries.iter().map(|q| fed.run_query(q, &policy)).collect();
    assert_rows_match_counters(outcomes);

    telemetry::global().reset();
    assert_rows_match_counters(fed.run_batch(&queries, &policy));
    telemetry::set_enabled(false);
}

/// Asserts the registry's `qens_edgesim_*` totals equal the summed
/// ledgers of the completed outcomes.
fn assert_rows_match_counters(
    outcomes: Vec<Result<qens::fedlearn::RoundOutcome, FederationError>>,
) {
    let rows: Vec<_> = outcomes
        .into_iter()
        .flatten()
        .map(|out| out.accounting)
        .collect();
    assert!(!rows.is_empty(), "at least one query must complete");
    let snap = telemetry::global().snapshot();

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
    let _g = lock();
    telemetry::set_enabled(true);

    let fed = small_fed(23);
    let q = fed.query_from_bounds(0, &fed.network().global_space().to_boundary_vec());
    let par_cfg = fed.config().clone().with_thread_count(4);
    let ser_cfg = fed.config().clone().with_thread_count(1);

    let mut runs = Vec::new();
    for cfg in [par_cfg, ser_cfg] {
        telemetry::global().reset();
        let policy = PolicyKind::query_driven(3).build();
        let out = qens::fedlearn::run_query(fed.network(), &q, policy.as_ref(), &cfg)
            .expect("full-space query must complete");
        let loss = out.query_loss(fed.network(), &q).expect("loss available");
        runs.push((loss, telemetry::global().snapshot()));
    }
    telemetry::set_enabled(false);

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
    let _g = lock();
    telemetry::set_enabled(true);
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
    telemetry::set_enabled(false);
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
    let _g = lock();
    telemetry::set_enabled(false);
    telemetry::global().reset();

    let fed = small_fed(41);
    let q = fed.query_from_bounds(0, &fed.network().global_space().to_boundary_vec());
    fed.run_query(&q, &PolicyKind::query_driven(3))
        .expect("query completes");

    let snap = telemetry::global().snapshot();
    assert!(snap.is_empty(), "disabled telemetry must record nothing");
}

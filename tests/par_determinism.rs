//! Cross-layer determinism suite for the bounded thread pool (`par`).
//!
//! The pool's contract is that worker count is *unobservable* in every
//! domain result: chunk boundaries depend only on input sizes, partial
//! reductions happen in chunk order on the caller, and each task writes
//! a fixed output slot. These tests pin that contract at every layer the
//! pool is wired through:
//!
//! * `cluster`: k-means fits are bit-identical across pool sizes,
//! * `selection`: query-driven selections are identical across pool sizes,
//! * `fedlearn`: full federation rounds (models, losses, ledgers) are
//!   bit-identical across pinned thread counts and the serial path,
//! * `telemetry`: domain counter totals agree across pool sizes (the
//!   pool's own scheduling metrics are explicitly *not* part of the
//!   contract — inline vs pooled task counts legitimately differ).
//!
//! The global pool reads `QENS_THREADS` only for its size; here we
//! inject pools of explicit sizes so the tests neither depend on the
//! caller's shell nor race under the parallel test harness.

use qens::cluster::{KMeans, KMeansConfig};
use qens::fedlearn::{run_query, FederationConfig, GlobalModel};
use qens::linalg::rng::{self, Rng};
use qens::linalg::Matrix;
use qens::par::{self, ThreadPool};
use qens::prelude::*;
use qens::selection::{QueryDriven, SelectionContext};
use qens::telemetry::Telemetry;

fn blob_matrix(rows: usize, seed: u64) -> Matrix {
    let mut r = rng::rng_for(seed, 0xDE7);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|i| {
            let cx = ((i % 4) as f64) * 10.0;
            vec![
                cx + r.gen_range(-1.5..1.5),
                -cx + r.gen_range(-1.5..1.5),
                r.gen_range(0.0..3.0),
            ]
        })
        .collect();
    Matrix::from_rows(&data)
}

fn fed(seed: u64) -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(5, 80)
        .clusters_per_node(3)
        .seed(seed)
        .epochs(4)
        .build()
}

/// Every pool size the suite sweeps, including the inline serial pool.
fn pools() -> Vec<ThreadPool> {
    vec![ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(4)]
}

/// Layer 1: k-means fits are bit-identical for any worker count.
#[test]
fn kmeans_fits_are_bit_identical_across_pool_sizes() {
    let data = blob_matrix(900, 5);
    let cfg = KMeansConfig::with_k(4, 17);
    let reference = KMeans::fit_with_pool(&data, &cfg, &ThreadPool::new(1));
    for pool in pools() {
        let got = KMeans::fit_with_pool(&data, &cfg, &pool);
        assert_eq!(got.assignments(), reference.assignments());
        assert_eq!(got.iterations(), reference.iterations());
        assert_eq!(
            got.inertia().to_bits(),
            reference.inertia().to_bits(),
            "inertia diverged on pool of {}",
            pool.threads()
        );
        for (a, b) in got
            .centroids()
            .as_slice()
            .iter()
            .zip(reference.centroids().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Layer 2: node selection (scores, rankings, supporting clusters, cap
/// and sort order) is identical for any worker count.
#[test]
fn selections_are_identical_across_pool_sizes() {
    let f = fed(9);
    let bounds = f.network().global_space().to_boundary_vec();
    let q = Query::from_boundary_vec(3, &bounds);
    let ctx = SelectionContext::new(f.network(), &q);
    let policy = QueryDriven::top_l(3);
    let reference = policy.select_with_pool(&ctx, &ThreadPool::new(1));
    assert!(!reference.is_empty());
    for pool in pools() {
        let got = policy.select_with_pool(&ctx, &pool);
        assert_eq!(
            got.participants.len(),
            reference.participants.len(),
            "participant count diverged on pool of {}",
            pool.threads()
        );
        for (a, b) in got.participants.iter().zip(&reference.participants) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.ranking.to_bits(), b.ranking.to_bits());
            assert_eq!(a.supporting_clusters.len(), b.supporting_clusters.len());
            for (ca, cb) in a.supporting_clusters.iter().zip(&b.supporting_clusters) {
                assert_eq!(ca.cluster_id, cb.cluster_id);
                assert_eq!(ca.overlap.to_bits(), cb.overlap.to_bits());
            }
        }
    }
}

/// Layer 3: the full federation round — global model, query loss and the
/// deterministic ledger columns — is bit-identical whether participants
/// train inline on a 1-thread pool or on 2 or 4 workers.
#[test]
fn full_rounds_are_bit_identical_across_thread_counts() {
    let f = fed(27);
    let bounds = f.network().global_space().to_boundary_vec();
    let q = Query::from_boundary_vec(1, &bounds);
    let policy = QueryDriven::top_l(3);

    let configs: Vec<FederationConfig> = [1, 2, 4]
        .map(|threads| FederationConfig {
            threads: Some(threads),
            ..f.config().clone()
        })
        .into();
    let outcomes: Vec<_> = configs
        .iter()
        .map(|cfg| run_query(f.network(), &q, &policy, cfg).expect("full-space query completes"))
        .collect();

    let reference = &outcomes[0];
    let ref_loss = reference.query_loss(f.network(), &q).unwrap();
    for (i, out) in outcomes.iter().enumerate().skip(1) {
        match (&out.global, &reference.global) {
            (
                GlobalModel::Ensemble {
                    members: a,
                    lambdas: la,
                },
                GlobalModel::Ensemble {
                    members: b,
                    lambdas: lb,
                },
            ) => {
                assert_eq!(a, b, "models diverged in config {i}");
                assert_eq!(la, lb, "lambdas diverged in config {i}");
            }
            (GlobalModel::Single(a), GlobalModel::Single(b)) => {
                assert_eq!(a, b, "models diverged in config {i}")
            }
            other => panic!("mismatched global model shapes: {other:?}"),
        }
        let loss = out.query_loss(f.network(), &q).unwrap();
        assert_eq!(
            loss.to_bits(),
            ref_loss.to_bits(),
            "loss diverged in config {i}"
        );
        // Deterministic ledger columns (wall_seconds is real time and
        // legitimately differs; sum-vs-max semantics are pinned in
        // fedlearn's unit tests).
        assert_eq!(
            out.accounting.nodes_selected,
            reference.accounting.nodes_selected
        );
        assert_eq!(
            out.accounting.samples_used,
            reference.accounting.samples_used
        );
        assert_eq!(
            out.accounting.sample_visits,
            reference.accounting.sample_visits
        );
        assert_eq!(
            out.accounting.bytes_transferred,
            reference.accounting.bytes_transferred
        );
        assert_eq!(
            out.accounting.sim_seconds.to_bits(),
            reference.accounting.sim_seconds.to_bits()
        );
    }
}

/// Layer 4: domain telemetry counters total identically for every pool
/// size. Pool scheduling metrics (`qens_par_*`) are excluded — inline vs
/// queued task counts are scheduling detail, not domain state.
#[test]
fn domain_counter_totals_agree_across_pool_sizes() {
    let f = fed(33);
    let bounds = f.network().global_space().to_boundary_vec();
    let q = Query::from_boundary_vec(6, &bounds);
    let policy = QueryDriven::top_l(3);

    let mut totals: Vec<Vec<(String, u64)>> = Vec::new();
    for threads in [1usize, 4] {
        let tele = Telemetry::new();
        tele.set_enabled(true);
        let cfg = FederationConfig {
            threads: Some(threads),
            ..f.config().clone()
        };
        tele.enter(|| run_query(f.network(), &q, &policy, &cfg))
            .expect("query completes");
        let snap = tele.snapshot();
        let mut domain: Vec<(String, u64)> = snap
            .counters
            .iter()
            .filter(|(name, _)| !name.starts_with("qens_par_"))
            .cloned()
            .collect();
        domain.sort();
        assert!(!domain.is_empty(), "telemetry recorded nothing");
        totals.push(domain);
    }

    assert_eq!(
        totals[0], totals[1],
        "domain counter totals diverged between 1 and 4 workers"
    );
}

/// The process-wide sized-pool cache hands back the same pool for the
/// same size — a pinned `threads` count never spawns per-query threads.
#[test]
fn sized_pools_are_cached_per_size() {
    let a = par::sized(3);
    let b = par::sized(3);
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    assert_eq!(a.threads(), 3);
    let one = par::sized(1);
    assert_eq!(one.threads(), 1);
    assert!(!std::sync::Arc::ptr_eq(&a, &one));
}

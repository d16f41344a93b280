//! Bounded, deterministic thread pool for the workspace's hot kernels.
//!
//! The leader-side hot loops — k-means Lloyd assignment, per-node
//! overlap scoring (the paper's `O(N·K·d)` Eq. 2–4 kernel) and
//! per-participant local training — previously either ran fully serial
//! or spawned one OS thread per participant *per round*. That
//! oversubscribes exactly when the node count grows toward the
//! distributed-KNN-scale workloads the roadmap targets. This crate
//! replaces both extremes with one process-wide, bounded pool:
//!
//! * **Bounded**: a fixed worker count — the `QENS_THREADS` environment
//!   variable, or [`std::thread::available_parallelism`] when unset —
//!   created once per process ([`global`]), never once per round.
//! * **Deterministic**: every parallel API uses *fixed chunking* (chunk
//!   boundaries depend only on the input length, never on the worker
//!   count) and *ordered per-chunk partial reductions* (partials are
//!   combined in chunk order on the calling thread). Results are
//!   therefore bit-identical across `QENS_THREADS=1`, `=4`, and the
//!   inline serial path — `tests/par_determinism.rs` proves it across
//!   the whole pipeline.
//! * **Work-stealing-lite**: the submitting thread does not idle behind
//!   its scope — it drains the shared injector queue alongside the
//!   workers until its own tasks finish. This also makes nested scopes
//!   (a pooled kernel calling another pooled kernel) deadlock-free.
//! * **std-only**: the workspace's default build path must work with the
//!   crates-io registry unreachable; no external dependencies.
//!
//! # Handles
//!
//! Kernels take an explicit [`ThreadPool`] handle (injectable for tests
//! and benches) and default to [`global`]. [`sized`] returns a cached,
//! process-wide pool of an exact worker count — used by
//! `FederationBuilder::threads(n)` so repeated queries never re-spawn
//! threads.
//!
//! # Telemetry
//!
//! Following the workspace's `qens_<crate>_<name>` convention:
//! `qens_par_scopes_total`, `qens_par_tasks_total`,
//! `qens_par_inline_tasks_total` (counters), `qens_par_queue_depth`
//! (histogram, sampled at enqueue) and `qens_par_workers` (gauge).
//! Scheduling metrics are intentionally *not* part of the determinism
//! contract — only the domain counters are.
//!
//! # Example
//!
//! ```
//! let pool = par::ThreadPool::new(4);
//! // Ordered per-chunk partials: bit-identical for any worker count.
//! let partials = pool.map_chunks(10_000, 1024, |r| r.map(|i| i as f64).sum::<f64>());
//! let total: f64 = partials.iter().sum();
//! let serial = par::ThreadPool::new(1).map_chunks(10_000, 1024, |r| {
//!     r.map(|i| i as f64).sum::<f64>()
//! });
//! assert_eq!(total, serial.iter().sum::<f64>());
//! ```

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, OnceLock};

mod pool;

pub use pool::ThreadPool;

/// Default chunk size (rows / items per task) used by the pooled kernels.
///
/// Fixed — never derived from the worker count — so chunk boundaries,
/// and with them every ordered partial reduction, are identical no
/// matter how many threads execute them.
pub const DEFAULT_CHUNK: usize = 1024;

/// Upper bound on configurable worker counts (a typo in `QENS_THREADS`
/// must not try to spawn a million OS threads).
pub const MAX_THREADS: usize = 512;

/// The one environment variable the workspace reads: the global pool's
/// worker count.
pub const THREADS_ENV: &str = "QENS_THREADS";

/// Parses a worker count: a positive integer, clamped to
/// [`MAX_THREADS`]. Surrounding whitespace is ignored.
pub fn parse_threads(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n.min(MAX_THREADS)),
        _ => Err(format!("expected a positive integer, got {v:?}")),
    }
}

/// The worker count the global pool uses: `QENS_THREADS` when it
/// passes [`parse_threads`], otherwise
/// [`std::thread::available_parallelism`], otherwise 1.
pub fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| parse_threads(&v).ok())
        .unwrap_or_else(hardware_threads)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The lazily initialised process-wide pool ([`default_threads`] workers,
/// spawned once on first use).
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

/// A cached pool with exactly `threads` workers.
///
/// Pools are created once per distinct size and kept alive for the
/// process lifetime, so callers that pin a worker count (e.g.
/// `FederationBuilder::threads(n)`) still create threads O(pool size)
/// per *process*, not per query or per round.
pub fn sized(threads: usize) -> Arc<ThreadPool> {
    static SIZED: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
    let threads = threads.clamp(1, MAX_THREADS);
    let cache = SIZED.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap_or_else(|p| p.into_inner());
    Arc::clone(
        cache
            .entry(threads)
            .or_insert_with(|| Arc::new(ThreadPool::new(threads))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(default_threads() <= MAX_THREADS);
    }

    #[test]
    fn parse_threads_accepts_clamps_and_rejects() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2));
        assert_eq!(parse_threads("600"), Ok(MAX_THREADS));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("x").is_err());
        assert!(parse_threads("").is_err());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn sized_pools_are_cached_per_count() {
        let a = sized(3);
        let b = sized(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 3);
        let c = sized(2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.threads(), 2);
        // Degenerate requests clamp instead of panicking.
        assert_eq!(sized(0).threads(), 1);
        assert_eq!(sized(usize::MAX).threads(), MAX_THREADS);
    }
}

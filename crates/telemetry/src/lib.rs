//! Zero-dependency observability for the qens workspace.
//!
//! The paper's entire argument is quantitative (per-query time, data
//! fraction, loss), so the reproduction needs to see *where* a query's
//! time goes: k-means vs. overlap scoring vs. per-stage training vs.
//! aggregation. This crate is the profiling substrate every perf PR
//! reports against. It is `std`-only by design — the workspace's default
//! build path must work with the crates-io registry unreachable.
//!
//! # Model
//!
//! * [`Counter`] — monotonically increasing, saturating `u64`.
//! * [`Gauge`] — last-write-wins `f64`.
//! * [`Histogram`] — power-of-two log-scale buckets over `u64` samples
//!   with p50/p90/p99 queries (durations are recorded in nanoseconds).
//! * [`SpanGuard`] — RAII timer; records elapsed nanos into a histogram
//!   on drop.
//! * [`Registry`] — the thread-safe global name → metric table. It
//!   keeps process totals only: a query's cost is its `QueryAccounting`
//!   ledger and its time is its [`trace`] tree.
//! * [`Event`] — one fleet or fault occurrence, emitted once through
//!   [`emit`]; the trace instants, the [`fleet`] scorecards and the
//!   [`journal`] are folds of that stream.
//!
//! Metric names follow `qens_<crate>_<name>` with a unit suffix
//! (`_total` for counters, `_nanos`/`_micros`/`_bytes` for histograms).
//!
//! # Enablement
//!
//! Telemetry is **disabled by default** and the disabled path is a
//! single relaxed atomic load per recording call. Only code turns it on:
//! [`set_enabled`], e.g. through the `FederationBuilder::telemetry(true)`
//! flag. No environment variable is read.
//!
//! # Example
//!
//! ```
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span!("qens_doc_example_nanos");
//!     telemetry::counter!("qens_doc_items_total").add(3);
//! }
//! let snap = telemetry::global().snapshot();
//! assert_eq!(snap.counter("qens_doc_items_total"), Some(3));
//! let json = telemetry::export::to_json(&snap);
//! assert!(json.contains("qens_doc_example_nanos"));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

pub mod event;
pub mod export;
pub mod fleet;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod span;
pub mod trace;

pub use event::{emit, Event};
pub use histogram::{BucketCount, Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{global, Registry, Snapshot};
pub use span::SpanGuard;

/// Whether recording is live; off until [`set_enabled`] turns it on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is live. The disabled fast path is one relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Looks up (once per call site) the named [`Counter`] in the global
/// registry. Usage: `telemetry::counter!("qens_cluster_repairs_total").incr()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __COUNTER: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**__COUNTER.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Looks up (once per call site) the named [`Gauge`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __GAUGE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__GAUGE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Looks up (once per call site) the named [`Histogram`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__HIST.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// An RAII span timer recording elapsed nanoseconds into the named
/// histogram when dropped. Inert (no clock read) while disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __SPAN_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter(&__SPAN_HIST, $name)
    }};
}

/// Serialises unit tests that toggle the global enablement flag (cargo
/// runs tests on parallel threads; the flag is process-wide).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_disable_round_trip() {
        let _g = super::test_lock();
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
    }
}

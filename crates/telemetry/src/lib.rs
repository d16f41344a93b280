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
//! * [`Span`] — the one RAII timing guard, opened by [`span`] at
//!   leader-serial sites and [`wall_span`] at scheduling-dependent
//!   ones. It records a [`trace`] begin/end pair while tracing is on and
//!   the elapsed nanos into its name's `_nanos` histogram while
//!   telemetry is on.
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
//!     let _span = telemetry::span("fedlearn.aggregate", &[("round", 0)]);
//!     telemetry::counter!("qens_doc_items_total").add(3);
//! }
//! let snap = telemetry::global().snapshot();
//! assert_eq!(snap.counter("qens_doc_items_total"), Some(3));
//! let json = telemetry::export::to_json(&snap);
//! assert!(json.contains("qens_fedlearn_aggregate_nanos"));
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
pub mod trace;

pub use event::{emit, Event};
pub use histogram::{BucketCount, Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{global, Registry, Snapshot};
pub use trace::{span, wall_span, Span};

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

/// The [`Span`] guard's histogram sink, one switch at a time; the full
/// telemetry × tracing × constructor table is in `trace::tests`.
#[cfg(test)]
mod span {
    mod tests {
        use crate::trace;

        fn count(series: &str) -> Option<u64> {
            crate::global()
                .snapshot()
                .histogram(series)
                .map(|h| h.count)
        }

        #[test]
        fn span_records_into_named_histogram() {
            let _g = crate::test_lock();
            trace::set_mode(None);
            crate::set_enabled(true);
            let before = count("qens_mlkit_stage_nanos").unwrap_or(0);
            {
                let s = crate::span("mlkit.stage", &[]);
                assert!(s.is_recording());
                std::hint::black_box(1 + 1);
            }
            assert_eq!(count("qens_mlkit_stage_nanos"), Some(before + 1));
            crate::set_enabled(false);
        }

        #[test]
        fn disabled_span_is_inert() {
            let _g = crate::test_lock();
            trace::set_mode(None);
            trace::clear();
            crate::set_enabled(false);
            let before = count("qens_mlkit_train_nanos");
            let s = crate::wall_span("mlkit.train", &[]);
            assert!(!s.is_recording());
            drop(s);
            assert_eq!(count("qens_mlkit_train_nanos"), before);
            assert_eq!(trace::events_len(), 0);
            crate::set_enabled(true);
            assert_eq!(
                count("qens_mlkit_train_nanos").unwrap_or(0),
                before.unwrap_or(0)
            );
            crate::set_enabled(false);
        }
    }
}

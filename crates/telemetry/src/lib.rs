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
//! * [`Telemetry`] — one federation's recorded state: three switches
//!   (telemetry, fleet, trace clock) and six stores (the metric
//!   [`Registry`], the [`trace`] store, the flight recorder and SLO
//!   tracker of [`profile`], the [`fleet`] scorecards and the
//!   [`journal`]). A cheap clone of an `Arc`; `FederationBuilder`
//!   creates one per federation.
//! * [`Counter`] — monotonically increasing, saturating `u64`.
//! * [`Gauge`] — last-write-wins `f64`.
//! * [`Histogram`] — power-of-two log-scale buckets over `u64` samples
//!   with p50/p90/p99 queries (durations are recorded in nanoseconds).
//! * [`Span`] — the one RAII timing guard, opened by [`span`] at
//!   leader-serial sites and [`wall_span`] at scheduling-dependent
//!   ones. It records a [`trace`] begin/end pair while tracing is on and
//!   the elapsed nanos into its name's `_nanos` histogram while
//!   telemetry is on.
//! * [`Event`] — one fleet or fault occurrence, emitted once through
//!   [`emit`]; the trace instants, the [`fleet`] scorecards and the
//!   [`journal`] are folds of that stream.
//!
//! Metric names follow `qens_<crate>_<name>` with a unit suffix
//! (`_total` for counters, `_nanos`/`_micros`/`_bytes` for histograms).
//!
//! # The current handle
//!
//! A recording site (`counter!`, `gauge!`, `histogram!`, [`span`],
//! [`wall_span`], [`trace::instant`], [`emit`]) records into the
//! thread's *current* handle: the one whose [`Telemetry::enter`] call
//! is innermost on the thread. With no handle entered a site is inert,
//! and with one entered it checks that handle's switch — every switch
//! is off in a fresh handle. No environment variable is read, and two
//! handles never see each other's records.
//!
//! What belongs to no handle stays process-wide: the interned series
//! names (each call site caches its slot id), trace thread ids, and the
//! process start behind `qens_uptime_seconds`.
//!
//! # Example
//!
//! ```
//! let tele = telemetry::Telemetry::new();
//! tele.set_enabled(true);
//! tele.enter(|| {
//!     let _span = telemetry::span("fedlearn.aggregate", &[("round", 0)]);
//!     telemetry::counter!("qens_doc_items_total").add(3);
//! });
//! let snap = tele.snapshot();
//! assert_eq!(snap.counter("qens_doc_items_total"), Some(3));
//! let json = telemetry::export::to_json(&snap);
//! assert!(json.contains("qens_fedlearn_aggregate_nanos"));
//! // Nothing is entered here, so this records nowhere.
//! telemetry::counter!("qens_doc_items_total").add(1);
//! assert_eq!(tele.snapshot().counter("qens_doc_items_total"), Some(3));
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
pub use registry::{Registry, Snapshot};
pub use trace::{span, wall_span, Span};

/// Everything one handle records.
#[derive(Debug, Default)]
pub(crate) struct Stores {
    enabled: AtomicBool,
    pub(crate) registry: Registry,
    pub(crate) trace: trace::Store,
    pub(crate) profile: profile::Profiler,
    pub(crate) fleet: fleet::Fleet,
}

impl Stores {
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// One federation's telemetry: its switches and stores behind an `Arc`,
/// so clones share them. See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Arc<Stores>);

thread_local! {
    /// The thread's current handle (null = none). Only
    /// [`Telemetry::enter`] writes it, restoring the previous value when
    /// its call returns or unwinds, so it is always null or the stores
    /// of a handle borrowed by an `enter` call still on this thread's
    /// stack.
    static CURRENT: Cell<*const Stores> = const { Cell::new(std::ptr::null()) };
}

/// Runs `f` on the current handle's stores; `None` with none entered.
#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&Stores) -> R) -> Option<R> {
    let stores = CURRENT.with(Cell::get);
    // SAFETY: `CURRENT` is null or points at the stores of a handle
    // borrowed by an `enter` call that is still running on this thread
    // (see `CURRENT`), so they outlive this call.
    (!stores.is_null()).then(|| f(unsafe { &*stores }))
}

impl Telemetry {
    /// A fresh handle: empty stores, every switch off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether metrics (counters, gauges, histograms, span timers) and
    /// the SLO tracker's series record.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Turns metric recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// A point-in-time view of every series this handle registered.
    pub fn snapshot(&self) -> Snapshot {
        self.0.registry.snapshot()
    }

    /// The trace store and its clock switch.
    pub fn trace(&self) -> &trace::Store {
        &self.0.trace
    }

    /// The flight recorder and the SLO tracker.
    pub fn profile(&self) -> &profile::Profiler {
        &self.0.profile
    }

    /// The per-node scorecards and the fleet switch.
    pub fn fleet(&self) -> &fleet::Fleet {
        &self.0.fleet
    }

    /// The event journal (recorded while the fleet switch is on).
    pub fn journal(&self) -> &journal::Journal {
        &self.0.fleet.journal
    }

    /// Runs `f` with this handle current on the calling thread, then
    /// puts the previous one back (also when `f` unwinds).
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(*const Stores);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(Arc::as_ptr(&self.0))));
        f()
    }

    /// The calling thread's current handle, if one is entered — what a
    /// pool carries into the tasks it runs for this thread.
    pub fn current() -> Option<Telemetry> {
        let stores = CURRENT.with(Cell::get);
        if stores.is_null() {
            return None;
        }
        // SAFETY: a non-null `CURRENT` came from `Arc::as_ptr` of a
        // handle that is alive for this call (see `CURRENT`); taking a
        // new strong count makes the returned handle own one.
        unsafe {
            Arc::increment_strong_count(stores);
            Some(Telemetry(Arc::from_raw(stores)))
        }
    }
}

/// Records into the current handle's registry (once per call site the
/// name is interned to a slot id). Usage:
/// `telemetry::counter!("qens_cluster_repairs_total").incr()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SITE: $crate::registry::Site<$crate::Counter> = $crate::registry::Site::new($name);
        &__SITE
    }};
}

/// The current handle's named [`Gauge`]; see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __SITE: $crate::registry::Site<$crate::Gauge> = $crate::registry::Site::new($name);
        &__SITE
    }};
}

/// The current handle's named [`Histogram`]; see [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SITE: $crate::registry::Site<$crate::Histogram> =
            $crate::registry::Site::new($name);
        &__SITE
    }};
}

#[cfg(test)]
mod tests {
    use super::Telemetry;

    #[test]
    fn enable_disable_round_trip() {
        let tele = Telemetry::new();
        assert!(!tele.enabled());
        tele.set_enabled(true);
        assert!(tele.enabled());
        tele.set_enabled(false);
        assert!(!tele.enabled());
        // Clones share the switch.
        tele.clone().set_enabled(true);
        assert!(tele.enabled());
    }

    #[test]
    fn enter_nests_and_restores() {
        let (a, b) = (Telemetry::new(), Telemetry::new());
        for t in [&a, &b] {
            t.set_enabled(true);
        }
        assert!(Telemetry::current().is_none());
        a.enter(|| {
            crate::counter!("qens_test_enter_total").incr();
            b.enter(|| crate::counter!("qens_test_enter_total").add(10));
            crate::counter!("qens_test_enter_total").incr();
            let unwound = std::panic::catch_unwind(|| b.enter(|| panic!("unwinds")));
            assert!(unwound.is_err());
            crate::counter!("qens_test_enter_total").incr();
            assert!(Telemetry::current().is_some());
        });
        assert!(Telemetry::current().is_none());
        let count = |t: &Telemetry| t.snapshot().counter("qens_test_enter_total");
        assert_eq!((count(&a), count(&b)), (Some(3), Some(10)));
    }
}

/// The [`Span`] guard's histogram sink, one switch at a time; the full
/// telemetry × tracing × constructor table is in `trace::tests`.
#[cfg(test)]
mod span {
    mod tests {
        use crate::Telemetry;

        fn count(tele: &Telemetry, series: &str) -> Option<u64> {
            tele.snapshot().histogram(series).map(|h| h.count)
        }

        #[test]
        fn span_records_into_named_histogram() {
            let tele = Telemetry::new();
            tele.set_enabled(true);
            tele.enter(|| {
                let s = crate::span("mlkit.stage", &[]);
                assert!(s.is_recording());
                std::hint::black_box(1 + 1);
            });
            assert_eq!(count(&tele, "qens_mlkit_stage_nanos"), Some(1));
        }

        #[test]
        fn disabled_span_is_inert() {
            let tele = Telemetry::new();
            tele.enter(|| {
                let s = crate::wall_span("mlkit.train", &[]);
                assert!(!s.is_recording());
            });
            assert_eq!(count(&tele, "qens_mlkit_train_nanos"), None);
            assert_eq!(tele.trace().events_len(), 0);
            // A span opened with no handle entered records nowhere, even
            // if it ends inside an enabled one.
            tele.set_enabled(true);
            let s = crate::wall_span("mlkit.train", &[]);
            assert!(!s.is_recording());
            tele.enter(|| drop(s));
            assert_eq!(count(&tele, "qens_mlkit_train_nanos"), None);
        }
    }
}

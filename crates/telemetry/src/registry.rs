//! The metric registry: one per [`crate::Telemetry`] handle, with slots
//! indexed by the process-wide interned series names.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, OnceLock};

use crate::histogram::HistogramSnapshot;
use crate::{Counter, Gauge, Histogram};

/// Distinct series names one process may intern, per kind.
pub const MAX_SERIES: usize = 128;

/// The interned series names, one list per metric kind (counters,
/// gauges, histograms): a name's index is the slot every registry keeps
/// that series in. The span histograms take the first histogram slots,
/// in [`crate::trace::SERIES`] order, so a span finds its slot by name.
static NAMES: LazyLock<Mutex<[Vec<String>; 3]>> = LazyLock::new(|| {
    let spans = crate::trace::SERIES
        .iter()
        .map(|&(_, series)| series.into());
    Mutex::new([Vec::new(), Vec::new(), spans.collect()])
});

fn names() -> MutexGuard<'static, [Vec<String>; 3]> {
    NAMES.lock().unwrap_or_else(|p| p.into_inner())
}

/// The slot id of `name` among the `kind`'s series, interned on first
/// use.
///
/// # Panics
/// Past [`MAX_SERIES`] names of one kind.
fn intern(kind: usize, name: &str) -> usize {
    let mut names = names();
    let table = &mut names[kind];
    if let Some(id) = table.iter().position(|n| n == name) {
        return id;
    }
    assert!(
        table.len() < MAX_SERIES,
        "more than {MAX_SERIES} series like {name}"
    );
    table.push(name.into());
    table.len() - 1
}

/// A metric kind a registry keeps slots of.
#[doc(hidden)]
pub trait Metric: Sized {
    /// The kind's index in the name table.
    const KIND: usize;
    /// `registry`'s metric at slot `id`, created on first use.
    fn slot(registry: &Registry, id: usize) -> &Self;
}

impl Metric for Counter {
    const KIND: usize = 0;
    fn slot(registry: &Registry, id: usize) -> &Self {
        registry.counters[id].get_or_init(Counter::new)
    }
}

impl Metric for Gauge {
    const KIND: usize = 1;
    fn slot(registry: &Registry, id: usize) -> &Self {
        registry.gauges[id].get_or_init(Gauge::new)
    }
}

impl Metric for Histogram {
    const KIND: usize = 2;
    fn slot(registry: &Registry, id: usize) -> &Self {
        registry.histograms[id].get_or_init(|| Box::new(Histogram::new()))
    }
}

/// A `counter!`, `gauge!` or `histogram!` call site: its series name and,
/// once interned, its slot id (`u32::MAX` until first use). It records
/// into the current handle's registry while that handle's telemetry
/// switch is on.
#[derive(Debug)]
pub struct Site<M> {
    name: &'static str,
    id: AtomicU32,
    metric: PhantomData<fn() -> M>,
}

impl<M: Metric> Site<M> {
    #[doc(hidden)]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            id: AtomicU32::new(u32::MAX),
            metric: PhantomData,
        }
    }

    #[inline]
    fn with(&self, record: impl FnOnce(&M)) {
        crate::with_current(|t| {
            if t.enabled() {
                let id = match self.id.load(Ordering::Relaxed) {
                    u32::MAX => self.intern(),
                    id => id as usize,
                };
                record(M::slot(&t.registry, id));
            }
        });
    }

    #[cold]
    fn intern(&self) -> usize {
        let id = intern(M::KIND, self.name);
        self.id.store(id as u32, Ordering::Relaxed);
        id
    }
}

impl Site<Counter> {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.with(|c| c.add(n));
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

impl Site<Gauge> {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.with(|g| g.set(v));
    }

    /// Adds `d`.
    #[inline]
    pub fn add(&self, d: f64) {
        self.with(|g| g.add(d));
    }
}

impl Site<Histogram> {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.with(|h| h.record(v));
    }
}

/// One handle's name → metric table: a slot per interned series name,
/// filled the first time the series records.
///
/// Metric names should follow the `qens_<crate>_<name>` convention with
/// a unit suffix; registration is idempotent (the same name always
/// returns the same metric).
#[derive(Debug)]
pub struct Registry {
    counters: Box<[OnceLock<Counter>]>,
    gauges: Box<[OnceLock<Gauge>]>,
    histograms: Box<[OnceLock<Box<Histogram>>]>,
}

fn slots<T>() -> Box<[OnceLock<T>]> {
    (0..MAX_SERIES).map(|_| OnceLock::new()).collect()
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            counters: slots(),
            gauges: slots(),
            histograms: slots(),
        }
    }
}

impl Registry {
    /// A fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &str) -> &Counter {
        Counter::slot(self, intern(Counter::KIND, name))
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> &Gauge {
        Gauge::slot(self, intern(Gauge::KIND, name))
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> &Histogram {
        Histogram::slot(self, intern(Histogram::KIND, name))
    }

    /// A point-in-time view of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        fn filled<'a, T>(
            names: &'a [String],
            slots: &'a [OnceLock<T>],
        ) -> impl Iterator<Item = (&'a String, &'a T)> {
            names
                .iter()
                .zip(slots)
                .filter_map(|(n, s)| Some((n, s.get()?)))
        }
        let names = names();
        let [counter_names, gauge_names, histogram_names] = &*names;
        let mut snap = Snapshot {
            counters: filled(counter_names, &self.counters)
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: filled(gauge_names, &self.gauges)
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: filled(histogram_names, &self.histograms)
                .map(|(n, h)| h.snapshot(n))
                .collect(),
        };
        drop(names);
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

/// A point-in-time view of the registry (names sorted ascending, so
/// exports are deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram views by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The named counter's value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The named gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The named histogram's view, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when nothing has been recorded (all counters zero, all
    /// histograms empty).
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&(_, v)| v == 0) && self.histograms.iter().all(|h| h.count == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a: *const Counter = r.counter("qens_test_x_total");
        let b: *const Counter = r.counter("qens_test_x_total");
        assert_eq!(a, b);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("qens_test_b_total").add(2);
        r.counter("qens_test_a_total").add(1);
        r.gauge("qens_test_g").set(1.5);
        r.histogram("qens_test_h_nanos").record(7);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["qens_test_a_total", "qens_test_b_total"]);
        assert_eq!(s.counter("qens_test_b_total"), Some(2));
        assert_eq!(s.gauge("qens_test_g"), Some(1.5));
        assert_eq!(s.histogram("qens_test_h_nanos").unwrap().count, 1);
        assert!(!s.is_empty());
    }
}

//! The global metric registry.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::histogram::HistogramSnapshot;
use crate::{Counter, Gauge, Histogram};

/// One kind's name → metric table.
type Table<T> = BTreeMap<String, Arc<T>>;

fn get_or_register<T: Default>(table: &Mutex<Table<T>>, name: &str) -> Arc<T> {
    let mut table = locked(table);
    if let Some(metric) = table.get(name) {
        return Arc::clone(metric);
    }
    let metric = Arc::new(T::default());
    table.insert(name.into(), Arc::clone(&metric));
    metric
}

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("a thread panicked while holding a registry lock")
}

/// Thread-safe name → metric table.
///
/// Metric names should follow the `qens_<crate>_<name>` convention with
/// a unit suffix; registration is idempotent (the same name always
/// returns the same metric).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Table<Counter>>,
    gauges: Mutex<Table<Gauge>>,
    histograms: Mutex<Table<Histogram>>,
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// A fresh registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_register(&self.counters, name)
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_register(&self.gauges, name)
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_register(&self.histograms, name)
    }

    /// A point-in-time view of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = locked(&self.counters)
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let gauges = locked(&self.gauges)
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let histograms = locked(&self.histograms)
            .iter()
            .map(|(n, h)| h.snapshot(n))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every metric. Metric handles stay valid (tests, repeated
    /// experiment arms).
    pub fn reset(&self) {
        for c in locked(&self.counters).values() {
            c.reset();
        }
        for g in locked(&self.gauges).values() {
            g.reset();
        }
        for h in locked(&self.histograms).values() {
            h.reset();
        }
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
        let _g = crate::test_lock();
        let r = Registry::new();
        let a = r.counter("qens_test_x_total");
        let b = r.counter("qens_test_x_total");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
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

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let r = Registry::new();
        let c = r.counter("qens_test_r_total");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(r.snapshot().counter("qens_test_r_total"), Some(2));
    }
}

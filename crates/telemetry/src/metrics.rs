//! Counters and gauges: the scalar metric primitives.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing, saturating `u64` counter.
///
/// Increments are relaxed atomics — order-independent and therefore
/// deterministic in total regardless of thread interleaving, which is
/// what lets a federation round on a pool of several workers aggregate
/// per-stage telemetry identically to one trained inline.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`, saturating at `u64::MAX` (never wraps).
    #[inline]
    pub fn add(&self, n: u64) {
        // Saturating add via CAS loop: overflow would otherwise wrap and
        // silently destroy a long-running deployment's totals.
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (CAS loop).
    #[inline]
    pub fn add(&self, d: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn counter_adds_and_saturates() {
        let c = Counter::new();
        c.add(10);
        c.incr();
        assert_eq!(c.get(), 11);
        // Saturation at the top of the range.
        let c = Counter::new();
        c.add(u64::MAX - 3);
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "counter must saturate, not wrap");
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    /// A `counter!` site records only into an entered handle whose
    /// switch is on.
    #[test]
    fn counter_ignores_when_disabled() {
        let tele = Telemetry::new();
        let site = || crate::counter!("qens_test_switch_total").add(5);
        site();
        tele.enter(site);
        assert_eq!(tele.snapshot().counter("qens_test_switch_total"), None);
        tele.set_enabled(true);
        tele.enter(site);
        site();
        assert_eq!(tele.snapshot().counter("qens_test_switch_total"), Some(5));
    }

    #[test]
    fn gauge_set_add_get() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(1.25);
        assert_eq!(g.get(), 3.75);
    }
}

//! Log-scale histograms with power-of-two buckets.
//!
//! Bucket 0 holds the value 0; bucket `i` (1..=63) holds values in
//! `[2^(i-1), 2^i - 1]` (bucket 63 additionally absorbs everything up to
//! `u64::MAX`). 64 atomic cells cover the full `u64` range with ≤ 2×
//! relative error, which is plenty for latency distributions spanning
//! nanoseconds to minutes — the same trade HdrHistogram-style recorders
//! make, but in ~60 lines of std-only code.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets (one per power of two, plus the zero bucket).
pub const NUM_BUCKETS: usize = 64;

/// Index of the bucket holding `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive `(lo, hi)` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == NUM_BUCKETS - 1 {
        (1u64 << (i - 1), u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A thread-safe log-scale histogram over `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Minimum observed value; `u64::MAX` sentinel when empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: a long-running histogram must never wrap.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Resets every cell to empty.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of the histogram (cells are read
    /// individually; concurrent recording can skew totals by the handful
    /// of in-flight samples, which is the standard trade for lock-free
    /// recording).
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (index, b) in self.buckets.iter().enumerate() {
            let count = b.load(Ordering::Relaxed);
            if count > 0 {
                let (lo, hi) = bucket_bounds(index);
                buckets.push(BucketCount {
                    index,
                    lo,
                    hi,
                    count,
                });
            }
        }
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count: buckets.iter().map(|b| b.count).sum(),
            sum: self.sum.load(Ordering::Relaxed),
            min: if min == u64::MAX { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One occupied bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketCount {
    /// Bucket index (see [`bucket_index`]).
    pub index: usize,
    /// Inclusive lower value bound.
    pub lo: u64,
    /// Inclusive upper value bound.
    pub hi: u64,
    /// Samples that fell in this bucket.
    pub count: u64,
}

/// An immutable point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Occupied buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// The `q`-th percentile (`q` in `[0, 100]`), linearly interpolated
    /// within the containing bucket. Returns 0 for an empty histogram.
    ///
    /// The rank is `ceil(q/100 · count)` clamped to `[1, count]`; inside
    /// a bucket spanning `[lo, hi]` holding `c` samples, rank `r` (1-based
    /// within the bucket) interpolates to `lo + (r / c) · (hi - lo)`.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 100.0);
        let target = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for b in &self.buckets {
            if cum + b.count >= target {
                let rank_in_bucket = (target - cum) as f64; // 1..=count
                let frac = rank_in_bucket / b.count as f64;
                return b.lo as f64 + frac * (b.hi - b.lo) as f64;
            }
            cum += b.count;
        }
        self.max as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every bucket's bounds are consistent with bucket_index.
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi bound of bucket {i}");
        }
        // Buckets tile the range with no gaps.
        for i in 1..NUM_BUCKETS {
            assert_eq!(
                bucket_bounds(i).0,
                bucket_bounds(i - 1).1 + 1,
                "gap before bucket {i}"
            );
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let h = Histogram::new();
        for v in [5u64, 0, 17, 9000] {
            h.record(v);
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 9022);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 9000);
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>(), 4);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 100 samples, all in bucket [64, 127].
        for _ in 0..100 {
            h.record(100);
        }
        let s = h.snapshot("t");
        // Rank r of 100 in the bucket [64,127] -> 64 + r/100 * 63.
        assert_eq!(s.percentile(1.0), 64.0 + (1.0 / 100.0) * 63.0);
        assert_eq!(s.p50(), 64.0 + 0.5 * 63.0);
        assert_eq!(s.percentile(100.0), 127.0);
        // Percentiles always land inside the recorded value range's bucket.
        for q in [0.0, 10.0, 25.0, 75.0, 99.0] {
            let p = s.percentile(q);
            assert!((64.0..=127.0).contains(&p), "q={q} p={p}");
        }
    }

    #[test]
    fn percentiles_across_buckets_are_monotone() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot("t");
        let mut last = -1.0;
        for q in 0..=100 {
            let p = s.percentile(q as f64);
            assert!(p >= last, "percentile not monotone at q={q}: {p} < {last}");
            last = p;
        }
        // p50 of 1..=1000 must land in the bucket containing 500
        // ([512,1023] or [256,511] depending on rounding — within 2x).
        assert!((250.0..=1023.0).contains(&s.p50()), "p50 {}", s.p50());
        assert_eq!(s.percentile(0.0), s.percentile(0.1));
        // The named quantile helpers sit in order: p50 <= p90 <= p95 <= p99.
        assert!(s.p50() <= s.p90());
        assert!(s.p90() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p95() <= s.max as f64);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        let s = h.snapshot("t");
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}

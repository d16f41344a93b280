//! The global metric registry and per-query scopes.
//!
//! A [`QueryScope`] costs two walks over the registered series and no
//! name clone: `begin` writes each series' raw value into a reused
//! buffer, `end` walks again, subtracts, and files what changed as one
//! LEB128 byte string (series are written by registration index, bucket
//! counts as `(index, count)` pairs). The public [`QuerySnapshot`]s are
//! built from those strings only when [`Registry::query_snapshots`] asks.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::histogram::{pair_sorted, BucketCount, HistogramSnapshot, NUM_BUCKETS};
use crate::{Counter, Gauge, Histogram};

/// How many completed per-query snapshots the registry retains (a ring:
/// the oldest are dropped first). Bounds memory on long query streams.
pub const MAX_QUERY_SNAPSHOTS: usize = 1024;

/// One kind's name → metric table. Series are never removed, so a
/// series' registration index (its place in `names`) identifies it for
/// the life of the registry; baselines and retained deltas store that
/// index in place of the name.
#[derive(Debug, Default)]
struct Table<T> {
    by_name: BTreeMap<Arc<str>, (u32, Arc<T>)>,
    names: Vec<Arc<str>>,
}

impl<T: Default> Table<T> {
    fn get_or_register(&mut self, name: &str) -> Arc<T> {
        if let Some((_, metric)) = self.by_name.get(name) {
            return Arc::clone(metric);
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 series");
        let name: Arc<str> = name.into();
        let metric = Arc::new(T::default());
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, (id, Arc::clone(&metric)));
        metric
    }
}

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("a thread panicked while holding a registry lock")
}

/// Refills `out` with each series' registration index and present
/// value, in name order.
fn capture<T, V>(table: &Mutex<Table<T>>, out: &mut Vec<(u32, V)>, read: impl Fn(&T) -> V) {
    out.clear();
    out.extend((locked(table).by_name.values()).map(|(id, metric)| (*id, read(metric))));
}

/// A histogram's raw cells: the bucket counts, then the sum.
type Cells = [u64; NUM_BUCKETS + 1];

/// The open scope's query id and every series' value when it began, in
/// name order. The buffers are reused from scope to scope.
#[derive(Debug, Default)]
struct OpenQuery {
    id: Option<u64>,
    counters: Vec<(u32, u64)>,
    gauges: Vec<(u32, f64)>,
    histograms: Vec<(u32, Cells)>,
}

/// Thread-safe name → metric table plus the per-query snapshot ring.
///
/// Metric names should follow the `qens_<crate>_<name>` convention with
/// a unit suffix; registration is idempotent (the same name always
/// returns the same metric).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Table<Counter>>,
    gauges: Mutex<Table<Gauge>>,
    histograms: Mutex<Table<Histogram>>,
    /// `(query id, encoded delta)`, oldest first; see [`Registry::encode_delta`].
    queries: Mutex<VecDeque<(u64, Box<[u8]>)>>,
    /// The paper's leader protocol processes queries one at a time, so a
    /// single slot suffices; a nested/concurrent scope is recorded as
    /// inert.
    open_query: Mutex<OpenQuery>,
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
        locked(&self.counters).get_or_register(name)
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        locked(&self.gauges).get_or_register(name)
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        locked(&self.histograms).get_or_register(name)
    }

    /// A point-in-time view of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = locked(&self.counters)
            .by_name
            .iter()
            .map(|(n, (_, c))| (n.to_string(), c.get()))
            .collect();
        let gauges = locked(&self.gauges)
            .by_name
            .iter()
            .map(|(n, (_, g))| (n.to_string(), g.get()))
            .collect();
        let histograms = locked(&self.histograms)
            .by_name
            .iter()
            .map(|(n, (_, h))| h.snapshot(n))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every metric and clears the per-query ring. Metric handles
    /// stay valid (tests, repeated experiment arms).
    pub fn reset(&self) {
        for (_, c) in locked(&self.counters).by_name.values() {
            c.reset();
        }
        for (_, g) in locked(&self.gauges).by_name.values() {
            g.reset();
        }
        for (_, h) in locked(&self.histograms).by_name.values() {
            h.reset();
        }
        locked(&self.queries).clear();
        locked(&self.open_query).id = None;
    }

    /// Completed per-query snapshots, oldest first.
    pub fn query_snapshots(&self) -> Vec<QuerySnapshot> {
        let queries = locked(&self.queries);
        let counters = locked(&self.counters).names.clone();
        let gauges = locked(&self.gauges).names.clone();
        let histograms = locked(&self.histograms).names.clone();
        queries
            .iter()
            .map(|(query_id, delta)| QuerySnapshot {
                query_id: *query_id,
                metrics: decode_delta(delta, &counters, &gauges, &histograms),
            })
            .collect()
    }

    fn begin_query(&self, id: u64) -> bool {
        let mut open = locked(&self.open_query);
        if open.id.is_some() {
            return false; // nested scope: inert
        }
        open.id = Some(id);
        capture(&self.counters, &mut open.counters, Counter::get);
        capture(&self.gauges, &mut open.gauges, Gauge::get);
        capture(&self.histograms, &mut open.histograms, Histogram::cells);
        true
    }

    fn end_query(&self, id: u64) {
        let mut open = locked(&self.open_query);
        if open.id != Some(id) {
            return;
        }
        open.id = None;
        let delta = self.encode_delta(&open);
        let mut queries = locked(&self.queries);
        if queries.len() >= MAX_QUERY_SNAPSHOTS {
            queries.pop_front();
        }
        queries.push_back((id, delta));
    }

    /// What every series gained since `base` was captured, as three
    /// sections of LEB128 numbers, each closed by a 0:
    ///
    /// ```text
    /// counters    (id + 1, gain)*                                  0
    /// gauges      (id + 1, change as 8 little-endian f64 bytes)*   0
    /// histograms  (id + 1, sum, (bucket + 1, gain)* 0, extrema)*   0
    /// ```
    ///
    /// `extrema` is `1, min, max` for a histogram registered inside the
    /// scope (its true extrema) and `0` otherwise: the extrema of a
    /// difference are the bounds of its first and last bucket. Series
    /// that did not change are left out, as [`Snapshot::delta_since`]
    /// leaves them out.
    ///
    /// This walk and the one `base` came from are both in name order and
    /// series are only ever added, so `base` is a subsequence of this
    /// walk: a series is new exactly when it is not the next one in
    /// `base`, and then its earlier value is zero.
    fn encode_delta(&self, base: &OpenQuery) -> Box<[u8]> {
        let mut out = Vec::with_capacity(256);
        let mut earlier = base.counters.iter().peekable();
        for (id, c) in locked(&self.counters).by_name.values() {
            let before = earlier.next_if(|e| e.0 == *id).map_or(0, |e| e.1);
            let gain = c.get().saturating_sub(before);
            if gain > 0 {
                put(&mut out, u64::from(*id) + 1);
                put(&mut out, gain);
            }
        }
        out.push(0);
        let mut earlier = base.gauges.iter().peekable();
        for (id, g) in locked(&self.gauges).by_name.values() {
            let before = earlier.next_if(|e| e.0 == *id).map_or(0.0, |e| e.1);
            let change = g.get() - before;
            if change != 0.0 {
                put(&mut out, u64::from(*id) + 1);
                out.extend_from_slice(&change.to_le_bytes());
            }
        }
        out.push(0);
        let mut earlier = base.histograms.iter().peekable();
        for (id, h) in locked(&self.histograms).by_name.values() {
            let before = earlier.next_if(|e| e.0 == *id).map(|e| &e.1);
            let now = h.cells();
            let gains: Cells =
                std::array::from_fn(|i| now[i].saturating_sub(before.map_or(0, |b| b[i])));
            let (buckets, sum) = gains.split_at(NUM_BUCKETS);
            if buckets.iter().all(|&gain| gain == 0) {
                continue;
            }
            put(&mut out, u64::from(*id) + 1);
            put(&mut out, sum[0]);
            for (i, &gain) in buckets.iter().enumerate().filter(|(_, &gain)| gain > 0) {
                put(&mut out, i as u64 + 1);
                put(&mut out, gain);
            }
            out.push(0);
            if before.is_none() {
                let (min, max) = h.extrema();
                out.push(1);
                put(&mut out, min);
                put(&mut out, max);
            } else {
                out.push(0);
            }
        }
        out.push(0);
        out.into_boxed_slice()
    }
}

/// Appends `v` as LEB128: seven bits a byte, low bits first, the top bit
/// set on every byte but the last. A query's gains are small numbers, so
/// most take one byte.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one [`put`] number off the front of `bytes`.
fn take(bytes: &mut &[u8]) -> u64 {
    let mut v = 0;
    for shift in (0..).step_by(7) {
        let byte = bytes[0];
        *bytes = &bytes[1..];
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    v
}

/// The next series of a section of [`Registry::encode_delta`]'s layout,
/// or `None` at the section's closing 0.
fn take_name(bytes: &mut &[u8], names: &[Arc<str>]) -> Option<String> {
    let id = take(bytes).checked_sub(1)?;
    Some(names[id as usize].to_string())
}

/// Rebuilds the public form of one [`Registry::encode_delta`] string;
/// each `names` slice maps that kind's registration index to its name.
fn decode_delta(
    mut bytes: &[u8],
    counters: &[Arc<str>],
    gauges: &[Arc<str>],
    histograms: &[Arc<str>],
) -> Snapshot {
    let bytes = &mut bytes;
    let mut delta = Snapshot {
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    while let Some(name) = take_name(bytes, counters) {
        delta.counters.push((name, take(bytes)));
    }
    while let Some(name) = take_name(bytes, gauges) {
        let (change, rest) = bytes.split_at(8);
        *bytes = rest;
        let change = f64::from_le_bytes(change.try_into().expect("split at 8"));
        delta.gauges.push((name, change));
    }
    while let Some(name) = take_name(bytes, histograms) {
        let sum = take(bytes);
        let mut buckets = Vec::new();
        while let Some(index) = take(bytes).checked_sub(1) {
            buckets.push(BucketCount::at(index as usize, take(bytes)));
        }
        let (min, max) = match take(bytes) {
            0 => (buckets[0].lo, buckets[buckets.len() - 1].hi),
            _ => (take(bytes), take(bytes)),
        };
        delta.histograms.push(HistogramSnapshot {
            name,
            count: buckets.iter().map(|b| b.count).sum(),
            sum,
            min,
            max,
            buckets,
        });
    }
    delta
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

    /// Per-metric difference `self - earlier` (metrics new in `self` are
    /// kept whole; zero-valued differences are dropped). One walk over
    /// both: each side must be in ascending name order, as
    /// [`Registry::snapshot`] builds it.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = pair_sorted(&self.counters, &earlier.counters, |c| c.0.as_str())
            .filter_map(|((n, v), before)| {
                let d = v.saturating_sub(before.map_or(0, |b| b.1));
                (d > 0).then(|| (n.clone(), d))
            })
            .collect();
        let gauges = pair_sorted(&self.gauges, &earlier.gauges, |g| g.0.as_str())
            .map(|((n, v), before)| (n.clone(), v - before.map_or(0.0, |b| b.1)))
            .filter(|&(_, d)| d != 0.0)
            .collect();
        let histograms = pair_sorted(&self.histograms, &earlier.histograms, |h| h.name.as_str())
            .map(|(h, before)| match before {
                Some(e) => h.delta_since(e),
                None => h.clone(),
            })
            .filter(|h| h.count > 0)
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The delta one query contributed to every metric.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySnapshot {
    /// The query's id.
    pub query_id: u64,
    /// Metric deltas attributable to this query.
    pub metrics: Snapshot,
}

/// RAII per-query scope: captures a baseline snapshot on entry and files
/// the delta into the registry's query ring on drop.
///
/// Scopes are designed for the leader's one-query-at-a-time protocol: a
/// scope opened while another is live is inert (global metrics still
/// record; only the per-query attribution is skipped).
#[derive(Debug)]
pub struct QueryScope {
    id: u64,
    active: bool,
}

impl QueryScope {
    /// Opens a scope for `query_id` against the global registry. Inert
    /// while telemetry is disabled or when a scope is already open.
    pub fn begin(query_id: u64) -> Self {
        let active = crate::enabled() && global().begin_query(query_id);
        Self {
            id: query_id,
            active,
        }
    }
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        if self.active {
            global().end_query(self.id);
        }
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
    fn delta_since_isolates_new_activity() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("qens_test_d_total").add(5);
        let before = r.snapshot();
        r.counter("qens_test_d_total").add(3);
        r.counter("qens_test_new_total").add(1);
        let d = r.snapshot().delta_since(&before);
        assert_eq!(d.counter("qens_test_d_total"), Some(3));
        assert_eq!(d.counter("qens_test_new_total"), Some(1));
    }

    fn hist(
        name: &str,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(usize, u64)],
    ) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            count: buckets.iter().map(|b| b.1).sum(),
            sum,
            min,
            max,
            buckets: (buckets.iter())
                .map(|&(i, c)| BucketCount::at(i, c))
                .collect(),
        }
    }

    #[test]
    fn delta_since_walks_inserted_series_and_vanished_buckets() {
        let earlier = Snapshot {
            counters: vec![("a".into(), 5), ("c".into(), 7), ("z".into(), 1)],
            gauges: vec![("g1".into(), 1.5), ("g3".into(), 2.0)],
            histograms: vec![
                hist("h1", 100, 3, 90, &[(2, 4), (5, 1), (7, 2)]),
                hist("h3", 10, 10, 10, &[(4, 1)]),
            ],
        };
        // `b`, `g2` and `h2` are new and sort into the middle; `z`
        // vanished; `c` went backwards (saturates to nothing); `h1` lost
        // bucket 5 (a reset in between) and gained bucket 9.
        let later = Snapshot {
            counters: vec![("a".into(), 8), ("b".into(), 2), ("c".into(), 6)],
            gauges: vec![("g1".into(), 1.5), ("g2".into(), -4.0), ("g3".into(), 2.5)],
            histograms: vec![
                hist("h1", 400, 3, 300, &[(2, 6), (7, 2), (9, 1)]),
                hist("h2", 9, 4, 5, &[(3, 2)]),
                hist("h3", 10, 10, 10, &[(4, 1)]),
            ],
        };
        let expected = Snapshot {
            counters: vec![("a".into(), 3), ("b".into(), 2)],
            gauges: vec![("g2".into(), -4.0), ("g3".into(), 0.5)],
            histograms: vec![
                // Extrema of a difference are the surviving buckets' bounds.
                hist("h1", 300, 2, 511, &[(2, 2), (9, 1)]),
                // A series new in `later` is kept whole, true extrema included.
                hist("h2", 9, 4, 5, &[(3, 2)]),
            ],
        };
        assert_eq!(later.delta_since(&earlier), expected);
    }

    /// splitmix64: the tests' own deterministic stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn two_thousand_scopes_keep_the_last_1024_deltas_exactly() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let r = Registry::new();
        // Half the series exist up front; the odd-numbered ones register
        // inside a scope the ring still holds at the end, and sort
        // between them.
        for i in (0..12).step_by(2) {
            r.counter(&format!("qens_t_c{i:02}_total"));
            r.gauge(&format!("qens_t_g{i:02}"));
            r.histogram(&format!("qens_t_h{i:02}_nanos"));
        }
        let mut rng = 7u64;
        let mut expected = Vec::new();
        for id in 0..2000u64 {
            let base = r.snapshot();
            assert!(r.begin_query(id));
            if id % 500 == 3 {
                assert!(!r.begin_query(id + 1), "a nested scope is inert");
            }
            for _ in 0..next(&mut rng) % 7 {
                let mut series = next(&mut rng) % 12;
                if series % 2 == 1 && id < 1000 + 60 * series {
                    series -= 1; // not registered yet
                }
                let v = next(&mut rng);
                match v % 3 {
                    0 => {
                        let n = if v.is_multiple_of(97) {
                            u64::MAX / 2
                        } else {
                            v % 1000
                        };
                        r.counter(&format!("qens_t_c{series:02}_total")).add(n);
                    }
                    1 => r
                        .gauge(&format!("qens_t_g{series:02}"))
                        .set((v % 4096) as f64 / 8.0 - 100.0),
                    _ => {
                        let h = r.histogram(&format!("qens_t_h{series:02}_nanos"));
                        for k in 0..1 + v % 3 {
                            h.record((v >> 8 >> (v % 50)).wrapping_add(k));
                        }
                    }
                }
            }
            expected.push(QuerySnapshot {
                query_id: id,
                metrics: r.snapshot().delta_since(&base),
            });
            r.end_query(id);
        }
        let kept = r.query_snapshots();
        assert_eq!(kept.len(), MAX_QUERY_SNAPSHOTS);
        assert_eq!(kept, expected[expected.len() - MAX_QUERY_SNAPSHOTS..]);
        // What the ring of whole `QuerySnapshot`s exported for this
        // stream (FNV-1a of the JSON), written down before it was
        // replaced.
        let empty = Snapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        };
        let digest = crate::profile::fnv1a(&crate::export::to_json(&empty, &kept));
        assert_eq!(digest, 0x0c4c_06e4_c157_4d46, "digest {digest:#x}");
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

//! A memo of answers in front of one selection path.
//!
//! [`CachedQueryDriven`] remembers the [`Selection`] it returned for a
//! rectangle and hands it back when the *same bits* are asked again of
//! an unchanged fleet. The key is `f64::to_bits` of every bound, so a
//! hit is a repeat, never a neighbour; every other lookup runs the
//! wrapped [`QueryDriven`] — with whichever candidate source it was
//! built with — and stores what it returned. The memo holds nothing per
//! node and knows nothing of Eq. 2–4, so it cannot disagree with the
//! policy behind it.
//!
//! Staleness is the check the spatial index uses (`FleetEpochs`: the
//! membership epoch, the `O(1)` mutation-epoch fast path, the per-node
//! summary-epoch walk only when that fails). When a summary really
//! moved, every entry is dropped: an answer is a function of the whole
//! fleet, and at fleet scale recomputing one through the index costs
//! less than patching it did (DESIGN.md "Selection cache" has the
//! measurement that removed delta re-scoring).
//!
//! The mutex covers the lookup and the insert, never the selection:
//! selects on one policy compute their misses side by side.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use par::ThreadPool;

use crate::epochs::FleetEpochs;
use crate::policy::{
    Participant, Ranked, Selection, SelectionContext, SelectionOverhead, SelectionPolicy,
};
use crate::query_driven::QueryDriven;

/// Tuning knobs for [`CachedQueryDriven`] and the serving batcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Bucket width (in data units) of [`CacheConfig::compatibility_key`],
    /// the serving batcher's coalescing key. The memo itself never
    /// buckets: it keys on exact bits. Must be positive and finite.
    pub bucket_width: f64,
    /// Maximum number of memoised answers; the oldest-inserted entry is
    /// evicted first (deterministic FIFO).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            bucket_width: 1.0,
            capacity: 256,
        }
    }
}

impl CacheConfig {
    /// The bucket key of a query under this configuration: the serving
    /// batcher coalesces in-flight queries with equal keys into one
    /// shared federation wave.
    pub fn compatibility_key(&self, query: &geom::Query) -> u64 {
        quantized_key(&query.region().to_boundary_vec(), self.bucket_width)
    }
}

/// Monotonic memo counters, mirrored into the global telemetry registry
/// as `qens_cache_{hits,misses,invalidations,entries}_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo: bit-exact repeats on an
    /// unchanged fleet.
    pub hits: u64,
    /// Lookups that ran the wrapped policy and stored its answer.
    pub misses: u64,
    /// Always 0: delta re-scoring is gone. Kept only because the repo
    /// benchmark's facade reads the field by name.
    pub delta_hits: u64,
    /// Nodes whose summaries had moved each time the table was dropped.
    pub invalidations: u64,
    /// Entries ever inserted (monotonic).
    pub entries: u64,
    /// Entries evicted by the FIFO capacity bound.
    pub evictions: u64,
}

/// `f64::to_bits` of every bound of a rectangle.
type Key = Box<[u64]>;

#[derive(Debug, Default)]
struct Memo {
    answers: HashMap<Key, Selection>,
    /// Insertion order for deterministic FIFO eviction.
    order: VecDeque<Key>,
    /// The fleet every answer in the table was computed on.
    seen: FleetEpochs,
    stats: CacheStats,
}

/// [`QueryDriven`] behind a memo of its own answers. Implements
/// [`SelectionPolicy`] with exactly the selections of the policy it
/// wraps: a hit returns a clone of what that policy once returned.
///
/// One instance memoises for one network: staleness is detected through
/// the membership and summary epochs, so feeding the same instance
/// contexts over *different* networks (beyond mutations of the original)
/// is detected only when node count or epochs differ.
#[derive(Debug)]
pub struct CachedQueryDriven {
    inner: QueryDriven,
    config: CacheConfig,
    state: Mutex<Memo>,
}

/// FNV-1a over the per-dimension bucket indices of a boundary vector:
/// the serving batcher's coalescing key (see
/// [`CacheConfig::compatibility_key`]).
pub fn quantized_key(bounds: &[f64], bucket_width: f64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bounds {
        // Saturating cast: out-of-range buckets collapse to the extreme
        // bucket rather than wrapping (f64-to-int casts saturate in
        // Rust). NaN cannot occur (interval bounds are finite).
        let bucket = (b / bucket_width).floor() as i64;
        for byte in bucket.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

impl CachedQueryDriven {
    /// Memoises `inner`, indexed or not.
    ///
    /// # Panics
    /// Panics if `bucket_width` is not positive-finite or `capacity`
    /// is 0.
    pub fn new(inner: QueryDriven, config: CacheConfig) -> Self {
        assert!(
            config.bucket_width.is_finite() && config.bucket_width > 0.0,
            "cache bucket width must be positive and finite, got {}",
            config.bucket_width
        );
        assert!(config.capacity > 0, "cache capacity must be non-zero");
        Self {
            inner,
            config,
            state: Mutex::new(Memo::default()),
        }
    }

    /// Wraps with [`CacheConfig::default`].
    pub fn with_defaults(inner: QueryDriven) -> Self {
        Self::new(inner, CacheConfig::default())
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &QueryDriven {
        &self.inner
    }

    /// A snapshot of the memo counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("cache lock poisoned").stats
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("cache lock poisoned")
            .answers
            .len()
    }

    /// True when nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) {
        let mut memo = self.state.lock().expect("cache lock poisoned");
        memo.answers.clear();
        memo.order.clear();
    }

    /// [`SelectionPolicy::select`] on an explicit pool handle, which
    /// only a miss uses: the wrapped policy runs on it exactly as it
    /// would unwrapped.
    pub fn select_with_pool(&self, ctx: &SelectionContext<'_>, pool: &ThreadPool) -> Selection {
        let _span = telemetry::span(
            "selection.select_cached",
            &[("nodes", ctx.network.len() as u64)],
        );
        let bounds = ctx.query.region().to_boundary_vec();
        let key: Key = bounds.iter().map(|b| b.to_bits()).collect();
        if let Some(answer) = self.lookup(ctx, &key) {
            return answer;
        }
        let selection = self.inner.select_with_pool(ctx, pool);
        self.insert(key, selection.clone());
        selection
    }

    /// The memoised answer for `key` on the fleet as it is now, counted
    /// as a hit or a miss. Drops the table first if the fleet drifted.
    fn lookup(&self, ctx: &SelectionContext<'_>, key: &[u64]) -> Option<Selection> {
        let mut memo = self.state.lock().expect("cache lock poisoned");
        let moved = memo.seen.refresh(ctx.network).count as u64;
        // An empty table has nothing to invalidate (the first lookup
        // ever sees the whole fleet as new).
        if moved > 0 && !memo.answers.is_empty() {
            memo.answers.clear();
            memo.order.clear();
            memo.stats.invalidations += moved;
            telemetry::counter!("qens_cache_invalidations_total").add(moved);
            telemetry::gauge!("qens_cache_entries").set(0.0);
            telemetry::emit(&telemetry::Event::CacheInvalidated(ctx.query.id(), moved));
        }
        let answer = memo.answers.get(key).cloned();
        if answer.is_some() {
            memo.stats.hits += 1;
            telemetry::counter!("qens_cache_hits_total").add(1);
            telemetry::trace::instant("selection.cache_hit", &[]);
        } else {
            memo.stats.misses += 1;
            telemetry::counter!("qens_cache_misses_total").add(1);
            telemetry::trace::instant("selection.cache_miss", &[]);
        }
        answer
    }

    /// Stores an answer, evicting FIFO at capacity. Two selects that
    /// missed on the same rectangle side by side both arrive here with
    /// the same answer; the second changes nothing.
    fn insert(&self, key: Key, selection: Selection) {
        let mut memo = self.state.lock().expect("cache lock poisoned");
        if memo.answers.insert(key.clone(), selection).is_some() {
            return;
        }
        memo.order.push_back(key);
        memo.stats.entries += 1;
        telemetry::counter!("qens_cache_entries_total").add(1);
        if memo.order.len() > self.config.capacity {
            let oldest = memo.order.pop_front().expect("order is non-empty");
            memo.answers.remove(&oldest);
            memo.stats.evictions += 1;
        }
        telemetry::gauge!("qens_cache_entries").set(memo.answers.len() as f64);
    }
}

impl SelectionPolicy for CachedQueryDriven {
    /// Same display name as the wrapped policy: the memo changes *how*
    /// a selection is obtained, never *what* is selected, so result
    /// tables must not fork on it.
    fn name(&self) -> &'static str {
        self.inner().name()
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        self.select_with_pool(ctx, par::global())
    }

    fn overhead(&self, ctx: &SelectionContext<'_>) -> SelectionOverhead {
        self.inner().overhead(ctx)
    }

    fn promote(&self, ctx: &SelectionContext<'_>, standby: &Ranked) -> Participant {
        self.inner().promote(ctx, standby)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fixtures::{assert_oracle, network as spaced};
    use edgesim::{EdgeNetwork, NodeId};
    use geom::Query;
    use linalg::Matrix;
    use mlkit::DenseDataset;

    fn network(n: usize) -> EdgeNetwork {
        spaced(n, 10.0)
    }

    #[test]
    fn exact_repeat_hits_and_matches_uncached() {
        let net = network(3);
        let plain = QueryDriven::top_l(3);
        let cached = CachedQueryDriven::with_defaults(plain.clone());
        let query = Query::from_boundary_vec(0, &[0.0, 15.0, 0.0, 15.0]);
        let ctx = SelectionContext::new(&net, &query);
        assert_oracle(&plain, &ctx, &cached.select(&ctx));
        assert_oracle(&plain, &ctx, &cached.select(&ctx));
        let stats = cached.stats();
        assert_eq!((stats.misses, stats.hits, stats.delta_hits), (1, 1, 0));
        assert_eq!(cached.len(), 1);
        // One ulp off is another rectangle: the policy runs again.
        let nudged =
            Query::from_boundary_vec(1, &[0.0, f64::from_bits(15.0f64.to_bits() + 1), 0.0, 15.0]);
        let ctx = SelectionContext::new(&net, &nudged);
        assert_oracle(&plain, &ctx, &cached.select(&ctx));
        assert_eq!((cached.stats().misses, cached.len()), (2, 2));
    }

    #[test]
    fn absorb_drops_the_table_and_counts_the_changed_node() {
        let mut net = network(3);
        let plain = QueryDriven::top_l(3);
        let cached = CachedQueryDriven::with_defaults(plain.clone());
        let near = Query::from_boundary_vec(0, &[0.0, 25.0, 0.0, 25.0]);
        let far = Query::from_boundary_vec(1, &[15.0, 30.0, 15.0, 30.0]);
        cached.select(&SelectionContext::new(&net, &near));
        cached.select(&SelectionContext::new(&net, &far));
        // New samples shift node 1's summaries once re-quantised.
        let extra = DenseDataset::new(Matrix::from_rows(&[vec![5.0], vec![6.0]]), vec![5.0, 6.0]);
        net.node_mut(NodeId(1)).absorb(&extra);
        net.node_mut(NodeId(1)).quantize(3, 5);
        let ctx = SelectionContext::new(&net, &near);
        assert_oracle(&plain, &ctx, &cached.select(&ctx));
        let stats = cached.stats();
        assert_eq!(stats.invalidations, 1, "one node's summaries moved");
        assert_eq!((stats.misses, stats.hits), (3, 0));
        assert_eq!(cached.len(), 1, "both old answers went, the new one is in");
        // The drift was seen once: the replay hits.
        assert_oracle(&plain, &ctx, &cached.select(&ctx));
        let stats = cached.stats();
        assert_eq!((stats.invalidations, stats.hits), (1, 1));
    }

    #[test]
    fn capacity_evicts_fifo() {
        let net = network(3);
        let cached = CachedQueryDriven::new(
            QueryDriven::top_l(3),
            CacheConfig {
                capacity: 2,
                ..CacheConfig::default()
            },
        );
        let query = |i: u64| {
            let off = i as f64 * 10.0;
            Query::from_boundary_vec(i, &[off, off + 5.0, off, off + 5.0])
        };
        for i in 0..5 {
            cached.select(&SelectionContext::new(&net, &query(i)));
        }
        assert_eq!(cached.len(), 2);
        let stats = cached.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.misses, 5);
        // The two youngest stayed, the oldest went first.
        cached.select(&SelectionContext::new(&net, &query(4)));
        cached.select(&SelectionContext::new(&net, &query(3)));
        assert_eq!(cached.stats().hits, 2);
        cached.select(&SelectionContext::new(&net, &query(2)));
        assert_eq!(cached.stats().misses, 6);
    }

    #[test]
    fn quantized_key_buckets_and_discriminates() {
        let a = quantized_key(&[0.1, 5.2, 3.3, 8.9], 10.0);
        let b = quantized_key(&[0.4, 5.9, 3.0, 8.0], 10.0); // same buckets
        let c = quantized_key(&[11.0, 15.0, 3.3, 8.9], 10.0); // dim 0 moved
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Negative bounds bucket below zero, not onto bucket 0.
        assert_ne!(
            quantized_key(&[-0.5, 0.5], 1.0),
            quantized_key(&[0.5, 0.5], 1.0)
        );
    }

    #[test]
    fn compatibility_key_matches_the_table_keying() {
        let cfg = CacheConfig {
            bucket_width: 10.0,
            capacity: 8,
        };
        let q = Query::from_boundary_vec(3, &[0.1, 5.2, 3.3, 8.9]);
        assert_eq!(
            cfg.compatibility_key(&q),
            quantized_key(&[0.1, 5.2, 3.3, 8.9], 10.0)
        );
        // Same buckets => compatible; a moved bucket => not.
        let near = Query::from_boundary_vec(4, &[0.4, 5.9, 3.0, 8.0]);
        let far = Query::from_boundary_vec(5, &[11.0, 15.0, 3.3, 8.9]);
        assert_eq!(cfg.compatibility_key(&q), cfg.compatibility_key(&near));
        assert_ne!(cfg.compatibility_key(&q), cfg.compatibility_key(&far));
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let net = network(3);
        let cached = CachedQueryDriven::with_defaults(QueryDriven::top_l(3));
        let query = Query::from_boundary_vec(0, &[0.0, 15.0, 0.0, 15.0]);
        cached.select(&SelectionContext::new(&net, &query));
        assert!(!cached.is_empty());
        cached.clear();
        assert!(cached.is_empty());
        assert_eq!(cached.stats().misses, 1);
        cached.select(&SelectionContext::new(&net, &query));
        assert_eq!(cached.stats().misses, 2);
    }

    /// The lock covers the lookup and the insert, never the selection:
    /// four threads on one memoised, indexed policy, half their queries
    /// bit-exact repeats of what another thread asks too.
    #[test]
    fn concurrent_selects_share_one_memo_and_agree_with_the_scan() {
        let net = network(40);
        let plain = QueryDriven::top_l(5);
        let grid = geom::index::GridConfig {
            domain_size: 4,
            cells_per_dim: 0,
        };
        let cached = CachedQueryDriven::new(plain.clone().indexed(grid), CacheConfig::default());
        let pool = ThreadPool::new(2);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (net, plain, cached, pool, start) = (&net, &plain, &cached, &pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..50u64 {
                        // Even steps walk eight rectangles every thread
                        // shares; odd steps are this thread's own.
                        let off = if i % 2 == 0 {
                            (i % 16) as f64 * 11.0
                        } else {
                            (t * 50 + i) as f64 * 1.75
                        };
                        let q = Query::from_boundary_vec(i, &[off, off + 20.0, off, off + 20.0]);
                        let ctx = SelectionContext::new(net, &q);
                        assert_oracle(plain, &ctx, &plain.select_with_pool(&ctx, pool));
                        assert_oracle(plain, &ctx, &cached.select_with_pool(&ctx, pool));
                    }
                });
            }
        });
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 200, "{stats:?}");
        // Each thread asks each shared rectangle at least three times
        // and can miss it once at most.
        assert!(stats.hits >= 4 * 8 * 2, "{stats:?}");
        assert_eq!(stats.entries, 8 + 100, "one entry per distinct rectangle");
        let index = cached.inner().index_stats();
        assert_eq!(index.rebuilds, 1);
        assert_eq!(index.probes, stats.misses, "only misses reach the index");
    }
}

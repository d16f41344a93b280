//! A selection cache with quantized-query hashing, per-node epoch
//! invalidation and delta re-scoring (ROADMAP item 2).
//!
//! The 200-query drifting/hotspot streams re-run the full `O(N·K·d)`
//! Eq. 2–4 kernel on near-identical rectangles every query. This module
//! memoises selections the way a game engine memoises positions — a
//! transposition table keyed by an FNV-1a hash of the *quantized* query
//! rectangle (per-dimension bucketing of the boundary values at a
//! configurable resolution):
//!
//! * **Exact hit** — the cached rectangle is bitwise equal to the
//!   incoming one and every node's summary epoch is unchanged: return
//!   the stored [`Selection`] without touching a single summary.
//! * **Delta hit** — the query drifted inside the same buckets (or a
//!   hash collision mapped a nearby rectangle here): only the
//!   dimensions whose bounds actually changed are re-evaluated through
//!   [`geom::Interval::overlap_ratio`]; per-cluster overlaps are rebuilt
//!   from the cached per-dimension ratios and rankings are reassembled
//!   through the *same* `QueryDriven` code path, so the result is
//!   bit-identical to an uncached run.
//! * **Invalidation** — a node whose [`edgesim::EdgeNode::summary_epoch`]
//!   moved (re-quantisation, `absorb`, private re-release) is fully
//!   re-scored; fresh nodes keep their cached ratios.
//! * **Miss** — no entry under the key: the full kernel runs (on the
//!   same fixed-chunk pool schedule as the uncached path) and the
//!   per-dimension ratio tables are recorded for future deltas.
//!
//! Bit-identity holds because every number either (a) comes out of the
//! identical function applied to bitwise-identical inputs, or (b) is
//! reused unchanged; sums are re-accumulated in the same order
//! (dimension order for Eq. 2, overlap-sorted order for Eq. 3) and the
//! final sort/cap runs through [`QueryDriven::rank_and_cap`] itself.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use edgesim::NodeId;
use par::ThreadPool;

use crate::indexed::{IndexStats, SelectionIndex};
use crate::policy::{Participant, Selection, SelectionContext, SelectionOverhead, SelectionPolicy};
use crate::query_driven::{QueryDriven, NODE_CHUNK};
use geom::index::GridConfig;

/// Tuning knobs for [`CachedQueryDriven`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Bucket width (in data units) of the per-dimension quantisation
    /// that forms the hash key. Rectangles whose bounds fall in the same
    /// buckets share an entry and serve each other via delta re-scoring;
    /// coarser buckets (larger width) trade more delta work for more
    /// sharing. Must be positive and finite.
    pub bucket_width: f64,
    /// Maximum number of cached entries; the oldest-inserted entry is
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
    /// The cache-bucket key of a query under this configuration. Queries
    /// with equal keys land in the same transposition-table entry, which
    /// is exactly the "compatible in-flight queries" test the serving
    /// batcher uses to coalesce queries into shared federation waves.
    pub fn compatibility_key(&self, query: &geom::Query) -> u64 {
        quantized_key(&query.region().to_boundary_vec(), self.bucket_width)
    }

    /// Reads `QENS_CACHE_QUANT` (bucket width in data units) on top of
    /// the defaults. Unset, empty, non-positive or unparseable values
    /// fall back to the default width.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("QENS_CACHE_QUANT") {
            if let Ok(w) = v.trim().parse::<f64>() {
                if w.is_finite() && w > 0.0 {
                    cfg.bucket_width = w;
                }
            }
        }
        cfg
    }
}

/// Monotonic cache counters, mirrored into the global telemetry registry
/// as `qens_cache_{hits,misses,invalidations,entries}_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheStats {
    /// Lookups served from the cache — exact or by delta re-scoring.
    pub hits: u64,
    /// Lookups that ran the full kernel and inserted a new entry.
    pub misses: u64,
    /// Hits that needed delta re-scoring (drifted bounds within the
    /// entry's buckets); always `<= hits`.
    pub delta_hits: u64,
    /// Stale nodes fully re-scored because their summary epoch moved.
    pub invalidations: u64,
    /// Entries ever inserted (monotonic; `entries - evictions` live).
    pub entries: u64,
    /// Entries evicted by the FIFO capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cached per-cluster state: identity, size and the per-dimension
/// overlap ratios against the entry's exact rectangle.
#[derive(Debug, Clone)]
struct ClusterScores {
    cluster_id: usize,
    size: usize,
    ratios: Vec<f64>,
}

/// Cached per-node state: the summary epoch the ratios were computed at
/// plus one [`ClusterScores`] per summary, in summary order.
#[derive(Debug, Clone)]
struct NodeScores {
    node: NodeId,
    epoch: u64,
    clusters: Vec<ClusterScores>,
}

/// One transposition-table entry.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// The exact boundary vector the entry was (re-)scored against —
    /// compared bitwise on lookup to detect drift within the buckets.
    bounds: Vec<f64>,
    /// Per-node ratio tables, in network node order.
    nodes: Vec<NodeScores>,
    /// The assembled selection for `bounds`.
    selection: Selection,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<u64, CacheEntry>,
    /// Insertion order for deterministic FIFO eviction.
    order: VecDeque<u64>,
    stats: CacheStats,
}

/// [`QueryDriven`] behind a selection cache. Implements
/// [`SelectionPolicy`] with the exact same observable selections —
/// participants, standby, rankings, supporting clusters, all bitwise —
/// as the inner policy, at a fraction of the scoring work on repetitive
/// streams.
///
/// One instance caches for one network: entries are invalidated per
/// node through [`edgesim::EdgeNode::summary_epoch`], so feeding the
/// same instance contexts over *different* networks (beyond mutations
/// of the original) is detected only when node count/ids/epochs differ.
pub struct CachedQueryDriven {
    inner: QueryDriven,
    config: CacheConfig,
    state: Mutex<CacheState>,
    /// Spatial index for miss-path candidate generation
    /// ([`CachedQueryDriven::with_index`]); `None` = plain full-kernel
    /// misses. Hits never consult it.
    index: Option<SelectionIndex>,
}

impl std::fmt::Debug for CachedQueryDriven {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedQueryDriven")
            .field("inner", &self.inner)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .field("indexed", &self.index.is_some())
            .finish()
    }
}

/// FNV-1a over the per-dimension bucket indices of a boundary vector —
/// the transposition-table key. Public because the serving batcher uses
/// the *same* keying to decide which in-flight queries are compatible:
/// two rectangles with equal keys share a cache entry (exact or delta),
/// so coalescing them into one federation wave costs one scoring pass.
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
    /// Wraps a policy with a cache under the given configuration.
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
            state: Mutex::new(CacheState::default()),
            index: None,
        }
    }

    /// Wraps with [`CacheConfig::default`].
    pub fn with_defaults(inner: QueryDriven) -> Self {
        Self::new(inner, CacheConfig::default())
    }

    /// Like [`CachedQueryDriven::new`] but cache *misses* generate
    /// candidates through a spatial index instead of scoring every node
    /// (see [`crate::indexed`]): hits bypass the index entirely, misses
    /// score only the candidates and synthesise exact-zero ratio tables
    /// for the rest — bit-identical by the indexed module's argument,
    /// since non-candidates are axis-disjoint in every dimension and
    /// [`geom::Interval::overlap_ratio`] is exactly `0.0` on every such
    /// pair. `summary_epoch` invalidation covers both structures: a
    /// bumped node re-scores its cache entry *and* (via the index's own
    /// epoch snapshot) rebuilds the index.
    pub fn with_index(inner: QueryDriven, config: CacheConfig, grid: GridConfig) -> Self {
        let mut cached = Self::new(inner, config);
        cached.index = Some(SelectionIndex::new(grid));
        cached
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &QueryDriven {
        &self.inner
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("cache lock poisoned").stats
    }

    /// Counters of the miss-path spatial index, when one is attached
    /// ([`CachedQueryDriven::with_index`]).
    pub fn index_stats(&self) -> Option<IndexStats> {
        self.index.as_ref().map(SelectionIndex::stats)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("cache lock poisoned")
            .entries
            .len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("cache lock poisoned");
        state.entries.clear();
        state.order.clear();
    }

    /// [`SelectionPolicy::select`] on an explicit pool handle; see the
    /// module docs for the hit/delta/invalidation/miss flow. The pool
    /// only ever runs the same fixed-chunk node map as the uncached
    /// path, so results are bit-identical at any worker count.
    pub fn select_with_pool(&self, ctx: &SelectionContext<'_>, pool: &ThreadPool) -> Selection {
        let _span = telemetry::span!("qens_selection_select_nanos");
        let nodes = ctx.network.nodes();
        let _trace_span = telemetry::trace::span_args(
            "selection.select_cached",
            &[("nodes", nodes.len() as u64)],
        );
        let bounds = ctx.query.region().to_boundary_vec();
        let key = quantized_key(&bounds, self.config.bucket_width);
        let mut state = self.state.lock().expect("cache lock poisoned");

        let reusable = state.entries.get(&key).is_some_and(|e| {
            e.nodes.len() == nodes.len()
                && e.nodes.iter().zip(nodes).all(|(ns, n)| ns.node == n.id())
        });
        if !reusable {
            // Miss (or an unusable entry after network membership
            // changes): run the full kernel and (re)install the entry.
            // With an index attached (and ε > 0, where pruning is
            // sound), only candidates are scored; pruned nodes get
            // synthesised all-zero tables.
            let (tables, participants) = match &self.index {
                Some(index) if self.inner.epsilon > 0.0 => self.score_all_indexed(ctx, pool, index),
                Some(index) => {
                    index.record_fallback();
                    self.score_all(ctx, pool)
                }
                None => self.score_all(ctx, pool),
            };
            let selection = self.inner.rank_and_cap(participants.into_iter().flatten());
            state.stats.misses += 1;
            telemetry::counter!("qens_cache_misses_total").add(1);
            telemetry::trace::instant("selection.cache_miss", &[("nodes", nodes.len() as u64)]);
            self.insert(&mut state, key, bounds, tables, selection.clone());
            return selection;
        }

        let entry = state.entries.get(&key).expect("checked above");
        let dim = ctx.query.dim();
        // Dimensions whose lo/hi moved since the entry was scored
        // (bitwise compare: only exact reuse keeps exact results).
        let changed_dims: Vec<usize> = (0..dim)
            .filter(|d| {
                entry.bounds[2 * d].to_bits() != bounds[2 * d].to_bits()
                    || entry.bounds[2 * d + 1].to_bits() != bounds[2 * d + 1].to_bits()
            })
            .collect();
        let stale: Vec<bool> = entry
            .nodes
            .iter()
            .zip(nodes)
            .map(|(ns, n)| ns.epoch != n.summary_epoch())
            .collect();
        let n_stale = stale.iter().filter(|s| **s).count();

        if changed_dims.is_empty() && n_stale == 0 {
            let selection = entry.selection.clone();
            state.stats.hits += 1;
            telemetry::counter!("qens_cache_hits_total").add(1);
            telemetry::trace::instant(
                "selection.cache_hit",
                &[("delta_dims", 0), ("stale_nodes", 0)],
            );
            return selection;
        }

        // Delta path: re-score only the moved dimensions on fresh nodes
        // and everything on stale nodes, mutating the entry's tables in
        // place. The per-node delta is a handful of interval divisions,
        // so it runs serially — no table clones, no pool dispatch — and
        // since every value is either reused or recomputed by the same
        // function, thread-count bit-identity is trivial.
        let rect = ctx.query.region();
        let entry = state.entries.get_mut(&key).expect("checked above");
        let mut participants = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            if stale[i] {
                let (table, participant) = self.score_one(node, ctx.query);
                entry.nodes[i] = table;
                participants.push(participant);
            } else {
                let table = &mut entry.nodes[i];
                for cluster in &mut table.clusters {
                    // Summaries are epoch-stable, so cluster ids and
                    // rects match what the table was built from.
                    let k_rect = &node
                        .summaries()
                        .iter()
                        .find(|s| s.cluster_id == cluster.cluster_id)
                        .expect("fresh node keeps its cluster ids")
                        .rect;
                    for &d in &changed_dims {
                        cluster.ratios[d] = rect.interval(d).overlap_ratio(k_rect.interval(d));
                    }
                }
                participants.push(self.rank_table(node.id(), table));
            }
        }
        let selection = self.inner.rank_and_cap(participants.into_iter().flatten());
        entry.bounds = bounds;
        entry.selection = selection.clone();
        state.stats.hits += 1;
        state.stats.delta_hits += 1;
        state.stats.invalidations += n_stale as u64;
        telemetry::counter!("qens_cache_hits_total").add(1);
        if n_stale > 0 {
            telemetry::counter!("qens_cache_invalidations_total").add(n_stale as u64);
            telemetry::journal::cache_invalidated(ctx.query.id(), n_stale as u64);
        }
        telemetry::trace::instant(
            "selection.cache_hit",
            &[
                ("delta_dims", changed_dims.len() as u64),
                ("stale_nodes", n_stale as u64),
            ],
        );
        selection
    }

    /// Full scoring of the whole network: the uncached kernel, but
    /// recording the per-dimension ratio tables alongside.
    fn score_all(
        &self,
        ctx: &SelectionContext<'_>,
        pool: &ThreadPool,
    ) -> (Vec<NodeScores>, Vec<Option<Participant>>) {
        let scored: Vec<(NodeScores, Option<Participant>)> =
            pool.map_indexed(ctx.network.nodes(), NODE_CHUNK, |_, node| {
                self.score_one(node, ctx.query)
            });
        scored.into_iter().unzip()
    }

    /// Indexed variant of [`CachedQueryDriven::score_all`]: candidates
    /// are scored exactly like the plain path; every pruned node gets a
    /// synthesised table with all-zero per-dimension ratios — the exact
    /// bits [`CachedQueryDriven::score_one`] would have produced, since
    /// a pruned node's every cluster is disjoint from the query in
    /// every dimension — so later delta/invalidation passes over the
    /// entry behave identically to a full-kernel miss.
    fn score_all_indexed(
        &self,
        ctx: &SelectionContext<'_>,
        pool: &ThreadPool,
        index: &SelectionIndex,
    ) -> (Vec<NodeScores>, Vec<Option<Participant>>) {
        let nodes = ctx.network.nodes();
        let candidates = index.candidates(ctx.network, ctx.query, pool);
        let mut is_candidate = vec![false; nodes.len()];
        for &i in &candidates {
            is_candidate[i as usize] = true;
        }
        let dim = ctx.query.dim();
        let scored: Vec<(NodeScores, Option<Participant>)> =
            pool.map_indexed(nodes, NODE_CHUNK, |i, node| {
                if is_candidate[i] {
                    self.score_one(node, ctx.query)
                } else {
                    let table = NodeScores {
                        node: node.id(),
                        epoch: node.summary_epoch(),
                        clusters: node
                            .summaries()
                            .iter()
                            .map(|s| ClusterScores {
                                cluster_id: s.cluster_id,
                                size: s.size,
                                ratios: vec![0.0; dim],
                            })
                            .collect(),
                    };
                    (table, None)
                }
            });
        scored.into_iter().unzip()
    }

    /// Scores one node from scratch, returning its ratio table and
    /// participant entry. Mirrors [`QueryDriven::score_node`] — same
    /// quantisation guard, same per-dimension ratios in the same order —
    /// with the table as a by-product.
    fn score_one(
        &self,
        node: &edgesim::EdgeNode,
        query: &geom::Query,
    ) -> (NodeScores, Option<Participant>) {
        assert!(
            node.is_quantized(),
            "node {} has no cluster summaries; call EdgeNetwork::quantize_all first",
            node.id()
        );
        let _trace_score = telemetry::trace::wall_span_args(
            "selection.score_node",
            &[("node", node.id().0 as u64)],
        );
        let rect = query.region();
        let dim = rect.dim();
        let clusters: Vec<ClusterScores> = node
            .summaries()
            .iter()
            .map(|s| ClusterScores {
                cluster_id: s.cluster_id,
                size: s.size,
                ratios: (0..dim)
                    .map(|d| rect.interval(d).overlap_ratio(s.rect.interval(d)))
                    .collect(),
            })
            .collect();
        telemetry::counter!("qens_selection_overlap_evals_total").add(clusters.len() as u64);
        let table = NodeScores {
            node: node.id(),
            epoch: node.summary_epoch(),
            clusters,
        };
        let participant = self.rank_table(node.id(), &table);
        (table, participant)
    }

    /// Eq. 2–4 from a ratio table: per-cluster `h_ik` is the mean of the
    /// per-dimension ratios accumulated in dimension order — the exact
    /// summation [`geom::HyperRect::overlap_rate`] performs — then the
    /// shared [`QueryDriven::rank_clusters`] filter/sort/rank runs.
    fn rank_table(&self, node: NodeId, table: &NodeScores) -> Option<Participant> {
        let (ranking, supporting) = self.inner.rank_clusters(
            table.clusters.len(),
            table.clusters.iter().map(|c| {
                let h = c.ratios.iter().sum::<f64>() / c.ratios.len() as f64;
                (c.cluster_id, c.size, h)
            }),
        );
        self.inner.participant_for(node, ranking, supporting)
    }

    /// Installs (or replaces) an entry, evicting FIFO at capacity.
    fn insert(
        &self,
        state: &mut CacheState,
        key: u64,
        bounds: Vec<f64>,
        nodes: Vec<NodeScores>,
        selection: Selection,
    ) {
        if state
            .entries
            .insert(
                key,
                CacheEntry {
                    bounds,
                    nodes,
                    selection,
                },
            )
            .is_none()
        {
            state.order.push_back(key);
            state.stats.entries += 1;
            telemetry::counter!("qens_cache_entries_total").add(1);
        }
        while state.entries.len() > self.config.capacity {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            state.entries.remove(&oldest);
            state.stats.evictions += 1;
        }
        telemetry::gauge!("qens_cache_entries").set(state.entries.len() as f64);
    }
}

impl SelectionPolicy for CachedQueryDriven {
    /// Same display name as the wrapped policy: the cache changes *how*
    /// a selection is computed, never *what* is selected, so result
    /// tables must not fork on it.
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        self.select_with_pool(ctx, par::global())
    }

    fn overhead(&self, ctx: &SelectionContext<'_>) -> SelectionOverhead {
        self.inner.overhead(ctx)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::EdgeNetwork;
    use geom::Query;
    use linalg::Matrix;
    use mlkit::DenseDataset;

    fn node_dataset(x0: f64) -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![x0 + i as f64 / 3.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    fn network() -> EdgeNetwork {
        let mut net = EdgeNetwork::from_datasets(vec![
            ("near".into(), node_dataset(0.0)),
            ("mid".into(), node_dataset(10.0)),
            ("far".into(), node_dataset(100.0)),
        ]);
        net.quantize_all(3, 5);
        net
    }

    fn assert_bitwise_eq(a: &Selection, b: &Selection) {
        assert_eq!(a, b);
        for (x, y) in a
            .participants
            .iter()
            .chain(&a.standby)
            .zip(b.participants.iter().chain(&b.standby))
        {
            assert_eq!(x.ranking.to_bits(), y.ranking.to_bits());
            for (cx, cy) in x.supporting_clusters.iter().zip(&y.supporting_clusters) {
                assert_eq!(cx.overlap.to_bits(), cy.overlap.to_bits());
            }
        }
    }

    #[test]
    fn exact_repeat_hits_and_matches_uncached() {
        let net = network();
        let plain = QueryDriven::top_l(3);
        let cached = CachedQueryDriven::with_defaults(plain.clone());
        let query = Query::from_boundary_vec(0, &[0.0, 15.0, 0.0, 15.0]);
        let ctx = SelectionContext::new(&net, &query);
        let want = plain.select(&ctx);
        let first = cached.select(&ctx);
        let second = cached.select(&ctx);
        assert_bitwise_eq(&want, &first);
        assert_bitwise_eq(&want, &second);
        let stats = cached.stats();
        assert_eq!((stats.misses, stats.hits, stats.delta_hits), (1, 1, 0));
        assert_eq!(cached.len(), 1);
    }

    #[test]
    fn drifted_query_delta_rescored_bitwise_equal() {
        let net = network();
        let plain = QueryDriven::top_l(3);
        // Huge buckets: every drift below lands in the same entry.
        let cached = CachedQueryDriven::new(
            plain.clone(),
            CacheConfig {
                bucket_width: 1000.0,
                capacity: 8,
            },
        );
        // Drift one dimension, then both, re-checking bit-identity.
        let steps = [
            [0.0, 15.0, 0.0, 15.0],
            [0.2, 15.2, 0.0, 15.0], // dim 0 moved
            [0.2, 15.2, 0.3, 14.8], // dim 1 moved
            [0.9, 16.0, 0.5, 15.5], // both moved
        ];
        for (i, b) in steps.iter().enumerate() {
            let query = Query::from_boundary_vec(i as u64, b);
            let ctx = SelectionContext::new(&net, &query);
            assert_bitwise_eq(&plain.select(&ctx), &cached.select(&ctx));
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 1, "only the first query misses");
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.delta_hits, 3);
        assert_eq!(stats.invalidations, 0);
        assert!(stats.hit_rate() > 0.7);
    }

    #[test]
    fn absorb_invalidates_only_the_changed_node() {
        let mut net = network();
        let plain = QueryDriven::top_l(3);
        let cached = CachedQueryDriven::with_defaults(plain.clone());
        let query = Query::from_boundary_vec(0, &[0.0, 25.0, 0.0, 25.0]);
        cached.select(&SelectionContext::new(&net, &query));
        // New samples shift node 1's summaries once re-quantised.
        let extra = DenseDataset::new(Matrix::from_rows(&[vec![5.0], vec![6.0]]), vec![5.0, 6.0]);
        net.node_mut(NodeId(1)).absorb(&extra);
        net.node_mut(NodeId(1)).quantize(3, 5);
        let ctx = SelectionContext::new(&net, &query);
        assert_bitwise_eq(&plain.select(&ctx), &cached.select(&ctx));
        let stats = cached.stats();
        assert_eq!(stats.invalidations, 1, "exactly node 1 was re-scored");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let net = network();
        let cached = CachedQueryDriven::new(
            QueryDriven::top_l(3),
            CacheConfig {
                bucket_width: 0.001, // every query its own bucket
                capacity: 2,
            },
        );
        for i in 0..5u64 {
            let off = i as f64 * 10.0;
            let query = Query::from_boundary_vec(i, &[off, off + 5.0, off, off + 5.0]);
            cached.select(&SelectionContext::new(&net, &query));
        }
        assert_eq!(cached.len(), 2);
        let stats = cached.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.misses, 5);
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
        let net = network();
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
}

//! Sublinear selection for the query-driven policy: candidate
//! generation through a spatial index, Eq. 2–4 scoring off a cluster
//! table laid out in the index's own order.
//!
//! The plain [`QueryDriven`] kernel scores every node on every query:
//! `O(N·K·d)` per selection, which a million-node fleet turns into
//! hundreds of milliseconds of pure arithmetic. This module splits
//! selection into **candidate generation** — a
//! [`geom::index::SpatialIndex`] over per-node summary hulls with a
//! two-level domain-then-node hierarchy — and **exact verification**:
//! each surviving domain's hull hits are ranked on the spot, from that
//! domain's block of a cluster table kept in the index's Morton slot
//! order, through the shared `rank_clusters` into `(node, r_i)` entries
//! that the shared `rank_and_cap` sorts and cuts.
//!
//! # The cluster table
//!
//! Scoring a candidate through `nodes[id] → summaries → rect →
//! intervals` is five or six dependent cache misses into a heap the
//! Morton sort has made random with respect to node id; at 1M nodes
//! that chase, not the arithmetic, was 15 of a 17–20 ms select. The
//! table holds what Eq. 2–4 reads and nothing else, per cluster and in
//! slot order, one [`DomainClusters`] block per index domain:
//! `offsets[i]..offsets[i + 1]` are the clusters of the node at the
//! domain's `i`-th slot, each with its `d` [`geom::Interval`]s
//! contiguous (16·d bytes) and its `(cluster_id, size)` (8 bytes) — 40
//! bytes per cluster at `d = 2`, plus 4 per node for the offsets. A
//! domain's candidates are neighbours in its block, so a query streams
//! one contiguous run per surviving domain.
//!
//! A block is gathered by the first fused select that verifies its
//! domain — the pointer chase above, paid once per domain per build
//! instead of once per candidate per query — and lives inside the built
//! index, so whatever makes the index stale drops it too. Nothing is
//! gathered up front: building the whole table with the index costs a
//! fleet-wide walk plus 124 MB of fresh pages at 1M nodes × 3
//! clusters (0.2–0.5 s, measured), and a select only needs the few per
//! cent of domains its query survives in.
//!
//! # Why the results are bit-identical
//!
//! *Pruned nodes score zero.* Eq. 2 overlap is *additive* over
//! dimensions (the mean of per-axis ratios), so the index prunes with
//! **per-axis union** semantics: a node is a candidate iff at least one
//! dimension of its summary hull intersects the query's interval in
//! that dimension. For every non-candidate the hull — and therefore
//! every cluster rectangle under it — is disjoint from the query in
//! *every* dimension, and [`geom::Interval::overlap_ratio`] returns
//! exactly `0.0` for every disjoint (or touching-but-degenerate) pair.
//! With `ε > 0` each such cluster fails `h_ik >= ε`, leaving the node
//! with zero supporting clusters and ranking `0.0` — precisely the
//! nodes a full scan leaves out of its ranked list.
//!
//! *Candidates score the same bits.* The table stores copies of the
//! summaries' own `Interval`s; a candidate's `h_ik` is
//! `Interval::overlap_ratio` per dimension, summed in dimension order
//! by the same `Iterator::sum` and divided by `d` — the arithmetic of
//! [`geom::HyperRect::overlap_rate`] on the same operands — and its
//! clusters reach `rank_clusters` in summary order, so the ε filter,
//! the overlap-descending sort, the potential sum and the ranking are
//! the scan's.
//!
//! *Order does not matter.* Candidates are scored in slot order, not
//! ascending node id, and per fixed chunk of surviving domains rather
//! than per fixed chunk of nodes. Nothing downstream can see that:
//! each node's entry is a function of that node and the query alone,
//! and `rank_and_cap` sorts by a **total** order (ranking descending,
//! then the unique node id ascending) in which no two entries compare
//! equal, so every input permutation — and therefore every thread
//! count — gives the same ranked list, cut and standby tail as the
//! scan.
//!
//! *Clusters come from one place.* The table only ranks. A node's
//! supporting clusters are built once it is above the cut (in
//! `rank_and_cap`) or promoted from the standby tail (through
//! [`SelectionPolicy::promote`]), and both go through
//! [`QueryDriven::score_node`] on the node's own summaries — the scan's
//! code, not a copy of it. The standby tail is `(node, r_i)` pairs, so
//! the table's narrowed `(cluster_id, size)` never leaves this module.
//!
//! `ε <= 0` (e.g. ablations ranking by cluster-count only) breaks the
//! first step — a zero-overlap cluster then *satisfies* `h >= ε` — so
//! [`IndexedQueryDriven`] detects it and falls back to the full scan.
//!
//! # Staleness
//!
//! The index keeps the fleet's epochs as of its last refresh
//! (`FleetEpochs`, the check the selection memo shares): every node's
//! [`edgesim::EdgeNode::summary_epoch`] and the network's
//! [`edgesim::EdgeNetwork::membership_epoch`]. What the next probe does
//! about drift depends on its kind:
//!
//! * **Patch** — membership unchanged and no more nodes moved than the
//!   index has domains (a node absorbed data or re-quantised, to any
//!   K), so the repair costs at most about one bulk pass: each moved
//!   node's hull is written over its slot with
//!   [`SpatialIndex::update`], and only its domain's cluster block is
//!   dropped, to be gathered again from the new summaries by the next
//!   select that verifies the domain. Counted in
//!   `qens_index_patches_total`.
//! * **Rebuild** — a node joined, or more nodes moved than there are
//!   domains (`quantize_all`): a deterministic bulk build over the
//!   current hulls that restores the Morton order and drops the whole
//!   cluster table. Counted in `qens_index_rebuilds_total`, timed by
//!   the `qens_index_build_nanos` histogram.
//!
//! A patched index selects exactly what a rebuilt one selects. The
//! layout decides only which domains a probe visits; the candidates are
//! the nodes whose *current* hull meets the query on some axis whatever
//! the layout (the geometry module's exactness argument), each is scored
//! from a block gathered from its current summaries (every block that
//! held a moved node's old ones was dropped), and `rank_and_cap`'s total
//! order makes the scoring order invisible. What a patch gives up is
//! pruning power: a moved node widens its domain's aggregate until the
//! next rebuild.
//!
//! Only that check, the repair and the counters run under the index's
//! lock: a select works on an `Arc` snapshot of the build it verified,
//! so concurrent selects on one policy probe and score side by side.
//! The repair goes through [`Arc::make_mut`] and every block sits
//! behind its own `Arc`, so should a select still hold the old snapshot,
//! the repair copies block pointers, not blocks.

use std::sync::{Arc, Mutex, OnceLock};

use edgesim::{EdgeNetwork, EdgeNode, NodeId};
use geom::index::{GridConfig, Probe, SpatialIndex, SpatialIndexBuilder};
use geom::Interval;
use par::ThreadPool;

use crate::epochs::FleetEpochs;
use crate::policy::{
    Participant, Ranked, Selection, SelectionContext, SelectionOverhead, SelectionPolicy,
};
use crate::query_driven::{count_scored, QueryDriven};

/// Surviving domains per pool task. Fixed (worker-count independent),
/// so what each task produces does not depend on the pool.
const DOMAIN_CHUNK: usize = 4;

/// Monotonic index counters, mirrored into the global telemetry registry
/// as `qens_index_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Bulk (re)builds, including the initial one.
    pub rebuilds: u64,
    /// Refreshes that repaired the build in place instead (one per
    /// refresh, however many nodes it re-indexed).
    pub patches: u64,
    /// Queries that went through the index.
    pub probes: u64,
    /// Grid cells visited across all probes.
    pub cells_probed: u64,
    /// Domains eliminated before any per-node work.
    pub domains_pruned: u64,
    /// Candidate nodes handed to the scoring stage.
    pub candidates: u64,
    /// Selections that bypassed the index (`ε <= 0` full-scan safety).
    pub fallbacks: u64,
}

/// What Eq. 2–4 reads of every cluster under one index domain, flat
/// and in slot order; see the module docs.
#[derive(Debug)]
struct DomainClusters {
    dims: usize,
    /// `offsets[i]..offsets[i + 1]` index the clusters of the node at
    /// the domain's `i`-th slot.
    offsets: Vec<u32>,
    /// `dims` intervals per cluster, contiguous.
    intervals: Vec<Interval>,
    /// `(cluster_id, size)` per cluster, narrowed: scoring is bound by
    /// the bytes it streams, and at 48 bytes per cluster instead of 40
    /// `fleet_select` ran 87–89 ops/s instead of 103–108. [`WIDE`] in
    /// either half sends the reader back to the node's own summary.
    meta: Vec<(u32, u32)>,
}

/// Stands in [`DomainClusters::meta`] for a cluster id or size that does
/// not fit 32 bits. No fitted summary has one (a size is bounded by the
/// node's sample count), but [`EdgeNode::from_summaries`] accepts any.
const WIDE: u32 = u32::MAX;

impl DomainClusters {
    fn gather(index: &SpatialIndex, domain: u32, nodes: &[EdgeNode]) -> Self {
        let dims = index.dims();
        let (start, end) = index.domain_items(domain);
        let ids = &index.slot_ids()[start..end];
        // Exact capacities: growth slack on every block of a million
        // nodes' table would be tens of megabytes.
        let clusters: usize = ids.iter().map(|&id| nodes[id as usize].k()).sum();
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        let mut intervals = Vec::with_capacity(clusters * dims);
        let mut meta = Vec::with_capacity(clusters);
        let narrow = |v: usize| u32::try_from(v).unwrap_or(WIDE);
        offsets.push(0);
        for &id in ids {
            for summary in nodes[id as usize].summaries() {
                meta.push((narrow(summary.cluster_id), narrow(summary.size)));
                intervals.extend_from_slice(summary.rect.intervals());
            }
            offsets.push(u32::try_from(meta.len()).expect("domain cluster count fits 32 bits"));
        }
        Self {
            dims,
            offsets,
            intervals,
            meta,
        }
    }

    /// The `(cluster_id, size, h_ik)` triples of the node at the
    /// domain's `i`-th slot, in summary order, as
    /// [`QueryDriven::rank_clusters`] takes them. `h_ik` repeats
    /// [`geom::HyperRect::overlap_rate`] operation for operation.
    fn overlaps<'a>(
        &'a self,
        i: usize,
        node: &'a EdgeNode,
        query: &'a geom::HyperRect,
    ) -> impl ExactSizeIterator<Item = (usize, usize, f64)> + 'a {
        let first = self.offsets[i] as usize;
        (first..self.offsets[i + 1] as usize).map(move |c| {
            let sum: f64 = query
                .intervals()
                .iter()
                .zip(&self.intervals[c * self.dims..(c + 1) * self.dims])
                .map(|(q, k)| q.overlap_ratio(k))
                .sum();
            let (cluster_id, size) = match self.meta[c] {
                (id, size) if id != WIDE && size != WIDE => (id as usize, size as usize),
                _ => {
                    let summary = &node.summaries()[c - first];
                    (summary.cluster_id, summary.size)
                }
            };
            (cluster_id, size, sum / self.dims as f64)
        })
    }
}

/// The index and the cluster table gathered over it.
#[derive(Debug, Clone)]
struct BuiltIndex {
    index: SpatialIndex,
    /// The cluster table, one cell per domain, each filled by the first
    /// fused select that verifies the domain. A block is shared, not
    /// copied, when a patch has to clone the build.
    clusters: Vec<OnceLock<Arc<DomainClusters>>>,
}

impl BuiltIndex {
    /// Bulk build over the nodes' summary hulls.
    fn new(nodes: &[EdgeNode], dims: usize, config: GridConfig) -> Self {
        let mut builder = SpatialIndexBuilder::with_capacity(dims, nodes.len());
        for node in nodes {
            // summary_rects carries the same "call quantize_all first"
            // guidance as direct scoring, so the indexed path cannot
            // mask an unquantised node.
            builder.push_hull(node.summary_rects());
        }
        let index = builder.build(config);
        Self {
            clusters: (0..index.n_domains()).map(|_| OnceLock::new()).collect(),
            index,
        }
    }

    /// Re-indexes node `id` from its current summaries in its slot and
    /// drops its domain's block, the only one holding the old ones.
    fn patch(&mut self, id: usize, node: &EdgeNode) {
        let id = u32::try_from(id).expect("the index numbers its items in 32 bits");
        let domain = self.index.update(id, &node.summary_bounds());
        self.clusters[domain as usize] = OnceLock::new();
    }
}

#[derive(Debug, Default)]
struct IndexState {
    built: Option<Arc<BuiltIndex>>,
    /// The fleet as of `built`.
    seen: FleetEpochs,
    stats: IndexStats,
}

/// [`QueryDriven`] behind spatial-index candidate generation: identical
/// selections — participants, rankings, supporting clusters, standby —
/// at a fraction of the scoring work on large fleets. See the module
/// docs for the bit-identity argument.
///
/// The index is built lazily and rebuilt when the fleet drifts; one
/// instance indexes one network (feeding it contexts over unrelated
/// networks of the same shape is the same caveat the selection memo
/// documents).
#[derive(Debug)]
pub struct IndexedQueryDriven {
    inner: QueryDriven,
    config: GridConfig,
    state: Mutex<IndexState>,
}

impl IndexedQueryDriven {
    /// Wraps a policy with an index under the given grid configuration;
    /// the index bulk-builds on first use.
    pub fn new(inner: QueryDriven, config: GridConfig) -> Self {
        Self {
            inner,
            config,
            state: Mutex::new(IndexState::default()),
        }
    }

    /// Wraps with [`GridConfig::default`].
    pub fn with_defaults(inner: QueryDriven) -> Self {
        Self::new(inner, GridConfig::default())
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &QueryDriven {
        &self.inner
    }

    /// A snapshot of the index counters.
    pub fn index_stats(&self) -> IndexStats {
        self.state.lock().expect("index lock poisoned").stats
    }

    /// The build that is current for `network`: patched in place when a
    /// few nodes moved, rebuilt when membership changed or many moved
    /// (see the module docs). The lock covers this and nothing after it.
    fn current(&self, network: &EdgeNetwork, dims: usize) -> Arc<BuiltIndex> {
        let mut guard = self.state.lock().expect("index lock poisoned");
        let state = &mut *guard;
        let drift = state.seen.refresh(network);
        let nodes = network.nodes();
        if let Some(built) = state.built.as_mut() {
            match drift.nodes {
                _ if drift.count == 0 => return Arc::clone(built),
                Some(moved) if moved.len() <= built.index.n_domains() => {
                    let patched = Arc::make_mut(built);
                    for &id in &moved {
                        patched.patch(id, &nodes[id]);
                    }
                    state.stats.patches += 1;
                    telemetry::counter!("qens_index_patches_total").add(1);
                    telemetry::trace::instant(
                        "selection.index_patch",
                        &[("nodes", moved.len() as u64)],
                    );
                    return Arc::clone(built);
                }
                _ => {}
            }
        }
        let _span = telemetry::span!("qens_index_build_nanos");
        let built = Arc::new(BuiltIndex::new(nodes, dims, self.config));
        state.built = Some(Arc::clone(&built));
        state.stats.rebuilds += 1;
        telemetry::counter!("qens_index_rebuilds_total").add(1);
        telemetry::trace::instant("selection.index_rebuild", &[("nodes", nodes.len() as u64)]);
        built
    }

    /// Accounts one probe and the candidates its verify let through.
    fn record_probe(&self, probe: &Probe, candidates: u64) {
        {
            let stats = &mut self.state.lock().expect("index lock poisoned").stats;
            stats.probes += 1;
            stats.cells_probed += probe.cells_probed;
            stats.domains_pruned += probe.domains_pruned;
            stats.candidates += candidates;
        }
        telemetry::counter!("qens_index_cells_probed_total").add(probe.cells_probed);
        telemetry::counter!("qens_index_domains_pruned_total").add(probe.domains_pruned);
        telemetry::counter!("qens_index_candidates_total").add(candidates);
        telemetry::trace::instant(
            "selection.index_probe",
            &[
                ("cells", probe.cells_probed),
                ("domains_pruned", probe.domains_pruned),
                ("candidates", candidates),
            ],
        );
    }

    /// Records an `ε <= 0` full-scan fallback.
    fn record_fallback(&self) {
        self.state
            .lock()
            .expect("index lock poisoned")
            .stats
            .fallbacks += 1;
        telemetry::counter!("qens_index_fallbacks_total").add(1);
    }

    /// [`SelectionPolicy::select`] on an explicit pool handle: probe,
    /// then per fixed chunk of surviving domains verify the hulls and
    /// score every hit off the cluster table, then the shared rank/cap.
    pub fn select_with_pool(&self, ctx: &SelectionContext<'_>, pool: &ThreadPool) -> Selection {
        if self.inner.epsilon <= 0.0 {
            // With ε <= 0 a zero-overlap cluster still passes the
            // `h >= ε` filter, so pruned nodes could legitimately be
            // participants: index pruning would change the result.
            // Delegate wholesale (spans/traces included) to the scan.
            self.record_fallback();
            return self.inner.select_with_pool(ctx, pool);
        }
        let _span = telemetry::span!("qens_selection_select_nanos");
        let nodes = ctx.network.nodes();
        let _trace_span = telemetry::trace::span_args(
            "selection.select_indexed",
            &[("nodes", nodes.len() as u64)],
        );
        let built = self.current(ctx.network, ctx.query.dim());
        let ids = built.index.slot_ids();
        let region = ctx.query.region();
        let probe = built.index.probe(region);
        let chunks: Vec<(Vec<Ranked>, u64)> =
            pool.map_chunks(probe.domains.len(), DOMAIN_CHUNK, |chunk| {
                let (mut ranked, mut supporting) = (Vec::new(), Vec::new());
                let (mut candidates, mut evals, mut kept, mut nonfinite) = (0u64, 0u64, 0u64, 0u64);
                for &domain in &probe.domains[chunk] {
                    let clusters = built.clusters[domain as usize].get_or_init(|| {
                        Arc::new(DomainClusters::gather(&built.index, domain, nodes))
                    });
                    let (first_slot, _) = built.index.domain_items(domain);
                    built
                        .index
                        .verify_slots(domain, &probe.q_lo, &probe.q_hi, |slot| {
                            let id = ids[slot] as usize;
                            // Wall-mode only, as in the scan: this runs
                            // on pool workers.
                            let _trace_score = telemetry::trace::wall_span_args(
                                "selection.score_node",
                                &[("node", id as u64)],
                            );
                            let overlaps = clusters
                                .overlaps(slot - first_slot, &nodes[id], region)
                                .inspect(|&(_, _, h)| nonfinite += u64::from(!h.is_finite()));
                            candidates += 1;
                            evals += overlaps.len() as u64;
                            let ranking =
                                self.inner
                                    .rank_clusters(overlaps.len(), overlaps, &mut supporting);
                            kept += supporting.len() as u64;
                            if ranking > 0.0 {
                                ranked.push(Ranked {
                                    node: NodeId(id),
                                    ranking,
                                });
                            }
                        });
                }
                count_scored(evals, kept, nonfinite);
                (ranked, candidates)
            });
        let (ranked, candidates): (Vec<Vec<Ranked>>, Vec<u64>) = chunks.into_iter().unzip();
        self.record_probe(&probe, candidates.iter().sum());
        self.inner.rank_and_cap(ctx, ranked.concat())
    }
}

impl SelectionPolicy for IndexedQueryDriven {
    /// Same display name as the wrapped policy: the index changes *how*
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

    fn promote(&self, ctx: &SelectionContext<'_>, standby: &Ranked) -> Participant {
        self.inner.promote(ctx, standby)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_driven::{RankingRule, SelectionCap};
    use edgesim::{EdgeNetwork, NodeId};
    use geom::Query;
    use linalg::Matrix;
    use mlkit::DenseDataset;

    fn node_dataset(x0: f64) -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![x0 + i as f64 / 3.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    fn network(n: usize) -> EdgeNetwork {
        let datasets = (0..n)
            .map(|i| (format!("n{i}"), node_dataset(i as f64 * 12.0)))
            .collect();
        let mut net = EdgeNetwork::from_datasets(datasets);
        net.quantize_all(3, 5);
        net
    }

    fn assert_bitwise_eq(a: &Selection, b: &Selection) {
        assert_eq!(a, b);
        for (x, y) in a.standby.iter().zip(&b.standby) {
            assert_eq!(x.ranking.to_bits(), y.ranking.to_bits());
        }
        for (x, y) in a.participants.iter().zip(&b.participants) {
            assert_eq!(x.ranking.to_bits(), y.ranking.to_bits());
            for (cx, cy) in x.supporting_clusters.iter().zip(&y.supporting_clusters) {
                assert_eq!(cx.overlap.to_bits(), cy.overlap.to_bits());
            }
        }
    }

    #[test]
    fn indexed_matches_scan_bitwise_over_sliding_queries() {
        let net = network(24);
        let plain = QueryDriven {
            cap: SelectionCap::AllPositive,
            ..QueryDriven::top_l(24)
        };
        let indexed = IndexedQueryDriven::with_defaults(plain.clone());
        for i in 0..40u64 {
            let off = i as f64 * 7.0;
            let q = Query::from_boundary_vec(i, &[off, off + 15.0, off, off + 15.0]);
            let ctx = SelectionContext::new(&net, &q);
            assert_bitwise_eq(&plain.select(&ctx), &indexed.select(&ctx));
        }
        let stats = indexed.index_stats();
        assert_eq!(stats.rebuilds, 1, "one bulk build serves every query");
        assert_eq!(stats.probes, 40);
        assert!(stats.domains_pruned > 0 || net.len() <= 64);
    }

    #[test]
    fn summary_epoch_drift_patches_in_place() {
        let mut net = network(6);
        let plain = QueryDriven::top_l(3);
        let indexed = IndexedQueryDriven::with_defaults(plain.clone());
        let q = Query::from_boundary_vec(0, &[0.0, 30.0, 0.0, 30.0]);
        indexed.select(&SelectionContext::new(&net, &q));
        assert_eq!(indexed.index_stats().rebuilds, 1);
        // Re-quantising a node moves its summary epoch.
        net.node_mut(NodeId(2)).quantize(2, 99);
        let ctx = SelectionContext::new(&net, &q);
        assert_bitwise_eq(&plain.select(&ctx), &indexed.select(&ctx));
        let stats = indexed.index_stats();
        assert_eq!((stats.rebuilds, stats.patches), (1, 1));
        // Unchanged network: nothing further.
        indexed.select(&ctx);
        let stats = indexed.index_stats();
        assert_eq!((stats.rebuilds, stats.patches), (1, 1));
        // Every node moved, more than the one domain: a rebuild.
        net.quantize_all(3, 7);
        let ctx = SelectionContext::new(&net, &q);
        assert_bitwise_eq(&plain.select(&ctx), &indexed.select(&ctx));
        let stats = indexed.index_stats();
        assert_eq!((stats.rebuilds, stats.patches), (2, 1));
    }

    /// One node re-quantises to a different K: the build is repaired,
    /// not replaced — same layout, only that node's domain block dropped
    /// — and the regathered block carries the node's new offsets, which
    /// the next select scores.
    #[test]
    fn a_requantise_to_a_new_k_patches_one_block_and_scores_the_new_offsets() {
        let mut net = network(40);
        let plain = QueryDriven {
            cap: SelectionCap::AllPositive,
            ..QueryDriven::top_l(40)
        };
        let indexed = IndexedQueryDriven::new(
            plain.clone(),
            GridConfig {
                domain_size: 4,
                cells_per_dim: 0,
            },
        );
        let snapshot = |indexed: &IndexedQueryDriven| {
            let state = indexed.state.lock().unwrap();
            Arc::clone(state.built.as_ref().unwrap())
        };
        // Covers every node, so every block is gathered.
        let everything = Query::from_boundary_vec(0, &[-10.0, 500.0, -10.0, 500.0]);
        indexed.select(&SelectionContext::new(&net, &everything));
        let before = snapshot(&indexed);
        assert!(before.clusters.iter().all(|c| c.get().is_some()));

        // Node 13's data lies on the diagonal of [156, 176]².
        let victim = 13;
        let k_before = net.node(NodeId(victim)).k();
        net.node_mut(NodeId(victim)).quantize(k_before + 2, 17);
        let k_after = net.node(NodeId(victim)).k();
        assert_ne!(k_after, k_before);
        let q = Query::from_boundary_vec(1, &[150.0, 180.0, 150.0, 180.0]);
        let ctx = SelectionContext::new(&net, &q);
        let sel = indexed.select(&ctx);
        assert_bitwise_eq(&plain.select(&ctx), &sel);
        let stats = indexed.index_stats();
        assert_eq!((stats.rebuilds, stats.patches), (1, 1));

        let after = snapshot(&indexed);
        // `before` was still held, so the patch cloned the build: the
        // layout is the same, and every block but the victim's is the
        // same allocation.
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.index.slot_ids(), before.index.slot_ids());
        let slot = after
            .index
            .slot_ids()
            .iter()
            .position(|&id| id as usize == victim)
            .unwrap();
        let domain = slot / after.index.domain_size();
        for (g, (old, new)) in before.clusters.iter().zip(&after.clusters).enumerate() {
            let shared = Arc::ptr_eq(old.get().unwrap(), new.get().unwrap());
            assert_eq!(shared, g != domain, "domain {g}");
        }
        let block = after.clusters[domain].get().unwrap();
        let i = slot % after.index.domain_size();
        assert_eq!((block.offsets[i + 1] - block.offsets[i]) as usize, k_after);
        // The ranking came off the regathered block: K' / K over the new K.
        let (want, _) = plain.score_node(net.node(NodeId(victim)), &q);
        let got = sel
            .participants
            .iter()
            .find(|p| p.node == NodeId(victim))
            .expect("the query selects the victim");
        assert_eq!(got.ranking.to_bits(), want.to_bits());
    }

    #[test]
    fn membership_growth_triggers_rebuild() {
        let mut net = network(5);
        let plain = QueryDriven::top_l(4);
        let indexed = IndexedQueryDriven::with_defaults(plain.clone());
        let q = Query::from_boundary_vec(0, &[0.0, 45.0, 0.0, 45.0]);
        indexed.select(&SelectionContext::new(&net, &q));
        let id = net.add_node("late", node_dataset(18.0), 1.0);
        net.node_mut(id).quantize(3, 5);
        let ctx = SelectionContext::new(&net, &q);
        assert_bitwise_eq(&plain.select(&ctx), &indexed.select(&ctx));
        assert_eq!(indexed.index_stats().rebuilds, 2);
    }

    #[test]
    fn nonpositive_epsilon_falls_back_to_scan() {
        let net = network(8);
        let plain = QueryDriven {
            epsilon: 0.0,
            cap: SelectionCap::TopL(4),
            rule: RankingRule::CountOnly,
        };
        let indexed = IndexedQueryDriven::with_defaults(plain.clone());
        // Distant query: with ε = 0 every cluster "supports" it at zero
        // overlap under CountOnly — pruning would drop real behaviour.
        let q = Query::from_boundary_vec(0, &[2000.0, 2010.0, 2000.0, 2010.0]);
        let ctx = SelectionContext::new(&net, &q);
        assert_bitwise_eq(&plain.select(&ctx), &indexed.select(&ctx));
        let stats = indexed.index_stats();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.rebuilds, 0, "fallback never builds the index");
    }

    #[test]
    fn cluster_blocks_are_gathered_only_for_domains_a_fused_select_verifies() {
        let net = network(40);
        let grid = GridConfig {
            domain_size: 4,
            cells_per_dim: 0,
        };
        let q = Query::from_boundary_vec(0, &[0.0, 30.0, 0.0, 30.0]);
        let gathered = |indexed: &IndexedQueryDriven| {
            let state = indexed.state.lock().unwrap();
            let built = state.built.as_ref().unwrap();
            built.clusters.iter().filter(|c| c.get().is_some()).count()
        };
        let indexed = IndexedQueryDriven::new(QueryDriven::top_l(3), grid);
        indexed.select(&SelectionContext::new(&net, &q));
        let after_one = gathered(&indexed);
        assert!(
            (1..10).contains(&after_one),
            "a narrow query gathers its own domains only, got {after_one}"
        );
        // The same query again gathers nothing.
        indexed.select(&SelectionContext::new(&net, &q));
        assert_eq!(gathered(&indexed), after_one);
    }

    #[test]
    fn concurrent_selects_share_one_build_and_agree_with_the_scan() {
        let net = network(40);
        let plain = QueryDriven::top_l(5);
        let indexed = IndexedQueryDriven::new(
            plain.clone(),
            GridConfig {
                domain_size: 4,
                cells_per_dim: 0,
            },
        );
        let pool = ThreadPool::new(2);
        // All four arrive at the unbuilt index together: one of them
        // builds it (and one the table), the rest wait and share it.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (net, plain, indexed, pool, start) = (&net, &plain, &indexed, &pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..25u64 {
                        let off = ((t * 25 + i) % 60) as f64 * 7.0;
                        let q = Query::from_boundary_vec(i, &[off, off + 20.0, off, off + 20.0]);
                        let ctx = SelectionContext::new(net, &q);
                        assert_bitwise_eq(
                            &plain.select_with_pool(&ctx, pool),
                            &indexed.select_with_pool(&ctx, pool),
                        );
                    }
                });
            }
        });
        let stats = indexed.index_stats();
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(stats.probes, 100);
    }

    #[test]
    fn name_does_not_fork_on_indexing() {
        let indexed = IndexedQueryDriven::with_defaults(QueryDriven::top_l(3));
        assert_eq!(indexed.name(), "query-driven");
    }
}

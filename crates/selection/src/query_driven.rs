//! The paper's query-driven node-selection mechanism (§III-C).

use edgesim::EdgeNode;
use geom::index::GridConfig;
use par::ThreadPool;

use crate::indexed::{DomainClusters, Index, IndexStats, Scored};
use crate::policy::{
    Participant, Ranked, Selection, SelectionContext, SelectionPolicy, SupportingCluster,
};

/// Nodes per pool task on the every-node source. Fixed (independent of
/// the worker count) so what each task produces does not depend on the
/// pool. Each task gathers its chunk's cluster block into fresh scratch,
/// which 64 nodes amortise: at 8 per task, the allocations made a 1M-node
/// select 20–40 % slower than scoring straight off the summaries.
const NODE_CHUNK: usize = 64;

/// How deep the standby reserve is under [`SelectionCap::TopL`]: a
/// `TopL(ℓ)` selection keeps the `RESERVE_PER_SLOT · ℓ` best-ranked
/// supporting nodes behind its cut as [`Selection::standby`], and
/// nothing below them. Two per slot covers every promotion the
/// committed fault figures make (`fig8_faults.csv` is the same as with
/// the whole tail), and bounding the tail is what lets the probed
/// source stop scoring once no domain left can reach the `3ℓ`-th best
/// ranking ([`crate::indexed`]).
pub const RESERVE_PER_SLOT: usize = 2;

/// How the ranked list is cut down to the participant set (Eq. 5 and the
/// top-ℓ alternative the paper describes alongside it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionCap {
    /// Keep the ℓ best-ranked nodes (with positive ranking).
    TopL(usize),
    /// Keep every node with `r_i >= ψ` (Eq. 5); `Threshold(0.0)` keeps
    /// every node with positive ranking.
    Threshold(f64),
}

impl SelectionCap {
    /// How many ranked entries a selection under this cap keeps,
    /// participants and standby together: `ℓ + RESERVE_PER_SLOT · ℓ`
    /// under `TopL(ℓ)`, and `None` — every supporting node — under
    /// `Threshold`, whose cut is not a count.
    pub(crate) fn kept(self) -> Option<usize> {
        match self {
            SelectionCap::TopL(l) => Some(l.saturating_mul(1 + RESERVE_PER_SLOT)),
            SelectionCap::Threshold(_) => None,
        }
    }
}

/// Ranking formula. [`RankingRule::PaperEq4`] is the contribution; the
/// other two are the ablations DESIGN.md calls out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingRule {
    /// `r_i = p_i · K'/K` (Eq. 4).
    PaperEq4,
    /// `r_i = p_i` — ignore the supporting-cluster fraction.
    PotentialOnly,
    /// `r_i = K'/K` — ignore the overlap magnitudes.
    CountOnly,
}

/// The query-driven policy.
///
/// Only the nodes' cluster summaries are consulted — the leader-side cost
/// is `O(N · K · d)` arithmetic and no data moves, matching the paper's
/// "negligible calculations and communication" claim. With a grid
/// ([`QueryDriven::indexed`]) and `ε > 0`, a spatial index drops the
/// nodes that cannot score before any of that arithmetic; the selection
/// is the same either way (see [`crate::indexed`]).
///
/// A clone starts with an unbuilt index, and equality compares ε, the
/// cap, the rule and the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDriven {
    /// Overlap threshold ε: clusters with `h_ik >= ε` support the query.
    pub epsilon: f64,
    /// How the ranked list becomes the participant set.
    pub cap: SelectionCap,
    /// Ranking formula (Eq. 4 unless running an ablation).
    pub rule: RankingRule,
    /// The probed-domain candidate source; `None` scores every node.
    pub(crate) index: Option<Index>,
}

impl QueryDriven {
    /// A policy scoring every node.
    pub fn new(epsilon: f64, cap: SelectionCap, rule: RankingRule) -> Self {
        Self {
            epsilon,
            cap,
            rule,
            index: None,
        }
    }

    /// The paper's configuration with a given ℓ: `ε = 0.05`, Eq. 4
    /// ranking, top-ℓ cut.
    pub fn top_l(l: usize) -> Self {
        Self::new(0.05, SelectionCap::TopL(l), RankingRule::PaperEq4)
    }

    /// Eq. 5 thresholding: all nodes with `r_i >= psi`.
    pub fn threshold(epsilon: f64, psi: f64) -> Self {
        Self::new(epsilon, SelectionCap::Threshold(psi), RankingRule::PaperEq4)
    }

    /// The same policy with spatial-index candidate generation under
    /// `grid`: while `ε > 0`, each select scores only the nodes whose
    /// summary hull meets the query on some axis. The index builds on
    /// first use and follows the fleet's summary epochs; one policy
    /// indexes one network.
    pub fn indexed(self, grid: GridConfig) -> Self {
        Self {
            index: Some(Index::new(grid)),
            ..self
        }
    }

    /// A snapshot of the index counters; all zero without a grid.
    pub fn index_stats(&self) -> IndexStats {
        self.index.as_ref().map(Index::stats).unwrap_or_default()
    }

    /// Scores one node: `(ranking, supporting clusters)`.
    ///
    /// The supporting clusters are returned highest-overlap first, which
    /// is also the order incremental training visits them.
    pub fn score_node(
        &self,
        node: &EdgeNode,
        query: &geom::Query,
    ) -> (f64, Vec<SupportingCluster>) {
        let mut supporting = Vec::new();
        let region = query.region().intervals();
        let overlaps = quantized_summaries(node)
            .iter()
            .map(|c| (c.cluster_id, c.size, geom::overlap_rate(region, c.bounds)));
        let ranking = self.rank_clusters(overlaps.len(), overlaps, &mut supporting);
        (ranking, supporting)
    }

    /// Eq. 3/4 over already-evaluated per-cluster overlaps
    /// `(cluster_id, size, h_ik)`: the ε filter, the overlap-descending
    /// sort, the potential sum (in sorted order) and the ranking rule.
    /// Leaves the supporting clusters in `supporting` (cleared first, so
    /// a kernel reuses one buffer across nodes) and returns the ranking;
    /// the node supports the query iff the ranking is positive, which
    /// under every rule needs at least one supporting cluster.
    ///
    /// The one Eq. 3/4 kernel: the scoring loop and
    /// [`QueryDriven::score_node`] both call it, so identical overlaps
    /// give bit-identical rankings and clusters.
    ///
    /// Non-finite overlaps are defensively skipped instead of reaching
    /// the `partial_cmp` sorts downstream — a poisoned summary must cost
    /// one cluster, not panic the whole selection. The scoring loop
    /// counts them (`qens_selection_nonfinite_scores_total`), once per
    /// scored cluster: re-scoring a node through
    /// [`QueryDriven::score_node`] for the cut or a promotion counts
    /// nothing again.
    pub(crate) fn rank_clusters(
        &self,
        k_total: usize,
        clusters: impl IntoIterator<Item = (usize, usize, f64)>,
        supporting: &mut Vec<SupportingCluster>,
    ) -> f64 {
        supporting.clear();
        supporting.extend(clusters.into_iter().filter_map(|(cluster_id, size, h)| {
            (h.is_finite() && h >= self.epsilon).then_some(SupportingCluster {
                cluster_id,
                overlap: h,
                size,
            })
        }));
        supporting.sort_by(|a, b| {
            b.overlap
                .partial_cmp(&a.overlap)
                .expect("overlaps are finite")
        });
        let potential: f64 = supporting.iter().map(|c| c.overlap).sum(); // Eq. 3
        let fraction = if k_total == 0 {
            0.0
        } else {
            supporting.len() as f64 / k_total as f64
        };
        match self.rule {
            RankingRule::PaperEq4 => potential * fraction,
            RankingRule::PotentialOnly => potential,
            RankingRule::CountOnly => fraction,
        }
    }

    /// [`SelectionPolicy::select`] on an explicit pool handle: one of
    /// two candidate sources ([`crate::indexed`]) feeds fixed chunks of
    /// nodes, or of the surviving domains whose rank bound can make the
    /// cut, through one scoring loop, and [`QueryDriven::rank_and_cap`]
    /// cuts and sorts — the same selection and counter totals for any
    /// worker count.
    pub fn select_with_pool(&self, ctx: &SelectionContext<'_>, pool: &ThreadPool) -> Selection {
        let nodes = ctx.network.nodes();
        // Leader-side deterministic span: the ranked list is
        // bit-identical for any pool, so this span (and the `ranked`
        // instant in rank_and_cap) may record on the logical clock.
        let _span = telemetry::span("selection.select", &[("nodes", nodes.len() as u64)]);
        let region = ctx.query.region();
        let dims = ctx.query.dim();
        // With ε <= 0 a cluster the index prunes still passes `h >= ε`,
        // so only the every-node source is exact.
        let tasks: Vec<Scored> = match self.index.as_ref().filter(|_| self.epsilon > 0.0) {
            // Probed domains, best rank bound first, scored only while
            // one can still make the kept entries.
            Some(index) => {
                let built = index.current(ctx.network, dims);
                let probe = built.index.probe(region);
                let tasks = built.score_probe(self, &probe, nodes, region, pool);
                index.record_probe(&probe, tasks.iter().map(|t| t.candidates).sum());
                tasks
            }
            // Every node: each chunk's block is gathered into the task's
            // own scratch and dropped with it.
            None => pool.map_chunks(nodes.len(), NODE_CHUNK, |chunk| {
                let ids: Vec<u32> = chunk
                    .map(|id| u32::try_from(id).expect("node ids fit 32 bits"))
                    .collect();
                let block = DomainClusters::gather(&ids, nodes, dims);
                let mut task = Scored::default();
                block.score(self, &ids, 0..ids.len(), nodes, region, &mut task);
                task
            }),
        };
        let ranked: Vec<Vec<Ranked>> = tasks.into_iter().map(Scored::finish).collect();
        self.rank_and_cap(ctx, ranked.concat())
    }

    /// The leader-serial ranking phase: takes the supporting nodes'
    /// `(node, r_i)` entries (in whatever order the sources scored them),
    /// keeps the best [`SelectionCap::kept`] of them best-ranked first,
    /// applies the cap and builds a [`Participant`] — supporting clusters
    /// and all, through [`QueryDriven::score_node`] — for the entries
    /// above the cut only. Under `TopL(ℓ)` the rest is the
    /// `RESERVE_PER_SLOT · ℓ`-deep standby reserve; under the other caps
    /// it is every supporting node below the cut.
    ///
    /// The sort key is total: the scoring loop only lets strictly
    /// positive rankings through (so `total_cmp` orders them exactly as
    /// `partial_cmp` would, with no NaN case to panic on) and node ids
    /// are unique, so no two entries compare equal and the result does
    /// not depend on the input order — which is why unstable selection
    /// and sorting are enough, why neither source need score in
    /// ascending node id, and why the probed source may skip any node
    /// that cannot reach the kept entries.
    fn rank_and_cap(&self, ctx: &SelectionContext<'_>, mut ranked: Vec<Ranked>) -> Selection {
        // Ranking phase (select + sort + cap split) — leader-serial, so
        // the span may record on the logical clock and the profiler can
        // separate scoring time from ranking time.
        let rank_span = telemetry::span("selection.rank", &[("scored", ranked.len() as u64)]);
        // Best-ranked first; node id breaks ties deterministically.
        let order =
            |a: &Ranked, b: &Ranked| b.ranking.total_cmp(&a.ranking).then(a.node.cmp(&b.node));
        if let Some(kept) = self.cap.kept().filter(|&kept| kept < ranked.len()) {
            ranked.select_nth_unstable_by(kept, order);
            ranked.truncate(kept);
        }
        ranked.sort_unstable_by(order);
        // The cap splits the kept list into participants and the
        // standby tail. The tail keeps the ranking order, so a
        // fault-tolerant federation promoting standby[0], standby[1], …
        // follows exactly the ranking the paper's Eq. 4 produced.
        let cut = match self.cap {
            SelectionCap::TopL(l) => l.min(ranked.len()),
            SelectionCap::Threshold(psi) => ranked.partition_point(|r| r.ranking >= psi),
        };
        let participants: Vec<Participant> =
            ranked.drain(..cut).map(|r| self.promote(ctx, &r)).collect();
        let standby = ranked;
        rank_span.finish();
        // Rankings live in [0, K]; record micro-units so the log-scale
        // buckets resolve the sub-1.0 mass the paper's Eq. 4 produces.
        let rank_hist = telemetry::histogram!("qens_selection_rank_micros");
        for p in &participants {
            rank_hist.record((p.ranking * 1e6) as u64);
        }
        telemetry::trace::instant(
            "selection.ranked",
            &[
                ("participants", participants.len() as u64),
                ("standby", standby.len() as u64),
            ],
        );
        Selection {
            participants,
            standby,
        }
    }
}

impl SelectionPolicy for QueryDriven {
    fn name(&self) -> &'static str {
        match self.rule {
            RankingRule::PaperEq4 => "query-driven",
            RankingRule::PotentialOnly => "query-driven (potential-only)",
            RankingRule::CountOnly => "query-driven (count-only)",
        }
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        self.select_with_pool(ctx, par::global())
    }

    /// Re-scores the node with [`QueryDriven::score_node`]: the same
    /// arithmetic on the same summaries, so the clusters are exactly the
    /// ones the node would have carried above the cut.
    fn promote(&self, ctx: &SelectionContext<'_>, standby: &Ranked) -> Participant {
        let (ranking, supporting_clusters) =
            self.score_node(ctx.network.node(standby.node), ctx.query);
        debug_assert_eq!(
            ranking.to_bits(),
            standby.ranking.to_bits(),
            "node {} re-scored to a different ranking",
            standby.node
        );
        Participant {
            node: standby.node,
            ranking: standby.ranking,
            supporting_clusters,
        }
    }
}

/// The node's cluster summaries, after checking it has any.
pub(crate) fn quantized_summaries(node: &EdgeNode) -> &cluster::SummaryTable {
    // The quantisation check must run *before* any summary access: if
    // it came second, a summaries() implementation that itself panics on
    // an unquantized node would mask the friendly "call quantize_all
    // first" guidance below.
    assert!(
        node.is_quantized(),
        "node {} has no cluster summaries; call EdgeNetwork::quantize_all first",
        node.id()
    );
    node.summaries()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fixtures::{assert_oracle, node_dataset};
    use edgesim::{EdgeNetwork, NodeId};
    use geom::Query;

    fn network() -> EdgeNetwork {
        let mut net = EdgeNetwork::from_datasets(vec![
            ("near".into(), node_dataset(0.0)),  // joint space ~[0,20]^2
            ("mid".into(), node_dataset(10.0)),  // ~[10,30]^2
            ("far".into(), node_dataset(100.0)), // ~[100,120]^2
        ]);
        net.quantize_all(3, 5);
        net
    }

    #[test]
    fn ranks_overlapping_nodes_above_distant_ones() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 15.0, 0.0, 15.0]);
        let sel = QueryDriven::top_l(3).select(&SelectionContext::new(&net, &query));
        assert!(!sel.is_empty());
        assert_eq!(
            sel.participants[0].node,
            NodeId(0),
            "nearest node must rank first"
        );
        // The far node cannot appear: zero overlap on every cluster.
        assert!(sel.participants.iter().all(|p| p.node != NodeId(2)));
        // Rankings are sorted descending.
        for w in sel.participants.windows(2) {
            assert!(w[0].ranking >= w[1].ranking);
        }
    }

    #[test]
    fn top_l_caps_the_participant_count() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 30.0, 0.0, 30.0]);
        let sel = QueryDriven::top_l(1).select(&SelectionContext::new(&net, &query));
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn top_l_keeps_the_trimmed_tail_as_ranked_standby() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 30.0, 0.0, 30.0]);
        let ctx = SelectionContext::new(&net, &query);
        let all = QueryDriven {
            cap: SelectionCap::Threshold(0.0),
            ..QueryDriven::top_l(3)
        }
        .select(&ctx);
        assert!(all.standby.is_empty(), "Threshold(0.0) trims nothing");
        let capped_policy = QueryDriven::top_l(1);
        let capped = capped_policy.select(&ctx);
        // participants ++ promoted standby reproduces the uncapped
        // ranked list, clusters and all.
        let mut rejoined = capped.participants.clone();
        rejoined.extend(
            capped
                .standby
                .iter()
                .map(|r| capped_policy.promote(&ctx, r)),
        );
        assert_eq!(rejoined, all.participants);
        // Standby stays ranking-sorted and below the selected cohort.
        for w in capped.standby.windows(2) {
            assert!(w[0].ranking >= w[1].ranking);
        }
        if let (Some(last_in), Some(first_out)) =
            (capped.participants.last(), capped.standby.first())
        {
            assert!(last_in.ranking >= first_out.ranking);
        }
        // Oversized l: everything selected, empty tail, no panic.
        let all_in = QueryDriven::top_l(64).select(&ctx);
        assert!(all_in.standby.is_empty());
    }

    #[test]
    fn threshold_cap_tail_holds_below_psi_positives() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 22.0, 0.0, 22.0]);
        let ctx = SelectionContext::new(&net, &query);
        let all = QueryDriven::new(0.05, SelectionCap::Threshold(0.0), RankingRule::PaperEq4)
            .select(&ctx);
        assert!(all.len() >= 2);
        let psi = all.participants[0].ranking * 0.99;
        let sel = QueryDriven::threshold(0.05, psi).select(&ctx);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel.standby.len(), all.len() - 1);
        for p in &sel.standby {
            assert!(p.ranking < psi && p.ranking > 0.0);
        }
    }

    #[test]
    fn supporting_clusters_respect_epsilon_and_ordering() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 10.0, 0.0, 10.0]);
        let policy = QueryDriven {
            epsilon: 0.2,
            ..QueryDriven::top_l(3)
        };
        let sel = policy.select(&SelectionContext::new(&net, &query));
        for p in &sel.participants {
            assert!(!p.supporting_clusters.is_empty());
            for c in &p.supporting_clusters {
                assert!(c.overlap >= 0.2);
            }
            for w in p.supporting_clusters.windows(2) {
                assert!(w[0].overlap >= w[1].overlap);
            }
        }
    }

    #[test]
    fn disjoint_query_selects_nothing() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[1000.0, 1100.0, 1000.0, 1100.0]);
        let sel = QueryDriven::top_l(3).select(&SelectionContext::new(&net, &query));
        assert!(sel.is_empty());
    }

    #[test]
    fn eq4_ranking_multiplies_potential_by_fraction() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 15.0, 0.0, 15.0]);
        let ctx = SelectionContext::new(&net, &query);
        // The oracle spells each rule out: Eq. 4's `p_i · K'/K` and the
        // ablations' `p_i` and `K'/K`.
        for rule in [
            RankingRule::PaperEq4,
            RankingRule::PotentialOnly,
            RankingRule::CountOnly,
        ] {
            let policy = QueryDriven::new(0.05, SelectionCap::Threshold(0.0), rule);
            assert_oracle(&policy, &ctx, &policy.select(&ctx));
        }
    }

    #[test]
    fn full_cover_query_gives_full_fraction() {
        let net = network();
        // A query covering everything: every cluster supports it. A wide
        // query makes each per-cluster overlap small (cluster-inside-query
        // Jaccard), so ε must be below cluster_span / query_span here.
        let query = Query::from_boundary_vec(0, &[-10.0, 130.0, -10.0, 130.0]);
        let policy = QueryDriven {
            epsilon: 0.01,
            ..QueryDriven::top_l(3)
        };
        let sel = policy.select(&SelectionContext::new(&net, &query));
        assert_eq!(sel.len(), 3);
        for p in &sel.participants {
            assert_eq!(p.supporting_clusters.len(), net.node(p.node).k());
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 25.0, 0.0, 25.0]);
        let a = QueryDriven::top_l(2).select(&SelectionContext::new(&net, &query));
        let b = QueryDriven::top_l(2).select(&SelectionContext::new(&net, &query));
        assert_eq!(a, b);
    }

    #[test]
    fn selection_is_bit_identical_across_pool_sizes() {
        // More nodes than NODE_CHUNK so the pooled path really fans out.
        let mut datasets = Vec::new();
        for i in 0..150 {
            datasets.push((format!("n{i}"), node_dataset(i as f64 * 1.5)));
        }
        let mut net = EdgeNetwork::from_datasets(datasets);
        net.quantize_all(3, 5);
        let query = Query::from_boundary_vec(0, &[0.0, 30.0, 0.0, 30.0]);
        let policy = QueryDriven::new(0.05, SelectionCap::Threshold(0.0), RankingRule::PaperEq4);
        let ctx = SelectionContext::new(&net, &query);
        let serial = policy.select_with_pool(&ctx, &par::ThreadPool::new(1));
        assert!(serial.len() >= 2, "query must rank several nodes");
        for threads in [2, 4, 9] {
            let pooled = policy.select_with_pool(&ctx, &par::ThreadPool::new(threads));
            assert_eq!(serial, pooled, "selection diverged at {threads} threads");
        }
    }

    /// Regression (scoring an unquantized node): the `is_quantized`
    /// check must run before any summary access so the caller always
    /// gets the actionable "call quantize_all first" message.
    #[test]
    #[should_panic(expected = "call EdgeNetwork::quantize_all first")]
    fn unquantized_node_scoring_panics_with_guidance() {
        // No quantize_all: the node has no summaries.
        let net = EdgeNetwork::from_datasets(vec![("raw".into(), node_dataset(0.0))]);
        let query = Query::from_boundary_vec(0, &[0.0, 15.0, 0.0, 15.0]);
        QueryDriven::top_l(1).score_node(&net.nodes()[0], &query);
    }

    #[test]
    #[should_panic(expected = "query dim")]
    fn wrong_query_dim_rejected() {
        let net = network();
        let query = Query::from_boundary_vec(0, &[0.0, 1.0]);
        SelectionContext::new(&net, &query);
    }
}

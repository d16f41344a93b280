//! The policy abstraction shared by all selection mechanisms.

use edgesim::{EdgeNetwork, NodeId};
use geom::Query;

/// Everything a policy may look at when selecting participants.
///
/// The query-driven policy only reads the nodes' *summaries* (the
/// leader-visible state); the game-theory baseline additionally evaluates
/// a probe model against node data, which in the real deployment happens
/// on the nodes themselves — the context hands both out and each policy
/// documents what it touches.
pub struct SelectionContext<'a> {
    /// The participant population.
    pub network: &'a EdgeNetwork,
    /// The incoming analytics query (in the nodes' joint space).
    pub query: &'a Query,
}

impl<'a> SelectionContext<'a> {
    /// Creates a context, validating that the query lives in the nodes'
    /// joint space.
    ///
    /// # Panics
    /// Panics if the query dimensionality differs from the network's
    /// joint dimensionality.
    pub fn new(network: &'a EdgeNetwork, query: &'a Query) -> Self {
        let joint = network.nodes()[0].joint_dim();
        assert_eq!(
            query.dim(),
            joint,
            "query dim {} != joint data dim {joint}",
            query.dim()
        );
        Self { network, query }
    }
}

/// A cluster that supports the query on some node (`h_ik >= ε`).
#[derive(Debug, Clone, PartialEq)]
pub struct SupportingCluster {
    /// Cluster id within the node.
    pub cluster_id: usize,
    /// The data-overlap rate `h_ik` (Eq. 2).
    pub overlap: f64,
    /// Member count (data-volume accounting).
    pub size: usize,
}

/// One selected participant.
#[derive(Debug, Clone, PartialEq)]
pub struct Participant {
    /// The node.
    pub node: NodeId,
    /// The ranking `r_i` used for weighted averaging (Eq. 7); baselines
    /// that have no ranking report 1.0 (uniform weights).
    pub ranking: f64,
    /// The supporting clusters the node should train over, in the order
    /// training visits them. Empty means "train on the whole local
    /// dataset" (the baselines' behaviour).
    pub supporting_clusters: Vec<SupportingCluster>,
}

impl Participant {
    /// Samples this participant will train on.
    pub fn training_samples(&self, network: &EdgeNetwork) -> usize {
        if self.supporting_clusters.is_empty() {
            network.node(self.node).len()
        } else {
            self.supporting_clusters.iter().map(|c| c.size).sum()
        }
    }
}

/// A node that supports the query, as the leader ranks it: its id and
/// its ranking `r_i`, without the supporting clusters. The leader ranks
/// and cuts on these scalars and builds a [`Participant`] only for a
/// node that trains — selected, or promoted from
/// [`Selection::standby`] by [`SelectionPolicy::promote`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranked {
    /// The node.
    pub node: NodeId,
    /// Its ranking `r_i` (Eq. 4).
    pub ranking: f64,
}

/// The outcome of a selection round, ordered best-ranked first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Selection {
    /// Selected participants (possibly empty when nothing overlaps the
    /// query).
    pub participants: Vec<Participant>,
    /// The ranked reserve *behind* the participant cut, best-ranked
    /// first: nodes that supported the query but were trimmed by the
    /// cap, as `(node, r_i)` only. Under [`SelectionCap::TopL`]`(ℓ)` it
    /// holds the next [`RESERVE_PER_SLOT`]` · ℓ` nodes of the ranking and
    /// no more; under `Threshold` every supporting
    /// node below the cut. Fault-tolerant federations promote from this
    /// list, in order, when selected participants fail, and
    /// [`SelectionPolicy::promote`] gives a promoted node its supporting
    /// clusters; a round that needs more promotions than it holds loses
    /// its quorum. Baselines without a ranking leave it empty — they
    /// have no principled replacement order.
    ///
    /// [`SelectionCap::TopL`]: crate::SelectionCap::TopL
    /// [`RESERVE_PER_SLOT`]: crate::RESERVE_PER_SLOT
    pub standby: Vec<Ranked>,
}

impl Selection {
    /// Number of participants ℓ.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// True when no node was selected.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// The ranking-proportional aggregation weights λ_i of Eq. 7
    /// (uniform when every ranking is equal, e.g. for the baselines).
    pub fn lambda_weights(&self) -> Vec<f64> {
        let total: f64 = self.participants.iter().map(|p| p.ranking).sum();
        if total <= 0.0 {
            let n = self.participants.len().max(1);
            return vec![1.0 / n as f64; self.participants.len()];
        }
        self.participants
            .iter()
            .map(|p| p.ranking / total)
            .collect()
    }
}

/// Work a policy performs *before* training can start.
///
/// The query-driven mechanism costs the leader a handful of arithmetic
/// operations over summaries (no entry here); the game-theory baseline
/// trains and ships a probe model first, which the paper identifies as
/// "the slowest" mechanism — this struct is how that cost reaches the
/// Fig. 8 accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionOverhead {
    /// Extra sample-visits per node: `(node, visits)`.
    pub per_node_visits: Vec<(NodeId, usize)>,
    /// Extra bytes on the wire (probe model broadcasts, reports, ...).
    pub bytes: usize,
}

/// A node-selection mechanism. `Send + Sync` so one built policy (and
/// its memo) can answer queries on several threads at once, as the
/// server's connection threads do.
pub trait SelectionPolicy: Send + Sync {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// Selects participants for a query.
    fn select(&self, ctx: &SelectionContext<'_>) -> Selection;

    /// The participant a standby entry of this policy's selection for
    /// `ctx` becomes when a round promotes it: the same node and ranking,
    /// with the supporting clusters it would have carried had it made the
    /// cut. Defaults to no clusters — train on the whole local dataset,
    /// the baselines' behaviour.
    fn promote(&self, _ctx: &SelectionContext<'_>, standby: &Ranked) -> Participant {
        Participant {
            node: standby.node,
            ranking: standby.ranking,
            supporting_clusters: Vec::new(),
        }
    }

    /// Pre-selection work the mechanism performs (see
    /// [`SelectionOverhead`]). Defaults to none.
    fn overhead(&self, _ctx: &SelectionContext<'_>) -> SelectionOverhead {
        SelectionOverhead::default()
    }

    /// Memo counters, for policies behind a selection memo
    /// ([`crate::cache::CachedQueryDriven`]). `None` — the default — for
    /// the rest; the federation stream surfaces a snapshot in its
    /// result when present.
    fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        None
    }
}

/// Wrapper that keeps the inner policy's *node* choices but drops the
/// per-cluster data selectivity, so every participant trains on its whole
/// local dataset.
///
/// This is the "without considering the incoming queries" arm of Figs. 8
/// and 9: identical participants, identical aggregation weights, but no
/// query-driven data selection inside each node.
#[derive(Debug, Clone)]
pub struct WithoutSelectivity<P>(pub P);

impl<P: SelectionPolicy> SelectionPolicy for WithoutSelectivity<P> {
    fn name(&self) -> &'static str {
        "without-selectivity"
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        let mut sel = self.0.select(ctx);
        for p in &mut sel.participants {
            p.supporting_clusters.clear();
        }
        sel
    }

    fn promote(&self, ctx: &SelectionContext<'_>, standby: &Ranked) -> Participant {
        let mut p = self.0.promote(ctx, standby);
        p.supporting_clusters.clear();
        p
    }

    fn overhead(&self, ctx: &SelectionContext<'_>) -> SelectionOverhead {
        self.0.overhead(ctx)
    }

    fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.0.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn participant(node: usize, ranking: f64, clusters: &[(usize, f64, usize)]) -> Participant {
        Participant {
            node: NodeId(node),
            ranking,
            supporting_clusters: clusters
                .iter()
                .map(|&(cluster_id, overlap, size)| SupportingCluster {
                    cluster_id,
                    overlap,
                    size,
                })
                .collect(),
        }
    }

    #[test]
    fn lambda_weights_are_ranking_proportional_and_normalised() {
        let sel = Selection {
            participants: vec![participant(0, 3.0, &[]), participant(1, 1.0, &[])],
            standby: Vec::new(),
        };
        let w = sel.lambda_weights();
        assert!((w[0] - 0.75).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rankings_fall_back_to_uniform() {
        let sel = Selection {
            participants: vec![participant(0, 0.0, &[]), participant(1, 0.0, &[])],
            standby: Vec::new(),
        };
        assert_eq!(sel.lambda_weights(), vec![0.5, 0.5]);
        assert!(Selection::default().lambda_weights().is_empty());
    }

    #[test]
    fn without_selectivity_promotes_onto_the_whole_dataset() {
        let dataset = |x0: f64| {
            let xs: Vec<f64> = (0..60).map(|i| x0 + i as f64 / 3.0).collect();
            let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            mlkit::DenseDataset::new(linalg::Matrix::from_rows(&rows), xs)
        };
        let mut net = edgesim::EdgeNetwork::from_datasets(vec![
            ("a".into(), dataset(0.0)),
            ("b".into(), dataset(5.0)),
            ("c".into(), dataset(10.0)),
        ]);
        net.quantize_all(3, 5);
        let query = geom::Query::from_boundary_vec(0, &[0.0, 30.0, 0.0, 30.0]);
        let ctx = SelectionContext::new(&net, &query);
        let inner = crate::QueryDriven::top_l(1);
        let bare = WithoutSelectivity(inner.clone());
        let sel = bare.select(&ctx);
        assert_eq!(sel.standby, inner.select(&ctx).standby);
        assert!(!sel.standby.is_empty());
        for r in &sel.standby {
            let promoted = bare.promote(&ctx, r);
            assert_eq!((promoted.node, promoted.ranking), (r.node, r.ranking));
            assert!(promoted.supporting_clusters.is_empty());
            assert!(!inner.promote(&ctx, r).supporting_clusters.is_empty());
        }
    }

    #[test]
    fn supporting_cluster_samples_are_summed() {
        let p = participant(0, 1.0, &[(0, 0.5, 10), (2, 0.9, 25)]);
        // training_samples needs a network only for the empty case; build
        // a minimal one to exercise both paths.
        let data = mlkit::DenseDataset::new(
            linalg::Matrix::from_rows(&(0..7).map(|i| vec![i as f64]).collect::<Vec<_>>()),
            (0..7).map(|i| i as f64).collect(),
        );
        let net = edgesim::EdgeNetwork::from_datasets(vec![("x".into(), data)]);
        assert_eq!(p.training_samples(&net), 35);
        let full = participant(0, 1.0, &[]);
        assert_eq!(full.training_samples(&net), 7);
    }
}

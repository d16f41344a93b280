//! Further selection mechanisms from the paper's related-work survey
//! (§II): data-centric scoring and fairness-aware stochastic selection.
//!
//! These are not in the paper's own evaluation (which compares against
//! Random \[6\] and GameTheory \[7\]) but §II discusses them as the
//! state of the art; implementing them makes the comparison suite
//! complete and gives the extended benches more baselines.

use std::sync::Mutex;

use linalg::rng::Rng;
use linalg::{rng as lrng, stats};

use crate::policy::{Participant, Selection, SelectionContext, SelectionPolicy};

/// Data-centric client selection in the style of Saha et al. \[8\]: each
/// node gets a composite score from a *data quality* term (sample count
/// and label diversity), a *computation* term (capacity `c_k`) and a
/// *communication* term (inverse transfer cost); the top-ℓ scores are
/// selected. Nothing about the query enters the score — that is exactly
/// the gap the paper's mechanism fills.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCentric {
    /// Number of nodes to select.
    pub l: usize,
    /// Weight of the data-quality term.
    pub w_data: f64,
    /// Weight of the computation term.
    pub w_compute: f64,
    /// Weight of the communication term.
    pub w_comm: f64,
}

impl DataCentric {
    /// The usual equal-weights configuration.
    pub fn equal_weights(l: usize) -> Self {
        Self {
            l,
            w_data: 1.0 / 3.0,
            w_compute: 1.0 / 3.0,
            w_comm: 1.0 / 3.0,
        }
    }

    /// Per-node composite scores, indexed by node position.
    pub fn scores(&self, ctx: &SelectionContext<'_>) -> Vec<f64> {
        let nodes = ctx.network.nodes();
        // Raw terms.
        let data_q: Vec<f64> = nodes
            .iter()
            .map(|n| n.len() as f64 * (1.0 + stats::std_dev(n.data().y()).ln_1p()))
            .collect();
        let compute: Vec<f64> = nodes.iter().map(|n| n.capacity()).collect();
        let comm: Vec<f64> = nodes
            .iter()
            .map(|n| 1.0 / n.link().transfer_seconds(1024).max(1e-9))
            .collect();
        let norm = |xs: &[f64]| -> Vec<f64> {
            let max = xs.iter().cloned().fold(0.0_f64, f64::max).max(1e-12);
            xs.iter().map(|x| x / max).collect()
        };
        let (dq, cp, cm) = (norm(&data_q), norm(&compute), norm(&comm));
        (0..nodes.len())
            .map(|i| self.w_data * dq[i] + self.w_compute * cp[i] + self.w_comm * cm[i])
            .collect()
    }
}

impl SelectionPolicy for DataCentric {
    fn name(&self) -> &'static str {
        "data-centric"
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        let scores = self.scores(ctx);
        let mut order: Vec<usize> = (0..ctx.network.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .expect("scores are finite")
                .then(a.cmp(&b))
        });
        order.truncate(self.l.min(order.len()));
        Selection {
            participants: order
                .into_iter()
                .map(|i| Participant {
                    node: ctx.network.nodes()[i].id(),
                    ranking: scores[i].max(1e-12),
                    supporting_clusters: Vec::new(),
                })
                .collect(),
            standby: Vec::new(),
        }
    }
}

/// Fairness-aware stochastic selection in the style of Huang et al.
/// \[12\]: every node keeps a draw weight inversely related to how often
/// it has already been selected, so participation evens out over the
/// query stream. The per-query draw is deterministic in
/// `(seed, query id)`; the selection history lives behind a mutex so the
/// policy object can be shared across a stream run.
#[derive(Debug)]
pub struct FairStochastic {
    /// Number of nodes to draw per query.
    pub l: usize,
    /// Draw seed.
    pub seed: u64,
    /// Times each node has been selected so far (lazily sized).
    history: Mutex<Vec<u64>>,
}

impl FairStochastic {
    /// A fresh policy with empty history.
    pub fn new(l: usize, seed: u64) -> Self {
        Self {
            l,
            seed,
            history: Mutex::new(Vec::new()),
        }
    }

    /// How often each node has been selected so far.
    pub fn selection_counts(&self) -> Vec<u64> {
        self.history.lock().unwrap().clone()
    }
}

impl SelectionPolicy for FairStochastic {
    fn name(&self) -> &'static str {
        "fair-stochastic"
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        let n = ctx.network.len();
        let mut history = self.history.lock().unwrap();
        if history.len() != n {
            *history = vec![0; n];
        }
        // Weight ∝ 1 / (1 + times-selected): a weighted draw without
        // replacement via repeated roulette selection.
        let mut rng = lrng::rng_for(self.seed, ctx.query.id() ^ 0xFA1);
        let mut weights: Vec<f64> = history.iter().map(|&c| 1.0 / (1.0 + c as f64)).collect();
        let mut chosen: Vec<usize> = Vec::with_capacity(self.l.min(n));
        for _ in 0..self.l.min(n) {
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                break;
            }
            let mut target = rng.gen::<f64>() * total;
            let mut pick = weights.len() - 1;
            for (i, &w) in weights.iter().enumerate() {
                target -= w;
                if target <= 0.0 && w > 0.0 {
                    pick = i;
                    break;
                }
            }
            chosen.push(pick);
            weights[pick] = 0.0;
        }
        chosen.sort_unstable();
        for &i in &chosen {
            history[i] += 1;
        }
        Selection {
            participants: chosen
                .into_iter()
                .map(|i| Participant {
                    node: ctx.network.nodes()[i].id(),
                    ranking: 1.0,
                    supporting_clusters: Vec::new(),
                })
                .collect(),
            standby: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::EdgeNetwork;
    use geom::Query;
    use linalg::Matrix;
    use mlkit::DenseDataset;

    fn dataset(n: usize, spread: f64) -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| spread * i as f64).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    fn network() -> EdgeNetwork {
        EdgeNetwork::from_datasets(vec![
            ("big-diverse".into(), dataset(200, 3.0)),
            ("small".into(), dataset(20, 3.0)),
            ("big-flat".into(), dataset(200, 0.0)),
            ("medium".into(), dataset(80, 2.0)),
        ])
    }

    fn any_query() -> Query {
        Query::from_boundary_vec(0, &[0.0, 10.0, 0.0, 10.0])
    }

    #[test]
    fn data_centric_prefers_large_diverse_nodes() {
        let net = network();
        let q = any_query();
        let ctx = SelectionContext::new(&net, &q);
        let pol = DataCentric::equal_weights(2);
        let scores = pol.scores(&ctx);
        assert!(
            scores[0] > scores[1],
            "large node must outscore small: {scores:?}"
        );
        assert!(
            scores[0] > scores[2],
            "diverse labels must outscore flat: {scores:?}"
        );
        let sel = pol.select(&ctx);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.participants[0].node.0, 0);
    }

    #[test]
    fn data_centric_is_query_blind() {
        let net = network();
        let q1 = any_query();
        let q2 = Query::from_boundary_vec(9, &[500.0, 600.0, 500.0, 600.0]);
        let pol = DataCentric::equal_weights(2);
        let a = pol.select(&SelectionContext::new(&net, &q1));
        let b = pol.select(&SelectionContext::new(&net, &q2));
        let ids = |s: &Selection| s.participants.iter().map(|p| p.node.0).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b), "data-centric must ignore the query");
    }

    #[test]
    fn fair_stochastic_evens_out_participation() {
        let net = network();
        let pol = FairStochastic::new(1, 12);
        for qid in 0..40u64 {
            let q = Query::from_boundary_vec(qid, &[0.0, 10.0, 0.0, 10.0]);
            let sel = pol.select(&SelectionContext::new(&net, &q));
            assert_eq!(sel.len(), 1);
        }
        let counts = pol.selection_counts();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 2, "fairness violated: {counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), 40);
    }

    #[test]
    fn fair_stochastic_never_duplicates_within_a_query() {
        let net = network();
        let pol = FairStochastic::new(3, 3);
        let q = any_query();
        let sel = pol.select(&SelectionContext::new(&net, &q));
        let mut ids: Vec<usize> = sel.participants.iter().map(|p| p.node.0).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert_eq!(before, 3);
    }

    #[test]
    fn fair_stochastic_l_clamped_to_population() {
        let net = network();
        let pol = FairStochastic::new(10, 3);
        let sel = pol.select(&SelectionContext::new(&net, &any_query()));
        assert_eq!(sel.len(), 4);
    }
}

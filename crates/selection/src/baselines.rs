//! The selection mechanisms the paper compares against (§V-C).

use linalg::rng as lrng;
use linalg::rng::SliceRandom;
use mlkit::{Model, ModelKind, Regressor, TrainConfig};

use crate::policy::{Participant, Selection, SelectionContext, SelectionOverhead, SelectionPolicy};

/// Random selection (Ye et al. \[6\]): ℓ nodes uniformly at random, each
/// training on its whole local dataset.
///
/// The draw is deterministic in `(seed, query id)` so repeated runs of a
/// workload reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSelection {
    /// Number of nodes to draw.
    pub l: usize,
    /// Base seed (mixed with the query id per draw).
    pub seed: u64,
}

impl SelectionPolicy for RandomSelection {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        let mut ids: Vec<usize> = (0..ctx.network.len()).collect();
        let mut rng = lrng::rng_for(self.seed, ctx.query.id());
        ids.shuffle(&mut rng);
        ids.truncate(self.l.min(ctx.network.len()));
        ids.sort_unstable(); // deterministic participant order
        Selection {
            participants: ids
                .into_iter()
                .map(|i| Participant {
                    node: ctx.network.nodes()[i].id(),
                    ranking: 1.0,
                    supporting_clusters: Vec::new(),
                })
                .collect(),
            // Random selection has no ranking, hence no principled
            // replacement order: no standby tail.
            standby: Vec::new(),
        }
    }
}

/// All-node selection: every node participates with all its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllNodes;

impl SelectionPolicy for AllNodes {
    fn name(&self) -> &'static str {
        "all-nodes"
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        Selection {
            participants: ctx
                .network
                .nodes()
                .iter()
                .map(|n| Participant {
                    node: n.id(),
                    ranking: 1.0,
                    supporting_clusters: Vec::new(),
                })
                .collect(),
            // Everyone already participates; nothing is left to promote.
            standby: Vec::new(),
        }
    }
}

/// Game-theory selection (Hammoud et al. \[7\]).
///
/// The leader (node index `leader`) first trains an independent local
/// model on its own data; every other node then evaluates that model
/// against its local data and reports the loss. The leader selects the ℓ
/// nodes where the model performed *worst* — i.e. whose data differs most
/// from what the model has already seen — to make the global model more
/// general. This is the "needs a training round before selecting" cost
/// the paper criticises (it shows up in the Fig. 8 timing).
#[derive(Debug, Clone, PartialEq)]
pub struct GameTheory {
    /// Index of the leader node in the network.
    pub leader: usize,
    /// Number of nodes to select.
    pub l: usize,
    /// Architecture of the probe model.
    pub probe_model: ModelKind,
    /// Training schedule of the probe model (kept short; the probe only
    /// has to capture the leader's data pattern).
    pub probe_config: TrainConfig,
}

impl GameTheory {
    /// The configuration used in the evaluation: linear probe, 30 epochs.
    pub fn paper_default(leader: usize, l: usize, seed: u64) -> Self {
        Self {
            leader,
            l,
            probe_model: ModelKind::Linear,
            probe_config: TrainConfig::paper_lr(seed).with_epochs(30),
        }
    }

    /// Trains the leader's probe model and returns each node's loss under
    /// it, indexed by node position. Exposed for tests and the repro
    /// binary (Table II uses these probe losses directly).
    ///
    /// Data is min-max scaled by the global-space bounds before training
    /// and evaluation (see [`edgesim::SpaceScaler`]) so that the probe's
    /// gradient descent is stable and losses reported by different nodes
    /// are comparable; the returned losses are in scaled units.
    pub fn probe_losses(&self, ctx: &SelectionContext<'_>) -> Vec<f64> {
        let scaler = edgesim::SpaceScaler::from_space(&ctx.network.global_space());
        let leader_node = &ctx.network.nodes()[self.leader];
        let leader_data = scaler.transform_dataset(leader_node.data());
        let mut probe: Model = self
            .probe_model
            .build(leader_data.dim(), self.probe_config.seed);
        mlkit::train(&mut probe, &leader_data, &self.probe_config);
        ctx.network
            .nodes()
            .iter()
            .map(|n| probe.evaluate(&scaler.transform_dataset(n.data())))
            .collect()
    }
}

impl SelectionPolicy for GameTheory {
    fn name(&self) -> &'static str {
        "game-theory"
    }

    fn select(&self, ctx: &SelectionContext<'_>) -> Selection {
        assert!(self.leader < ctx.network.len(), "leader index out of range");
        let losses = self.probe_losses(ctx);
        // Rank non-leader nodes by descending probe loss (most different
        // data first) and keep ℓ of them.
        let mut order: Vec<usize> = (0..ctx.network.len())
            .filter(|&i| i != self.leader)
            .collect();
        order.sort_by(|&a, &b| {
            losses[b]
                .partial_cmp(&losses[a])
                .expect("losses are finite")
                .then(a.cmp(&b))
        });
        order.truncate(self.l.min(order.len()));
        Selection {
            participants: order
                .into_iter()
                .map(|i| Participant {
                    node: ctx.network.nodes()[i].id(),
                    ranking: 1.0,
                    supporting_clusters: Vec::new(),
                })
                .collect(),
            // The paper's game-theory baseline re-runs its probe per
            // query; it keeps no ranked tail to promote from.
            standby: Vec::new(),
        }
    }

    fn overhead(&self, ctx: &SelectionContext<'_>) -> SelectionOverhead {
        // The probe is trained on the leader (≈ len × epochs visits after
        // the validation split), broadcast to every node, evaluated there
        // (one visit per sample) and the losses are reported back.
        let leader = &ctx.network.nodes()[self.leader];
        let train_visits = (leader.len() as f64
            * (1.0 - self.probe_config.validation_split)
            * self.probe_config.epochs as f64) as usize;
        let probe_weights = self.probe_model.build(leader.data().dim(), 0).num_weights();
        let mut per_node_visits = vec![(leader.id(), train_visits)];
        for n in ctx.network.nodes() {
            if n.id() != leader.id() {
                per_node_visits.push((n.id(), n.len()));
            }
        }
        let bytes = ctx.network.len() * (probe_weights * 8 + 8); // model down, loss back
        SelectionOverhead {
            per_node_visits,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::{EdgeNetwork, NodeId};
    use geom::Query;
    use linalg::Matrix;
    use mlkit::DenseDataset;

    /// y = slope * x over x in [x0, x0+20).
    fn node_dataset(x0: f64, slope: f64) -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![x0 + i as f64 / 4.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| slope * r[0]).collect();
        DenseDataset::new(Matrix::from_rows(&rows), y)
    }

    fn network() -> EdgeNetwork {
        EdgeNetwork::from_datasets(vec![
            ("leader".into(), node_dataset(0.0, 1.0)),
            ("same".into(), node_dataset(0.0, 1.0)),
            ("different".into(), node_dataset(0.0, -5.0)),
        ])
    }

    fn any_query() -> Query {
        Query::from_boundary_vec(7, &[0.0, 10.0, 0.0, 10.0])
    }

    #[test]
    fn random_selection_is_deterministic_per_query() {
        let net = network();
        let q = any_query();
        let ctx = SelectionContext::new(&net, &q);
        let pol = RandomSelection { l: 2, seed: 3 };
        assert_eq!(pol.select(&ctx), pol.select(&ctx));
        let sel = pol.select(&ctx);
        assert_eq!(sel.len(), 2);
        for p in &sel.participants {
            assert!(
                p.supporting_clusters.is_empty(),
                "random baseline uses full data"
            );
        }
    }

    #[test]
    fn random_selection_varies_across_queries() {
        let net = network();
        let pol = RandomSelection { l: 1, seed: 3 };
        let mut seen = std::collections::HashSet::new();
        for qid in 0..20u64 {
            let q = Query::from_boundary_vec(qid, &[0.0, 10.0, 0.0, 10.0]);
            let sel = pol.select(&SelectionContext::new(&net, &q));
            seen.insert(sel.participants[0].node);
        }
        assert!(seen.len() > 1, "draw never varied across 20 queries");
    }

    #[test]
    fn random_l_is_clamped_to_population() {
        let net = network();
        let q = any_query();
        let sel = RandomSelection { l: 10, seed: 0 }.select(&SelectionContext::new(&net, &q));
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn all_nodes_selects_everyone_uniformly() {
        let net = network();
        let q = any_query();
        let sel = AllNodes.select(&SelectionContext::new(&net, &q));
        assert_eq!(sel.len(), 3);
        assert_eq!(sel.lambda_weights(), vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn game_theory_prefers_the_most_different_node() {
        let net = network();
        let q = any_query();
        let ctx = SelectionContext::new(&net, &q);
        let gt = GameTheory::paper_default(0, 1, 11);
        let losses = gt.probe_losses(&ctx);
        assert!(
            losses[2] > losses[1] * 10.0 + 1e-6,
            "probe losses {losses:?} do not separate nodes"
        );
        assert!(
            losses.iter().all(|l| l.is_finite()),
            "probe diverged: {losses:?}"
        );
        let sel = gt.select(&ctx);
        assert_eq!(sel.len(), 1);
        assert_eq!(
            sel.participants[0].node,
            NodeId(2),
            "GT must pick the dissimilar node"
        );
    }

    #[test]
    fn game_theory_never_selects_the_leader() {
        let net = network();
        let q = any_query();
        let sel = GameTheory::paper_default(0, 3, 1).select(&SelectionContext::new(&net, &q));
        assert_eq!(sel.len(), 2);
        assert!(sel.participants.iter().all(|p| p.node != NodeId(0)));
    }
}

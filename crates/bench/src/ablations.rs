//! The design ablations behind EXPERIMENTS.md "Ablations": each of the
//! paper's design choices — Eq. 4's ranking, Eq. 2's additive overlap,
//! K = 5 (§IV-A), the ε/ψ thresholds (Eq. 5), Eq. 6/7 aggregation — set
//! against its alternatives, plus three extension findings (model
//! forgetting, differentially private summaries, training-stage order).
//!
//! `repro ablations` writes every row to `results/ablations.csv` in one
//! schema. Losses are scaled MSE and fractions are simulated-accounting
//! ratios, never wall clock, so the file is byte-identical at any
//! `QENS_THREADS`.

use std::io;
use std::path::Path;

use qens::fedlearn::{run_stream, FederationConfig};
use qens::prelude::*;
use qens::selection::{RankingRule, SelectionCap};

use crate::{
    heterogeneous_federation, paper_federation, report, ExperimentScale, EPSILON, L_SELECT, SEED,
};

/// One row of `results/ablations.csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which ablation: `ranking`, `overlap`, `k`, `thresholds`, `agg`,
    /// `forgetting`, `privacy` or `stage_order`.
    pub ablation: &'static str,
    /// The swept parameter.
    pub parameter: &'static str,
    /// Its value in this row.
    pub value: String,
    /// Mean loss over the queries that produced a model (NaN when none
    /// did); for `forgetting`, the leader-region loss after the stage.
    pub mean_loss: Option<f64>,
    /// Mean fraction of the network's data trained on per completed query.
    pub data_fraction: Option<f64>,
    /// Queries that produced no model.
    pub failed: Option<usize>,
    /// Mean nodes selected per completed query (ψ), supporting clusters
    /// kept (overlap), or the loss multiple over the compatible
    /// continuation (forgetting).
    pub count: Option<f64>,
}

impl AblationRow {
    fn new(ablation: &'static str, parameter: &'static str, value: impl ToString) -> Self {
        Self {
            ablation,
            parameter,
            value: value.to_string(),
            mean_loss: None,
            data_fraction: None,
            failed: None,
            count: None,
        }
    }

    /// A row carrying one workload run's loss, data fraction and failures.
    fn stream(
        ablation: &'static str,
        parameter: &'static str,
        value: impl ToString,
        res: &StreamResult,
    ) -> Self {
        Self {
            mean_loss: Some(res.mean_loss().unwrap_or(f64::NAN)),
            data_fraction: Some(res.mean_data_fraction()),
            failed: Some(res.failed_queries()),
            ..Self::new(ablation, parameter, value)
        }
    }

    /// The row's cells in [`CSV_HEADER`] order; floats as `{:.6}`, an
    /// unmeasured cell empty.
    pub fn csv_fields(&self) -> Vec<String> {
        let float = |v: Option<f64>| v.map(|v| format!("{v:.6}")).unwrap_or_default();
        vec![
            self.ablation.to_string(),
            self.parameter.to_string(),
            self.value.clone(),
            float(self.mean_loss),
            float(self.data_fraction),
            self.failed.map(|f| f.to_string()).unwrap_or_default(),
            float(self.count),
        ]
    }
}

/// Runs every ablation, in CSV order. The eight are independent and
/// each is deterministic, so they run on threads of their own.
pub fn run() -> Vec<AblationRow> {
    let ablations: [fn() -> Vec<AblationRow>; 8] = [
        ranking,
        overlap,
        k_sweep,
        thresholds,
        aggregation,
        forgetting,
        privacy,
        stage_order,
    ];
    std::thread::scope(|s| {
        let handles: Vec<_> = ablations.into_iter().map(|f| s.spawn(f)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ablation thread panicked"))
            .collect()
    })
}

/// Columns of `ablations.csv`.
pub const CSV_HEADER: &str = "ablation,parameter,value,mean_loss,data_fraction,failed,count";

/// Writes `ablations.csv` under `dir`.
pub fn write_csv(dir: &Path, rows: &[AblationRow]) -> io::Result<()> {
    report::write_csv(
        &dir.join("ablations.csv"),
        CSV_HEADER,
        &rows.iter().map(AblationRow::csv_fields).collect::<Vec<_>>(),
    )
}

/// The LR configuration every heterogeneous-workload ablation trains with.
fn lr_config() -> FederationConfig {
    FederationConfig {
        train: TrainConfig::paper_lr(SEED).with_epochs(8),
        ..FederationConfig::paper_lr(SEED)
    }
}

fn workload_config(n_queries: usize) -> WorkloadConfig {
    WorkloadConfig {
        n_queries,
        ..WorkloadConfig::paper_default(SEED)
    }
}

/// The paper's policy: ε = 0.05, Eq. 4, top-ℓ.
fn top_l() -> QueryDriven {
    QueryDriven::new(EPSILON, SelectionCap::TopL(L_SELECT), RankingRule::PaperEq4)
}

/// Eq. 4's `r_i = p_i · K'/K` against its two halves, 25 queries.
fn ranking() -> Vec<AblationRow> {
    let fed = heterogeneous_federation(ExperimentScale::Quick);
    let wl = fed.workload(&workload_config(25));
    [
        ("eq4", RankingRule::PaperEq4),
        ("potential_only", RankingRule::PotentialOnly),
        ("count_only", RankingRule::CountOnly),
    ]
    .into_iter()
    .map(|(name, rule)| {
        let policy = QueryDriven::new(EPSILON, SelectionCap::TopL(L_SELECT), rule);
        let res = run_stream(fed.network(), &wl, &policy, &lr_config());
        AblationRow::stream("ranking", "rule", name, &res)
    })
    .collect()
}

/// Supporting clusters Eq. 2's additive overlap keeps against the
/// multiplicative volume fraction, for one reference query.
fn overlap() -> Vec<AblationRow> {
    let fed = heterogeneous_federation(ExperimentScale::Quick);
    let q = fed.query_from_bounds(0, &[0.0, 25.0, 0.0, 55.0]);
    let rects: Vec<HyperRect> = fed
        .network()
        .nodes()
        .iter()
        .flat_map(|n| {
            n.summaries()
                .iter()
                .map(|s| HyperRect::new(s.bounds.to_vec()))
        })
        .collect();
    let kept = |score: fn(&HyperRect, &HyperRect) -> f64| {
        rects
            .iter()
            .filter(|r| score(q.region(), r) >= EPSILON)
            .count()
    };
    [
        ("all_clusters", rects.len()),
        ("eq2_additive", kept(HyperRect::overlap_rate)),
        ("volume_fraction", kept(HyperRect::volume_overlap)),
    ]
    .into_iter()
    .map(|(name, n)| AblationRow {
        count: Some(n as f64),
        ..AblationRow::new("overlap", "score", name)
    })
    .collect()
}

/// Clusters per node, K ∈ {1, 3, 5, 8, 13}, 20 queries.
fn k_sweep() -> Vec<AblationRow> {
    [1usize, 3, 5, 8, 13]
        .into_iter()
        .map(|k| {
            let fed = FederationBuilder::new()
                .heterogeneous_nodes(10, ExperimentScale::Quick.samples_per_node())
                .clusters_per_node(k)
                .seed(SEED)
                .epochs(8)
                .build();
            let wl = fed.workload(&workload_config(20));
            let res = run_stream(fed.network(), &wl, &top_l(), &lr_config());
            AblationRow::stream("k", "k", k, &res)
        })
        .collect()
}

/// ε under a fixed top-ℓ cut, then ψ (Eq. 5) in place of top-ℓ, 20 queries.
fn thresholds() -> Vec<AblationRow> {
    let fed = heterogeneous_federation(ExperimentScale::Quick);
    let wl = fed.workload(&workload_config(20));
    let mut rows: Vec<AblationRow> = [0.01, 0.05, 0.1, 0.2, 0.4]
        .into_iter()
        .map(|eps| {
            let policy = QueryDriven::new(eps, SelectionCap::TopL(L_SELECT), RankingRule::PaperEq4);
            let res = run_stream(fed.network(), &wl, &policy, &lr_config());
            AblationRow::stream("thresholds", "epsilon", eps, &res)
        })
        .collect();
    rows.extend([0.05, 0.2, 0.5, 1.0].into_iter().map(|psi| {
        let policy = QueryDriven::threshold(EPSILON, psi);
        let res = run_stream(fed.network(), &wl, &policy, &lr_config());
        let completed = res.per_query.len() - res.failed_queries();
        let nodes: usize = res
            .per_query
            .iter()
            .filter(|r| r.error.is_none())
            .map(|r| r.nodes_selected)
            .sum();
        AblationRow {
            count: Some(nodes as f64 / completed.max(1) as f64),
            ..AblationRow::stream("thresholds", "psi", psi, &res)
        }
    }));
    rows
}

/// Eq. 6 averaging, Eq. 7 ranking-weighted averaging and FedAvg weight
/// averaging, 20 queries.
fn aggregation() -> Vec<AblationRow> {
    let fed = heterogeneous_federation(ExperimentScale::Quick);
    let wl = fed.workload(&workload_config(20));
    [
        Aggregation::ModelAveraging,
        Aggregation::WeightedAveraging,
        Aggregation::FedAvgWeights,
    ]
    .into_iter()
    .map(|agg| {
        let res = run_stream(
            fed.network(),
            &wl,
            &top_l(),
            &lr_config().with_aggregation(agg),
        );
        AblationRow::stream("agg", "rule", agg.name(), &res)
    })
    .collect()
}

/// The model forgetting the paper's introduction warns about: fit the
/// leader region (node 0), continue on a compatible node (1) or an
/// incompatible one (4 inverts the relation), and measure the loss back
/// on the leader region.
fn forgetting() -> Vec<AblationRow> {
    let fed = heterogeneous_federation(ExperimentScale::Quick);
    let nodes = fed.network().nodes();
    let scaler = SpaceScaler::from_space(&fed.network().global_space());
    let cfg = TrainConfig::paper_lr(SEED).with_epochs(15);
    let leader_data = scaler.transform_dataset(nodes[0].data());
    let mut base = ModelKind::Linear.build(1, SEED);
    qens::mlkit::train(&mut base, &leader_data, &cfg);
    let continued = |node: usize| {
        let mut m = base.clone();
        qens::mlkit::train(&mut m, &scaler.transform_dataset(nodes[node].data()), &cfg);
        m.evaluate(&leader_data)
    };
    let before = base.evaluate(&leader_data);
    let compatible = continued(1);
    let incompatible = continued(4);
    let row = |stage: &str, loss: f64| AblationRow {
        mean_loss: Some(loss),
        ..AblationRow::new("forgetting", "stage", stage)
    };
    vec![
        row("leader", before),
        row("compatible", compatible),
        AblationRow {
            count: Some(incompatible / compatible.max(1e-12)),
            ..row("incompatible", incompatible)
        },
    ]
}

/// Laplace-noised summaries at budget ε against exact ones, 20 queries.
fn privacy() -> Vec<AblationRow> {
    let network = |dp_epsilon: Option<f64>| {
        let nodes = qens::airdata::scenario::heterogeneous_nodes(
            10,
            ExperimentScale::Quick.samples_per_node(),
            SEED,
        );
        let mut net =
            EdgeNetwork::from_datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect());
        match dp_epsilon {
            Some(eps) => net.quantize_all_private(5, SEED, eps),
            None => net.quantize_all(5, SEED),
        }
        net
    };
    let exact = network(None);
    let wl = qens::workload::generate(&exact.global_space(), &workload_config(20));
    let mut rows = vec![AblationRow::stream(
        "privacy",
        "dp_epsilon",
        "inf",
        &run_stream(&exact, &wl, &top_l(), &lr_config()),
    )];
    rows.extend([10.0, 1.0, 0.3, 0.1, 0.03].into_iter().map(|eps| {
        let res = run_stream(&network(Some(eps)), &wl, &top_l(), &lr_config());
        AblationRow::stream("privacy", "dp_epsilon", eps, &res)
    }));
    rows
}

/// Sequential (§IV-B) against interleaved (§IV-A) visits of the
/// supporting clusters, NN at 10 and 40 epochs, 15 air-quality queries.
fn stage_order() -> Vec<AblationRow> {
    let fed = paper_federation(
        ExperimentScale::Quick,
        ModelKind::Neural {
            hidden: ExperimentScale::Quick.nn_hidden(),
        },
        Aggregation::WeightedAveraging,
    );
    let wl = fed.workload(&workload_config(15));
    let mut rows = Vec::new();
    for epochs in [10usize, 40] {
        for (label, order) in [
            ("sequential", StageOrder::Sequential),
            ("interleaved", StageOrder::Interleaved),
        ] {
            let cfg = FederationConfig {
                train: TrainConfig::paper_nn(SEED).with_epochs(epochs),
                stage_order: order,
                ..FederationConfig::paper_nn(SEED)
            };
            let res = run_stream(fed.network(), &wl, &top_l(), &cfg);
            rows.push(AblationRow::stream(
                "stage_order",
                "order@epochs",
                format!("{label}@{epochs}"),
                &res,
            ));
        }
    }
    rows
}

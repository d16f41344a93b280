//! Shared experiment harness for the `repro` binary: one function per
//! table/figure of the paper, each returning plain data the caller can
//! print or serialise.
//!
//! Every experiment takes an [`ExperimentScale`]:
//! [`ExperimentScale::Quick`] keeps the whole suite tractable on a
//! laptop (fewer queries/epochs/samples, identical structure), while
//! [`ExperimentScale::Paper`] matches the paper's published parameters
//! (`N = 10` nodes, `K = 5`, 200 queries, Table III epochs).

use qens::linalg::stats;
use qens::prelude::*;

pub mod ablations;
pub mod figures;
pub mod fleet;
pub mod profile;
pub mod report;
pub mod scale;
pub mod serve;
pub mod smoke;
pub mod tables;

/// Serializes tests that mutate the process-global fleet registry and
/// event journal (they would race otherwise: cargo runs a binary's
/// tests on parallel threads).
#[cfg(test)]
pub(crate) fn fleet_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small but shape-preserving (default for tests and the ablations).
    Quick,
    /// The paper's published parameters.
    Paper,
}

impl ExperimentScale {
    /// Queries in the dynamic workload (paper: 200).
    pub fn n_queries(self) -> usize {
        match self {
            ExperimentScale::Quick => 40,
            ExperimentScale::Paper => 200,
        }
    }

    /// Training epochs per stage (paper Table III: 100).
    pub fn epochs(self) -> usize {
        match self {
            ExperimentScale::Quick => 10,
            ExperimentScale::Paper => 100,
        }
    }

    /// Hours of synthetic air-quality data per station.
    pub fn hours(self) -> u64 {
        match self {
            ExperimentScale::Quick => 24 * 45,
            ExperimentScale::Paper => 24 * 365,
        }
    }

    /// Samples per node in the controlled synthetic scenarios.
    pub fn samples_per_node(self) -> usize {
        match self {
            ExperimentScale::Quick => 250,
            ExperimentScale::Paper => 1000,
        }
    }

    /// Hidden width of the NN model (paper Table III: 64).
    pub fn nn_hidden(self) -> usize {
        match self {
            ExperimentScale::Quick => 16,
            ExperimentScale::Paper => 64,
        }
    }
}

/// The evaluation's fixed parameters (§V-A).
pub const N_NODES: usize = 10;
/// Clusters per node (§V-A: "K = 5 for all nodes to avoid biases").
pub const K_CLUSTERS: usize = 5;
/// Participants per query for the top-ℓ policies.
pub const L_SELECT: usize = 4;
/// Overlap threshold ε.
pub const EPSILON: f64 = 0.05;
/// Master seed of the whole evaluation.
pub const SEED: u64 = 20230403; // ICDE 2023 started April 3rd.

/// The paper's evaluation federation: N air-quality stations, K = 5.
pub fn paper_federation(scale: ExperimentScale, model: ModelKind, agg: Aggregation) -> Federation {
    FederationBuilder::new()
        .air_quality_nodes(N_NODES, scale.hours())
        .clusters_per_node(K_CLUSTERS)
        .seed(SEED)
        .model(model)
        .epochs(scale.epochs())
        .aggregation(agg)
        .build()
}

/// The §II homogeneous population.
pub fn homogeneous_federation(scale: ExperimentScale) -> Federation {
    FederationBuilder::new()
        .homogeneous_nodes(N_NODES, scale.samples_per_node())
        .clusters_per_node(K_CLUSTERS)
        .seed(SEED)
        .epochs(scale.epochs())
        .build()
}

/// The §II heterogeneous population.
pub fn heterogeneous_federation(scale: ExperimentScale) -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(N_NODES, scale.samples_per_node())
        .clusters_per_node(K_CLUSTERS)
        .seed(SEED)
        .epochs(scale.epochs())
        .build()
}

/// Per-node scatter statistics used by the Fig. 1/2 replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePattern {
    /// Node name.
    pub name: String,
    /// OLS slope of the label on the single feature.
    pub slope: f64,
    /// OLS intercept.
    pub intercept: f64,
    /// Pearson correlation.
    pub correlation: f64,
    /// Feature range.
    pub x_range: (f64, f64),
    /// Sample count.
    pub samples: usize,
}

/// Computes the pattern statistics of one node.
pub fn node_pattern(fed: &Federation, idx: usize) -> NodePattern {
    let node = &fed.network().nodes()[idx];
    let xs = node.data().x().col(0);
    let ys = node.data().y().to_vec();
    let (slope, intercept) = stats::ols_line(&xs, &ys);
    NodePattern {
        name: node.name().to_string(),
        slope,
        intercept,
        correlation: stats::pearson(&xs, &ys),
        x_range: stats::min_max(&xs).expect("nodes are non-empty"),
        samples: node.len(),
    }
}

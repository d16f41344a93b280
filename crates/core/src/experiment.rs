//! Experiment pipelines shared by the repro harness and the examples.

use fedlearn::StreamResult;
use workload::QueryWorkload;

use crate::builder::Federation;
use crate::policy_kind::PolicyKind;

/// One policy's summary row in a comparison (a Fig. 7 bar).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparison {
    /// Policy display name.
    pub policy: String,
    /// Mean per-query loss (scaled units); `None` when every round
    /// failed.
    pub mean_loss: Option<f64>,
    /// Mean fraction of the network's data used per query.
    pub mean_data_fraction: f64,
    /// Mean simulated seconds per query.
    pub mean_sim_seconds: f64,
    /// Queries that produced no model.
    pub failed_queries: usize,
    /// The full stream result, for callers that need per-query rows.
    pub stream: StreamResult,
}

/// Runs each policy over the same workload and summarises (Fig. 7).
pub fn compare_policies(
    federation: &Federation,
    workload: &QueryWorkload,
    policies: &[PolicyKind],
) -> Vec<PolicyComparison> {
    policies
        .iter()
        .map(|p| {
            let stream = federation.run_workload(workload, p);
            PolicyComparison {
                policy: stream.policy.clone(),
                mean_loss: stream.mean_loss(),
                mean_data_fraction: stream.mean_data_fraction(),
                mean_sim_seconds: stream.mean_sim_seconds(),
                failed_queries: stream.failed_queries(),
                stream,
            }
        })
        .collect()
}

/// Per-query with/without-selectivity series (Figs. 8 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectivitySeries {
    /// Query ids in issue order.
    pub query_ids: Vec<u64>,
    /// Simulated total training seconds per query, with data
    /// selectivity (sequential view - the paper's Fig. 8 green line).
    pub with_seconds: Vec<f64>,
    /// Simulated total training seconds per query, without (full node
    /// data - the blue line).
    pub without_seconds: Vec<f64>,
    /// Fraction of the network's data used per query, with selectivity.
    pub with_fraction: Vec<f64>,
    /// Fraction used without selectivity.
    pub without_fraction: Vec<f64>,
}

impl SelectivitySeries {
    /// Mean time saving factor (without / with); `None` when empty.
    pub fn mean_speedup(&self) -> Option<f64> {
        if self.with_seconds.is_empty() {
            return None;
        }
        let with: f64 = self.with_seconds.iter().sum();
        let without: f64 = self.without_seconds.iter().sum();
        (with > 0.0).then(|| without / with)
    }
}

/// Runs the same query-driven node choices twice — once training on the
/// supporting clusters only (the paper's mechanism), once on the selected
/// nodes' whole datasets — and pairs the per-query costs. Queries that
/// fail under either arm are dropped from the series (both arms select
/// identically, so failures coincide).
pub fn selectivity_comparison(
    federation: &Federation,
    workload: &QueryWorkload,
    epsilon: f64,
    l: usize,
) -> SelectivitySeries {
    let with = federation.run_workload(workload, &PolicyKind::QueryDriven { epsilon, l });
    let without = federation.run_workload(
        workload,
        &PolicyKind::QueryDrivenNoSelectivity { epsilon, l },
    );
    let mut series = SelectivitySeries {
        query_ids: Vec::new(),
        with_seconds: Vec::new(),
        without_seconds: Vec::new(),
        with_fraction: Vec::new(),
        without_fraction: Vec::new(),
    };
    for (a, b) in with.per_query.iter().zip(&without.per_query) {
        debug_assert_eq!(a.query_id, b.query_id);
        if a.error.is_some() || b.error.is_some() {
            continue;
        }
        series.query_ids.push(a.query_id);
        series.with_seconds.push(a.sim_seconds_total);
        series.without_seconds.push(b.sim_seconds_total);
        series.with_fraction.push(a.data_fraction);
        series.without_fraction.push(b.data_fraction);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FederationBuilder;
    use workload::WorkloadConfig;

    fn federation() -> Federation {
        FederationBuilder::new()
            .heterogeneous_nodes(6, 80)
            .seed(13)
            .epochs(4)
            .build()
    }

    #[test]
    fn compare_policies_produces_one_row_per_policy() {
        let fed = federation();
        let wl = fed.workload(&WorkloadConfig {
            n_queries: 8,
            ..WorkloadConfig::paper_default(3)
        });
        let rows = compare_policies(
            &fed,
            &wl,
            &[
                PolicyKind::query_driven(3),
                PolicyKind::Random { l: 3, seed: 5 },
                PolicyKind::AllNodes,
            ],
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].policy, "query-driven");
        assert_eq!(
            rows[2].mean_data_fraction, 1.0,
            "all-nodes must use all data"
        );
    }

    #[test]
    fn selectivity_series_shows_savings() {
        let fed = federation();
        let wl = fed.workload(&WorkloadConfig {
            n_queries: 10,
            ..WorkloadConfig::paper_default(7)
        });
        let series = selectivity_comparison(&fed, &wl, 0.05, 3);
        assert!(!series.query_ids.is_empty());
        for i in 0..series.query_ids.len() {
            assert!(
                series.with_fraction[i] <= series.without_fraction[i] + 1e-12,
                "selectivity must never use more data"
            );
            assert!(series.with_seconds[i] <= series.without_seconds[i] + 1e-12);
        }
        assert!(series.mean_speedup().unwrap() >= 1.0);
    }
}

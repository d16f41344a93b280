//! Running a whole query workload through the federation.

use edgesim::{EdgeNetwork, StreamAccounting};
use geom::Query;
use selection::SelectionPolicy;
use workload::QueryWorkload;

use crate::error::FederationError;
use crate::round::{run_query, FederationConfig};

/// One query's result row.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The query id.
    pub query_id: u64,
    /// Per-query loss on the query's data region (scaled units), `None`
    /// when the round failed or no test point fell inside the region.
    pub loss: Option<f64>,
    /// Number of participants.
    pub nodes_selected: usize,
    /// Fraction of the network's data trained on.
    pub data_fraction: f64,
    /// Simulated round seconds (parallel view).
    pub sim_seconds: f64,
    /// Simulated total training seconds (sequential view, Fig. 8).
    pub sim_seconds_total: f64,
    /// Why the round failed, if it did.
    pub error: Option<FederationError>,
}

/// The aggregate outcome of a workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Policy display name.
    pub policy: String,
    /// Per-query rows in issue order.
    pub per_query: Vec<QueryResult>,
    /// The full resource ledger of the successful rounds.
    pub accounting: StreamAccounting,
    /// Selection-memo counters accumulated over the stream, `None`
    /// unless the policy is memo-backed
    /// ([`selection::CachedQueryDriven`]). Snapshot taken after the last
    /// query, so it covers the whole stream (plus whatever the policy
    /// object served before — policies are usually built per stream).
    pub cache: Option<selection::CacheStats>,
}

impl StreamResult {
    /// Mean loss over the queries that completed and had test data — the
    /// paper's Fig. 7 y-value.
    pub fn mean_loss(&self) -> Option<f64> {
        let losses: Vec<f64> = self.per_query.iter().filter_map(|r| r.loss).collect();
        if losses.is_empty() {
            None
        } else {
            Some(losses.iter().sum::<f64>() / losses.len() as f64)
        }
    }

    /// Number of queries that produced no model (no participants / data).
    pub fn failed_queries(&self) -> usize {
        self.per_query.iter().filter(|r| r.error.is_some()).count()
    }

    /// Mean fraction of the network's data used per completed query
    /// (Fig. 9 summary).
    pub fn mean_data_fraction(&self) -> f64 {
        self.accounting.mean_data_fraction()
    }

    /// Mean simulated seconds per completed query (Fig. 8 summary).
    pub fn mean_sim_seconds(&self) -> f64 {
        self.accounting.mean_sim_seconds()
    }
}

/// Runs every query of a workload under one policy.
///
/// Failed rounds (no participants, no data) are recorded, not fatal —
/// a realistic stream can contain queries nothing overlaps.
pub fn run_stream(
    network: &EdgeNetwork,
    workload: &QueryWorkload,
    policy: &dyn SelectionPolicy,
    config: &FederationConfig,
) -> StreamResult {
    let mut per_query = Vec::with_capacity(workload.len());
    let mut accounting = StreamAccounting::default();
    for query in &workload.queries {
        per_query.push(run_one(network, query, policy, config, &mut accounting));
    }
    StreamResult {
        policy: policy.name().to_string(),
        per_query,
        accounting,
        cache: policy.cache_stats(),
    }
}

fn run_one(
    network: &EdgeNetwork,
    query: &Query,
    policy: &dyn SelectionPolicy,
    config: &FederationConfig,
    accounting: &mut StreamAccounting,
) -> QueryResult {
    match run_query(network, query, policy, config) {
        Ok(outcome) => {
            let loss = outcome.query_loss(network, query);
            let row = outcome.accounting.clone();
            let result = QueryResult {
                query_id: query.id(),
                loss,
                nodes_selected: row.nodes_selected,
                data_fraction: row.data_fraction(),
                sim_seconds: row.sim_seconds,
                sim_seconds_total: row.sim_seconds_total,
                error: None,
            };
            accounting.push(row);
            result
        }
        Err(e) => QueryResult {
            query_id: query.id(),
            loss: None,
            nodes_selected: 0,
            data_fraction: 0.0,
            sim_seconds: 0.0,
            sim_seconds_total: 0.0,
            error: Some(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdata::scenario;
    use mlkit::TrainConfig;
    use selection::{QueryDriven, RandomSelection};
    use workload::{generate, WorkloadConfig};

    fn network() -> EdgeNetwork {
        let nodes = scenario::heterogeneous_nodes(6, 80, 4);
        let mut net =
            EdgeNetwork::from_datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect());
        net.quantize_all(5, 2);
        net
    }

    fn fast_cfg() -> FederationConfig {
        let mut cfg = crate::round::FederationConfig::paper_lr(11);
        cfg.train = TrainConfig::paper_lr(11).with_epochs(8);
        cfg
    }

    #[test]
    fn stream_runs_every_query() {
        let net = network();
        let wl = generate(
            &net.global_space(),
            &WorkloadConfig {
                n_queries: 12,
                ..WorkloadConfig::paper_default(5)
            },
        );
        let res = run_stream(&net, &wl, &QueryDriven::top_l(3), &fast_cfg());
        assert_eq!(res.per_query.len(), 12);
        assert_eq!(res.policy, "query-driven");
        // At least some queries must succeed over the global space.
        assert!(res.per_query.len() - res.failed_queries() > 4);
        assert!(res.mean_loss().is_some());
        assert!(res.mean_data_fraction() > 0.0 && res.mean_data_fraction() < 1.0);
    }

    #[test]
    fn stream_mean_loss_orders_ours_below_random() {
        let net = network();
        let wl = generate(
            &net.global_space(),
            &WorkloadConfig {
                n_queries: 16,
                ..WorkloadConfig::paper_default(21)
            },
        );
        let ours = run_stream(&net, &wl, &QueryDriven::top_l(3), &fast_cfg());
        let rand = run_stream(&net, &wl, &RandomSelection { l: 3, seed: 77 }, &fast_cfg());
        let a = ours.mean_loss().unwrap();
        let b = rand.mean_loss().unwrap();
        assert!(a < b, "query-driven mean loss {a} should beat random {b}");
    }

    #[test]
    fn cached_policy_matches_uncached_and_reports_stats() {
        let net = network();
        // Five rectangles, each asked twice in a row: the memo answers
        // the second of every pair.
        let mut wl = generate(
            &net.global_space(),
            &WorkloadConfig {
                n_queries: 5,
                halfwidth_frac: (0.20, 0.20),
                ..WorkloadConfig::paper_default(5)
            },
        );
        wl.queries = wl
            .queries
            .iter()
            .flat_map(|q| {
                let again = geom::Query::from_boundary_vec(q.id() + 5, &q.to_boundary_vec());
                [q.clone(), again]
            })
            .collect();
        let plain = run_stream(&net, &wl, &QueryDriven::top_l(3), &fast_cfg());
        let cached_policy = selection::CachedQueryDriven::new(QueryDriven::top_l(3));
        let cached = run_stream(&net, &wl, &cached_policy, &fast_cfg());
        // Bit-identical rows: the memo must not change any outcome.
        // (Full accounting is not compared — it carries measured
        // wall_seconds, which no two runs share.)
        assert_eq!(plain.per_query, cached.per_query);
        assert!(plain.cache.is_none(), "plain policies report no cache");
        let stats = cached.cache.expect("cached policy reports stats");
        assert_eq!((stats.hits, stats.misses), (5, 5), "{stats:?}");
    }

    #[test]
    fn failed_rounds_are_recorded_not_fatal() {
        let net = network();
        // A workload over a region far outside every node.
        let far_space = geom::HyperRect::from_boundary_vec(&[1e7, 2e7, 1e7, 2e7]);
        let wl = generate(
            &far_space,
            &WorkloadConfig {
                n_queries: 3,
                ..WorkloadConfig::paper_default(1)
            },
        );
        let res = run_stream(&net, &wl, &QueryDriven::top_l(3), &fast_cfg());
        assert_eq!(res.failed_queries(), 3);
        assert_eq!(res.mean_loss(), None);
        assert_eq!(res.accounting.rows.len(), 0);
    }
}

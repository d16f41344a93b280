//! Every call the benchmark makes into the program is in this file.
//!
//! The signatures used here are load-bearing: a later refactor that
//! changes one of them changes this file and nothing else in the
//! benchmark, and the review of that change can see from the diff of
//! this one file whether the benchmark still measures the same thing.
//! The other files hold values of the types re-exported below but call
//! nothing on them.

use bench::serve::{self, ServerHandle};
use qens::cluster::{ClusterSummary, KMeans, KMeansConfig};
use qens::edgesim::NodeId;
use qens::fedlearn::{FederationError, RoundOutcome};
use qens::geom::index::{GridConfig, SpatialIndex, SpatialIndexBuilder};
use qens::mlkit::{self, DenseDataset, ModelKind, TrainConfig};
use qens::selection::{SelectionContext, SelectionPolicy};
use qens::workload::{self, WorkloadConfig, WorkloadKind};
use qens::{AdmissionConfig, FederationBuilder, PolicyKind};

pub use qens::edgesim::{EdgeNetwork as Network, EdgeNode as Node};
use qens::geom::HyperRect;
use qens::linalg::Matrix;

pub use qens::geom::Query;
pub use qens::selection::Selection;
pub use qens::Federation;

use crate::digest::Pick;

/// A built selection policy (scan, indexed, cached or both).
pub type Policy = Box<dyn SelectionPolicy>;
/// What `run_query` / `run_batch` hand back per query.
pub type Outcome = Result<RoundOutcome, FederationError>;

/// Top-ℓ of `repro serve` (the server hard-codes it; the reference
/// must match).
pub const SERVE_L: usize = serve::SERVE_SELECT_L;
/// The paper's ℓ (§V).
pub const PAPER_L: usize = 4;
/// Top-ℓ of the fleet workloads, as in the repo's own fleet-scale legs.
pub const FLEET_L: usize = 3;

// ---------------------------------------------------------------------
// Federations. Every builder flag that reads the environment when left
// unset is set here; the pool size is the one exception, left at the
// program's default (`nproc` workers) because the run protocol says so.
// ---------------------------------------------------------------------

/// `repro serve`'s own federation, flag for flag.
pub fn serve_federation(telemetry: bool) -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(6, 120)
        .clusters_per_node(4)
        .seed(13)
        .epochs(2)
        .telemetry(telemetry)
        .fleet(telemetry)
        .trace(None)
        .selection_cache(true)
        .selection_cache_bucket(30.0)
        .index(false)
        .admission(AdmissionConfig::default())
        .build()
}

/// The paper's evaluation set-up (§V-A, Table III): 10 air-quality
/// nodes × 8760 h, K = 5, LR, 100 epochs. `threads` pins the pool for
/// the pool-speedup probe only.
pub fn paper_federation(threads: Option<usize>) -> Federation {
    let mut builder = FederationBuilder::new()
        .air_quality_nodes(10, 8760)
        .clusters_per_node(5)
        .seed(bench::SEED)
        .epochs(100)
        .telemetry(false)
        .fleet(false)
        .trace(None)
        .selection_cache(false)
        .index(false)
        .admission(AdmissionConfig::default());
    if let Some(n) = threads {
        builder = builder.threads(n);
    }
    builder.build()
}

/// One generated node dataset: joint-space rows `(x, y)`.
pub struct NodeData {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

fn dataset(points: &[(f64, f64)]) -> DenseDataset {
    let rows: Vec<Vec<f64>> = points.iter().map(|&(x, _)| vec![x]).collect();
    DenseDataset::new(
        Matrix::from_rows(&rows),
        points.iter().map(|&(_, y)| y).collect(),
    )
}

/// The churn fleet: data-backed nodes, K = 3, index and cache on.
pub fn churn_federation(nodes: &[NodeData], seed: u64, cache_bucket: f64) -> Federation {
    FederationBuilder::new()
        .datasets(
            nodes
                .iter()
                .map(|n| (n.name.clone(), dataset(&n.points)))
                .collect(),
        )
        .clusters_per_node(CHURN_K)
        .seed(seed)
        .epochs(1)
        .telemetry(false)
        .fleet(false)
        .trace(None)
        .selection_cache(true)
        .selection_cache_bucket(cache_bucket)
        .index(true)
        .admission(AdmissionConfig::default())
        .build()
}

/// Clusters per churn node.
pub const CHURN_K: usize = 3;

/// A policy with the given index / cache flags. `build_policy` reads
/// only those flags, so a two-node federation carries them.
pub fn policy(index: bool, cache_bucket: Option<f64>, l: usize) -> Policy {
    let mut builder = FederationBuilder::new()
        .heterogeneous_nodes(2, 8)
        .clusters_per_node(2)
        .seed(1)
        .epochs(1)
        .telemetry(false)
        .fleet(false)
        .trace(None)
        .selection_cache(cache_bucket.is_some())
        .index(index)
        .admission(AdmissionConfig::default());
    if let Some(width) = cache_bucket {
        builder = builder.selection_cache_bucket(width);
    }
    builder.build().build_policy(&PolicyKind::query_driven(l))
}

pub fn build_policy(fed: &Federation, l: usize) -> Policy {
    fed.build_policy(&PolicyKind::query_driven(l))
}

pub fn network(fed: &Federation) -> &Network {
    fed.network()
}

pub fn node_count(net: &Network) -> usize {
    net.nodes().len()
}

pub fn par_threads() -> usize {
    qens::par::global().threads()
}

// ---------------------------------------------------------------------
// Query pools.
// ---------------------------------------------------------------------

/// The paper's 200 uniform queries over the federation's data space,
/// as `repro` generates them for its tables and figures.
pub fn paper_queries(fed: &Federation) -> Vec<Query> {
    fed.paper_workload(bench::SEED).queries
}

/// Hotspot queries over the federation's data space.
pub fn hotspot_queries(
    fed: &Federation,
    n: usize,
    hotspots: usize,
    spread_frac: f64,
    halfwidth_frac: (f64, f64),
    seed: u64,
) -> Vec<Query> {
    fed.workload(&WorkloadConfig {
        n_queries: n,
        halfwidth_frac,
        kind: WorkloadKind::Hotspot {
            hotspots,
            spread_frac,
        },
        seed,
    })
    .queries
}

/// Uniform queries over the square `[0, side]²`.
pub fn uniform_queries(side: f64, n: usize, halfwidth_frac: (f64, f64), seed: u64) -> Vec<Query> {
    workload::generate(
        &HyperRect::from_boundary_vec(&[0.0, side, 0.0, side]),
        &WorkloadConfig {
            n_queries: n,
            halfwidth_frac,
            kind: WorkloadKind::Uniform,
            seed,
        },
    )
    .queries
}

/// `[x_min, x_max, y_min, y_max]`, the `POST /query` body's `bounds`.
pub fn bounds(query: &Query) -> Vec<f64> {
    query.to_boundary_vec()
}

// ---------------------------------------------------------------------
// Answering queries.
// ---------------------------------------------------------------------

pub fn run_query(fed: &Federation, query: &Query, l: usize) -> Outcome {
    fed.run_query(query, &PolicyKind::query_driven(l))
}

pub fn run_batch(fed: &Federation, queries: &[Query], l: usize) -> Vec<Outcome> {
    fed.run_batch(queries, &PolicyKind::query_driven(l))
}

/// The loss every served reply carries: the global model on the query's
/// own data region.
pub fn query_loss(fed: &Federation, query: &Query, outcome: &RoundOutcome) -> Option<f64> {
    outcome.query_loss(fed.network(), query)
}

/// The checked parts of one answer, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub participants: Vec<Pick>,
    pub standby: Vec<(u64, f64)>,
    pub samples_used: u64,
    pub sim_seconds: f64,
    pub train_wall_seconds: f64,
    pub data_fraction: f64,
}

/// `Err` carries the program's message (the server's 422 body).
pub fn answer(outcome: &Outcome) -> Result<Answer, String> {
    let out = outcome.as_ref().map_err(ToString::to_string)?;
    let (participants, standby) = picks(&out.selection);
    Ok(Answer {
        participants,
        standby,
        samples_used: out.accounting.samples_used as u64,
        sim_seconds: out.accounting.sim_seconds,
        train_wall_seconds: out.accounting.wall_seconds,
        data_fraction: out.accounting.data_fraction(),
    })
}

pub fn select(policy: &Policy, net: &Network, query: &Query) -> Selection {
    policy.select(&SelectionContext::new(net, query))
}

/// A selection as plain data for the digest.
pub fn picks(selection: &Selection) -> (Vec<Pick>, Vec<(u64, f64)>) {
    let participants = selection
        .participants
        .iter()
        .map(|p| Pick {
            node: p.node.0 as u64,
            ranking: p.ranking,
            clusters: p
                .supporting_clusters
                .iter()
                .map(|c| (c.cluster_id as u64, c.overlap, c.size as u64))
                .collect(),
        })
        .collect();
    let standby = selection
        .standby
        .iter()
        .map(|p| (p.node.0 as u64, p.ranking))
        .collect();
    (participants, standby)
}

/// Digest of everything a selection carries.
pub fn selection_digest(selection: &Selection) -> u64 {
    let (participants, standby) = picks(selection);
    crate::digest::selection_digest(participants.iter(), standby.into_iter())
}

/// The cache's own counters, `None` for an uncached policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounts {
    pub hits: u64,
    pub delta_hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
}

pub fn cache_counts(policy: &Policy) -> Option<CacheCounts> {
    policy.cache_stats().map(|s| CacheCounts {
        hits: s.hits,
        delta_hits: s.delta_hits,
        misses: s.misses,
        invalidations: s.invalidations,
        evictions: s.evictions,
    })
}

// ---------------------------------------------------------------------
// Fleets built by the benchmark.
// ---------------------------------------------------------------------

/// One cluster of a summary-only node: its rectangle and member count.
pub struct ClusterBox {
    pub x: (f64, f64),
    pub y: (f64, f64),
    pub size: usize,
}

/// A leader's-view node: summaries only, no dataset behind them.
pub fn summary_node(id: usize, clusters: &[ClusterBox]) -> Node {
    let summaries = clusters
        .iter()
        .enumerate()
        .map(|(k, c)| ClusterSummary {
            cluster_id: k,
            size: c.size,
            representative: vec![(c.x.0 + c.x.1) / 2.0, (c.y.0 + c.y.1) / 2.0],
            rect: HyperRect::from_boundary_vec(&[c.x.0, c.x.1, c.y.0, c.y.1]),
        })
        .collect();
    Node::from_summaries(NodeId(id), format!("fleet-{id}"), 1.0, summaries)
}

pub fn network_from_nodes(nodes: Vec<Node>) -> Network {
    Network::from_nodes(nodes)
}

/// One churn mutation: the node absorbs new samples and re-quantises.
pub fn absorb_and_requantize(net: &mut Network, node: usize, points: &[(f64, f64)], seed: u64) {
    let node = net.node_mut(NodeId(node));
    node.absorb(&dataset(points));
    node.quantize(CHURN_K, seed);
}

// ---------------------------------------------------------------------
// Direct layer calls for the traced run.
// ---------------------------------------------------------------------

/// The rectangles the selection index stores, one per node.
pub fn summary_bounds(net: &Network) -> Vec<HyperRect> {
    net.nodes().iter().map(Node::summary_bounds).collect()
}

pub fn build_index(rects: &[HyperRect]) -> SpatialIndex {
    let mut builder = SpatialIndexBuilder::with_capacity(rects[0].dim(), rects.len());
    for rect in rects {
        builder.push(rect);
    }
    builder.build(GridConfig::default())
}

pub type Index = SpatialIndex;

/// What one probe of the index did.
pub struct ProbeCounts {
    pub candidates: u64,
    pub cells_probed: u64,
    pub domains_pruned: u64,
    pub domains: u64,
}

pub fn candidates(index: &Index, query: &Query) -> ProbeCounts {
    let (ids, probe) = index.candidates(query.region());
    ProbeCounts {
        candidates: ids.len() as u64,
        cells_probed: probe.cells_probed,
        domains_pruned: probe.domains_pruned,
        domains: index.n_domains() as u64,
    }
}

/// The joint matrix k-means quantises for one node.
pub fn joint(fed: &Federation, node: usize) -> &Matrix {
    fed.network().nodes()[node].joint()
}

/// One k-means fit; returns the iteration count so the call cannot be
/// optimised away.
pub fn kmeans_fit(data: &Matrix, k: usize, seed: u64) -> usize {
    KMeans::fit(data, &KMeansConfig::with_k(k, seed)).iterations()
}

/// A node's whole dataset scaled to the unit cube, as the round hands
/// it to training.
pub fn unit_scaled_dataset(fed: &Federation, node: usize) -> DenseDataset {
    let data = fed.network().nodes()[node].data();
    let span = |values: &mut dyn Iterator<Item = f64>| {
        values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
    };
    let (x_lo, x_hi) = span(&mut data.x().row_iter().map(|r| r[0]));
    let (y_lo, y_hi) = span(&mut data.y().iter().copied());
    let unit = |v: f64, lo: f64, hi: f64| if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
    let rows: Vec<Vec<f64>> = data
        .x()
        .row_iter()
        .map(|r| vec![unit(r[0], x_lo, x_hi)])
        .collect();
    DenseDataset::new(
        Matrix::from_rows(&rows),
        data.y().iter().map(|&y| unit(y, y_lo, y_hi)).collect(),
    )
}

/// One local training run with the paper's LR configuration; returns
/// the sample-visits performed.
pub fn train_lr(data: &DenseDataset, seed: u64) -> usize {
    let mut model = ModelKind::Linear.build(data.dim(), seed);
    mlkit::train(&mut model, data, &TrainConfig::paper_lr(seed)).samples_seen
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

pub struct Server(ServerHandle);

pub fn spawn_server(fed: Federation) -> std::io::Result<Server> {
    serve::spawn("127.0.0.1:0", fed).map(Server)
}

impl Server {
    pub fn addr(&self) -> &str {
        self.0.addr()
    }

    /// Drains and joins every server thread. Clients must have closed
    /// their sockets: a worker blocked on an idle keep-alive read only
    /// notices the shutdown when that read ends.
    pub fn stop(self) -> std::io::Result<()> {
        self.0.request_shutdown();
        self.0.wait()
    }
}

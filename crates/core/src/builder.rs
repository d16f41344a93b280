//! The high-level federation builder and runner.

use airdata::scenario;
use airdata::Feature;
use edgesim::EdgeNetwork;
use faults::{FaultSpec, FaultTolerance};
use fedlearn::{run_query, run_stream, FederationConfig, RoundOutcome, StreamResult};
use fedlearn::{Aggregation, FederationError, StageOrder};
use geom::Query;
use mlkit::{ModelKind, TrainConfig};
use workload::{generate, QueryWorkload, WorkloadConfig};

use crate::policy_kind::PolicyKind;
use crate::serve_config::AdmissionConfig;

/// Where the node population comes from.
#[derive(Debug, Clone)]
enum NodeSource {
    /// Synthetic air-quality stations (§V-A); one or more input features.
    AirQuality {
        n_nodes: usize,
        hours: u64,
        inputs: Vec<Feature>,
        label: Feature,
    },
    /// The controlled homogeneous regression scenario (§II, Table I).
    Homogeneous { n_nodes: usize, samples: usize },
    /// The controlled heterogeneous regression scenario (§II, Table II).
    Heterogeneous { n_nodes: usize, samples: usize },
    /// Caller-provided datasets.
    Datasets(Vec<(String, mlkit::DenseDataset)>),
}

/// Builder for a [`Federation`].
///
/// Defaults mirror the paper's evaluation: `N = 10` air-quality nodes,
/// `K = 5` clusters, LR model with Table III hyper-parameters, weighted
/// averaging.
#[derive(Debug, Clone)]
pub struct FederationBuilder {
    source: NodeSource,
    k: usize,
    seed: u64,
    model: ModelKind,
    epochs: Option<usize>,
    aggregation: Aggregation,
    capacity_range: Option<(f64, f64)>,
    rounds: usize,
    stage_order: StageOrder,
    telemetry: Option<bool>,
    fleet: Option<bool>,
    trace: Option<Option<telemetry::trace::Clock>>,
    threads: Option<usize>,
    faults: Option<FaultSpec>,
    tolerance: FaultTolerance,
    link_range: Option<((f64, f64), (f64, f64))>,
    selection_cache: bool,
    selection_index: bool,
    admission: AdmissionConfig,
}

impl Default for FederationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FederationBuilder {
    /// A builder with the paper's defaults.
    pub fn new() -> Self {
        Self {
            source: NodeSource::AirQuality {
                n_nodes: 10,
                hours: 24 * 120,
                inputs: vec![Feature::Pm10],
                label: Feature::Pm25,
            },
            k: 5,
            seed: 42,
            model: ModelKind::Linear,
            epochs: None,
            aggregation: Aggregation::WeightedAveraging,
            capacity_range: None,
            rounds: 1,
            stage_order: StageOrder::Sequential,
            telemetry: None,
            fleet: None,
            trace: None,
            threads: None,
            faults: None,
            tolerance: FaultTolerance::default(),
            link_range: None,
            selection_cache: false,
            selection_index: false,
            admission: AdmissionConfig::default(),
        }
    }

    /// Uses `n` synthetic air-quality stations with `hours` hourly
    /// records each (§V-A; inputs PM10, labels PM2.5).
    pub fn air_quality_nodes(mut self, n: usize, hours: u64) -> Self {
        self.source = NodeSource::AirQuality {
            n_nodes: n,
            hours,
            inputs: vec![Feature::Pm10],
            label: Feature::Pm25,
        };
        self
    }

    /// Multi-feature air-quality nodes: the joint data space (and the
    /// query boundary vectors) become `inputs.len() + 1` dimensional.
    pub fn air_quality_multi(
        mut self,
        n: usize,
        hours: u64,
        inputs: Vec<Feature>,
        label: Feature,
    ) -> Self {
        self.source = NodeSource::AirQuality {
            n_nodes: n,
            hours,
            inputs,
            label,
        };
        self
    }

    /// Uses the homogeneous synthetic scenario (§II, Table I).
    pub fn homogeneous_nodes(mut self, n: usize, samples: usize) -> Self {
        self.source = NodeSource::Homogeneous {
            n_nodes: n,
            samples,
        };
        self
    }

    /// Uses the heterogeneous synthetic scenario (§II, Table II).
    pub fn heterogeneous_nodes(mut self, n: usize, samples: usize) -> Self {
        self.source = NodeSource::Heterogeneous {
            n_nodes: n,
            samples,
        };
        self
    }

    /// Uses caller-provided `(name, dataset)` pairs.
    pub fn datasets(mut self, datasets: Vec<(String, mlkit::DenseDataset)>) -> Self {
        self.source = NodeSource::Datasets(datasets);
        self
    }

    /// Clusters per node `K` (the paper fixes 5).
    pub fn clusters_per_node(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Master seed for data generation, quantisation and training.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Model architecture (Table III: LR or NN).
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Overrides the Table III epoch count (100) — the experiment loops
    /// use fewer epochs to keep hundreds of queries tractable.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = Some(epochs);
        self
    }

    /// Aggregation rule (Eq. 6 or Eq. 7).
    pub fn aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// FedAvg-style communication rounds (forces weight aggregation when
    /// above 1; the paper's protocol is single-round).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Supporting-cluster visit order (sequential per §IV-B, or the
    /// interleaved §IV-A mini-batch reading).
    pub fn stage_order(mut self, order: StageOrder) -> Self {
        self.stage_order = order;
        self
    }

    /// Draws heterogeneous compute capacities from `[lo, hi]`.
    pub fn capacities(mut self, lo: f64, hi: f64) -> Self {
        self.capacity_range = Some((lo, hi));
        self
    }

    /// Draws heterogeneous per-node uplinks: bandwidth uniform in
    /// `[bw_lo, bw_hi]` bytes/s and latency uniform in `[lat_lo, lat_hi]`
    /// seconds (deterministic in the master seed).
    pub fn links(mut self, bandwidth: (f64, f64), latency: (f64, f64)) -> Self {
        self.link_range = Some((bandwidth, latency));
        self
    }

    /// Injects deterministic faults (dropout, stragglers, link loss,
    /// crashes) into every round. The schedule is a pure function of the
    /// federation seed and each query id — see the `faults` crate. An
    /// inert spec (all probabilities zero) leaves runs bit-identical to
    /// never calling this.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Configures how the leader tolerates faults: retry/backoff budget,
    /// straggler deadline and quorum rule (which also controls ranked
    /// standby promotion). Defaults to [`FaultTolerance::default`]:
    /// three upload attempts, no deadline, quorum of one.
    pub fn fault_tolerance(mut self, tolerance: FaultTolerance) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Turns the global telemetry registry on (or off) when the
    /// federation is built. Left untouched when never called, so an
    /// already-enabled registry keeps recording. Snapshots are read via
    /// [`telemetry::global`] and exported with [`telemetry::export`].
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = Some(on);
        self
    }

    /// Turns the fleet observability layer (per-node scorecards, skew
    /// analytics and the structured event journal — see
    /// [`telemetry::fleet`] / [`telemetry::journal`]) on or off when the
    /// federation is built. Off by default: scorecards cost one mutex
    /// hop per round-loop event, and disabled runs are bitwise identical
    /// to a build without the layer. Left untouched when never called.
    pub fn fleet(mut self, on: bool) -> Self {
        self.fleet = Some(on);
        self
    }

    /// Turns structured query tracing on (with the given clock) or off
    /// when the federation is built. Pass `Some(Clock::Logical)` for the
    /// deterministic tick clock (traces byte-identical across thread
    /// counts) or `Some(Clock::Wall)` for profiler-style nanosecond
    /// timestamps. Export the trace with
    /// [`telemetry::trace::export_chrome`].
    pub fn trace(mut self, clock: Option<telemetry::trace::Clock>) -> Self {
        self.trace = Some(clock);
        self
    }

    /// Pins the training thread pool to exactly `n` workers (backed by a
    /// process-wide cached pool, [`par::sized`]; threads are created once
    /// per process, not per query). When never called, the federation
    /// uses the global pool ([`par::global`]): `QENS_THREADS` or the
    /// machine's available parallelism. `n == 1` runs participants
    /// inline on the caller — results are bit-identical either way.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Turns the selection memo on (or off) for query-driven policies
    /// built through [`Federation::build_policy`]: a bit-exact repeat of
    /// a rectangle on an unchanged fleet gets the stored selection back
    /// (see [`selection::CachedQueryDriven`]). It pays only where one
    /// built policy sees rectangles again, so it is off by default and
    /// there is no environment switch for it.
    pub fn selection_cache(mut self, on: bool) -> Self {
        self.selection_cache = on;
        self
    }

    /// Checks a bucket width and stores nothing. The width keyed the
    /// serving batcher's coalescing of nearby in-flight queries; the
    /// server now answers each query on its connection thread, and the
    /// memo keys on exact bits, so no code reads a width. The method
    /// stays because the repo benchmark's federations call it.
    ///
    /// # Panics
    /// Panics if `width` is not positive-finite.
    pub fn selection_cache_bucket(self, width: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "cache bucket width must be positive and finite, got {width}"
        );
        self
    }

    /// Picks the candidate source of query-driven policies run through
    /// this federation: a spatial index over the nodes' summary hulls
    /// (`true`, see [`selection::QueryDriven::indexed`]), or every node
    /// (`false`, the default). The selections are bit-identical; only
    /// the work to compute them changes — sublinear in fleet size
    /// instead of scoring every node. Composes with
    /// [`FederationBuilder::selection_cache`]: the memo then sits in
    /// front of the indexed policy.
    pub fn index(mut self, on: bool) -> Self {
        self.selection_index = on;
        self
    }

    /// Pins the serving front end's admission control in place of
    /// [`AdmissionConfig::default`]. Only the serving subsystem
    /// (`repro serve`) reads it.
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = cfg;
        self
    }

    /// Materialises the federation: generates/loads node data, builds the
    /// network and quantises every node.
    pub fn build(self) -> Federation {
        if let Some(on) = self.telemetry {
            telemetry::set_enabled(on);
        }
        if let Some(on) = self.fleet {
            telemetry::fleet::set_enabled(on);
        }
        if let Some(clock) = self.trace {
            telemetry::trace::set_mode(clock);
        }
        let datasets: Vec<(String, mlkit::DenseDataset)> = match self.source {
            NodeSource::AirQuality {
                n_nodes,
                hours,
                inputs,
                label,
            } => scenario::realistic_nodes_multi(n_nodes, hours, self.seed, &inputs, label)
                .into_iter()
                .map(|n| (n.name, n.dataset))
                .collect(),
            NodeSource::Homogeneous { n_nodes, samples } => {
                scenario::homogeneous_nodes(n_nodes, samples, self.seed)
                    .into_iter()
                    .map(|n| (n.name, n.dataset))
                    .collect()
            }
            NodeSource::Heterogeneous { n_nodes, samples } => {
                scenario::heterogeneous_nodes(n_nodes, samples, self.seed)
                    .into_iter()
                    .map(|n| (n.name, n.dataset))
                    .collect()
            }
            NodeSource::Datasets(d) => d,
        };
        let mut network = EdgeNetwork::from_datasets(datasets);
        if let Some((lo, hi)) = self.capacity_range {
            network = network.with_random_capacities(lo, hi, self.seed);
        }
        if let Some((bw, lat)) = self.link_range {
            network = network.with_random_links(bw, lat, self.seed);
        }
        network.quantize_all(self.k, self.seed);

        let mut train = match self.model {
            ModelKind::Linear => TrainConfig::paper_lr(self.seed),
            ModelKind::Neural { .. } => TrainConfig::paper_nn(self.seed),
        };
        if let Some(e) = self.epochs {
            train = train.with_epochs(e);
        }
        let aggregation = if self.rounds > 1 {
            Aggregation::FedAvgWeights
        } else {
            self.aggregation
        };
        let config = FederationConfig {
            model: self.model,
            train,
            aggregation,
            model_seed: self.seed,
            threads: self.threads,
            stage_order: self.stage_order,
            rounds: self.rounds,
            faults: self.faults,
            tolerance: self.tolerance,
        };
        Federation {
            network,
            config,
            seed: self.seed,
            cache: self.selection_cache,
            index: self.selection_index,
            admission: self.admission,
        }
    }
}

/// A ready-to-query federation: the node network plus the learning
/// configuration.
#[derive(Debug, Clone)]
pub struct Federation {
    network: EdgeNetwork,
    config: FederationConfig,
    seed: u64,
    /// Whether the selection memo sits in front of query-driven
    /// policies.
    cache: bool,
    /// Spatial-index candidate generation for query-driven policies.
    index: bool,
    /// Admission control for the serving front end (the builder's
    /// [`FederationBuilder::admission`] or the default).
    admission: AdmissionConfig,
}

impl Federation {
    /// The underlying network (nodes, summaries, cost model).
    pub fn network(&self) -> &EdgeNetwork {
        &self.network
    }

    /// The learning configuration in force.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// Builds a query from a joint-space boundary vector
    /// `[x_1^min, x_1^max, …, y^min, y^max]`.
    pub fn query_from_bounds(&self, id: u64, bounds: &[f64]) -> Query {
        Query::from_boundary_vec(id, bounds)
    }

    /// Generates the paper's 200-query dynamic workload over the
    /// network's global data space.
    pub fn paper_workload(&self, seed: u64) -> QueryWorkload {
        generate(
            &self.network.global_space(),
            &WorkloadConfig::paper_default(seed),
        )
    }

    /// Generates a custom workload over the global space.
    pub fn workload(&self, config: &WorkloadConfig) -> QueryWorkload {
        generate(&self.network.global_space(), config)
    }

    /// The serving front end's admission control in force.
    pub fn admission(&self) -> AdmissionConfig {
        self.admission
    }

    /// Builds the runtime policy object, behind the selection memo
    /// and/or spatial index when enabled and the policy is query-driven.
    /// Memo and index live as long as the returned object: build once
    /// and hand it to `fedlearn::run_query` for every query, as
    /// [`Federation::run_workload`] does for its stream.
    pub fn build_policy(&self, policy: &PolicyKind) -> Box<dyn selection::SelectionPolicy> {
        policy.build_with(self.cache, self.index.then(selection::GridConfig::default))
    }

    /// Runs one query under a policy.
    ///
    /// Builds a fresh policy per call, so an enabled index is rebuilt
    /// and an enabled memo starts empty every time: neither can pay
    /// here. To keep them across queries, call
    /// [`Federation::build_policy`] once and pass the result to
    /// [`fedlearn::run_query`], or use [`Federation::run_workload`].
    pub fn run_query(
        &self,
        query: &Query,
        policy: &PolicyKind,
    ) -> Result<RoundOutcome, FederationError> {
        run_query(
            &self.network,
            query,
            self.build_policy(policy).as_ref(),
            &self.config,
        )
    }

    /// Runs each query through [`fedlearn::run_query`] under one policy
    /// built once, so an enabled index and memo are shared by the queries
    /// of this batch and gone after it. Each query is observed on its
    /// own (trace root, latency sample, flight-recorder entry).
    ///
    /// It stays only because the benchmark façade's batch probe
    /// (`batch8_per_query_us`, `batch_speedup`) calls it; that probe
    /// and this method go together.
    pub fn run_batch(
        &self,
        queries: &[Query],
        policy: &PolicyKind,
    ) -> Vec<Result<RoundOutcome, FederationError>> {
        let policy = self.build_policy(policy);
        queries
            .iter()
            .map(|q| run_query(&self.network, q, policy.as_ref(), &self.config))
            .collect()
    }

    /// Runs a whole workload under a policy.
    pub fn run_workload(&self, workload: &QueryWorkload, policy: &PolicyKind) -> StreamResult {
        run_stream(
            &self.network,
            workload,
            self.build_policy(policy).as_ref(),
            &self.config,
        )
    }

    /// The federation's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::CostModel;

    #[test]
    fn default_builder_matches_paper_setup() {
        let fed = FederationBuilder::new()
            .air_quality_nodes(10, 200)
            .epochs(2)
            .build();
        assert_eq!(fed.network().len(), 10);
        for node in fed.network().nodes() {
            assert!(node.is_quantized());
            assert!(node.k() <= 5);
        }
        assert_eq!(fed.config().model, ModelKind::Linear);
        assert_eq!(fed.config().aggregation, Aggregation::WeightedAveraging);
    }

    #[test]
    fn heterogeneous_build_and_query_round_trip() {
        let fed = FederationBuilder::new()
            .heterogeneous_nodes(6, 100)
            .seed(7)
            .epochs(5)
            .build();
        let q = fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
        let out = fed.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
        assert!(out.query_loss(fed.network(), &q).unwrap().is_finite());
    }

    #[test]
    fn workload_runs_end_to_end() {
        let fed = FederationBuilder::new()
            .homogeneous_nodes(4, 80)
            .seed(3)
            .epochs(3)
            .build();
        let wl = fed.workload(&WorkloadConfig {
            n_queries: 5,
            ..WorkloadConfig::paper_default(9)
        });
        let res = fed.run_workload(&wl, &PolicyKind::query_driven(2));
        assert_eq!(res.per_query.len(), 5);
    }

    #[test]
    fn capacities_and_cost_model_are_applied() {
        let fed = FederationBuilder::new()
            .homogeneous_nodes(4, 50)
            .capacities(0.5, 2.0)
            .epochs(2)
            .build();
        assert_eq!(*fed.network().cost_model(), CostModel::default());
        assert!(fed.network().nodes().iter().any(|n| n.capacity() != 1.0));
    }

    #[test]
    fn pinned_thread_counts_change_nothing_observable() {
        let build = |threads: Option<usize>| {
            let mut b = FederationBuilder::new()
                .heterogeneous_nodes(5, 60)
                .seed(21)
                .epochs(3);
            if let Some(n) = threads {
                b = b.threads(n);
            }
            b.build()
        };
        let q = Query::from_boundary_vec(2, &[0.0, 20.0, 0.0, 45.0]);
        let losses: Vec<f64> = [None, Some(1), Some(3)]
            .into_iter()
            .map(|t| {
                let fed = build(t);
                assert_eq!(fed.config().threads, t);
                let out = fed.run_query(&q, &PolicyKind::query_driven(2)).unwrap();
                out.query_loss(fed.network(), &q).unwrap()
            })
            .collect();
        assert_eq!(losses[0].to_bits(), losses[1].to_bits());
        assert_eq!(losses[0].to_bits(), losses[2].to_bits());
    }

    #[test]
    fn faults_and_tolerance_flow_through_the_builder() {
        let build = |spec: Option<FaultSpec>| {
            let mut b = FederationBuilder::new()
                .heterogeneous_nodes(6, 100)
                .seed(7)
                .epochs(3)
                .links((1e6, 20e6), (0.005, 0.05))
                // Quorum of one: aggregate whoever survives instead of
                // failing the round on heavy dropout (full-strength
                // promotion is exercised in the fedlearn tests).
                .fault_tolerance(FaultTolerance::default());
            if let Some(s) = spec {
                b = b.faults(s);
            }
            b.build()
        };
        let clean = build(None);
        let q = clean.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]);
        let base = clean.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
        assert!(base.fault_trace.is_empty());

        // Heavy dropout still completes: survivors (plus any promoted
        // ranked standbys) carry the round.
        let faulty = build(Some(FaultSpec::dropout(1, 0.5)));
        assert_eq!(faulty.config().faults, Some(FaultSpec::dropout(1, 0.5)));
        let out = faulty.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
        assert!(out.query_loss(faulty.network(), &q).unwrap().is_finite());

        // An inert spec is bit-identical to never configuring faults.
        let inert = build(Some(FaultSpec::none()));
        let same = inert.run_query(&q, &PolicyKind::query_driven(3)).unwrap();
        assert_eq!(
            base.query_loss(clean.network(), &q).unwrap().to_bits(),
            same.query_loss(inert.network(), &q).unwrap().to_bits()
        );
    }

    #[test]
    fn selection_cache_flag_flows_through_and_changes_nothing() {
        let build = |cached: bool| {
            let mut b = FederationBuilder::new()
                .heterogeneous_nodes(5, 60)
                .seed(13)
                .epochs(3);
            if cached {
                b = b.selection_cache(true).selection_cache_bucket(2.5);
            }
            b.build()
        };
        let plain = build(false);
        assert!(!plain.cache);
        let cached = build(true);
        assert!(cached.cache, "cache flag turns the memo on");

        let wl = plain.workload(&WorkloadConfig {
            n_queries: 6,
            ..WorkloadConfig::paper_default(17)
        });
        let a = plain.run_workload(&wl, &PolicyKind::query_driven(3));
        let b = cached.run_workload(&wl, &PolicyKind::query_driven(3));
        // The cache must be invisible in every outcome…
        assert_eq!(a.per_query, b.per_query);
        assert_eq!(a.policy, b.policy);
        // …and visible only in the stats surface.
        assert!(a.cache.is_none());
        let stats = b.cache.expect("cached run reports stats");
        assert_eq!(stats.hits + stats.misses, 6);
    }

    #[test]
    fn index_flag_flows_through_and_changes_nothing() {
        let build = |indexed: bool, cached: bool| {
            let mut b = FederationBuilder::new()
                .heterogeneous_nodes(5, 60)
                .seed(13)
                .epochs(3);
            if indexed {
                b = b.index(true);
            }
            if cached {
                b = b.selection_cache(true);
            }
            b.build()
        };
        let plain = build(false, false);
        assert!(!plain.index);
        let indexed = build(true, false);
        assert!(indexed.index);
        let both = build(true, true);
        assert!(both.index && both.cache);

        let wl = plain.workload(&WorkloadConfig {
            n_queries: 6,
            ..WorkloadConfig::paper_default(17)
        });
        let policy = PolicyKind::query_driven(3);
        let a = plain.run_workload(&wl, &policy);
        let b = indexed.run_workload(&wl, &policy);
        let c = both.run_workload(&wl, &policy);
        // The index must be invisible in every outcome, alone and
        // composed with the cache.
        assert_eq!(a.per_query, b.per_query);
        assert_eq!(a.per_query, c.per_query);
        assert_eq!(a.policy, b.policy);
    }

    #[test]
    fn admission_config_flows_through_the_builder() {
        let fed = FederationBuilder::new()
            .homogeneous_nodes(3, 40)
            .epochs(2)
            .admission(AdmissionConfig {
                body_cap_bytes: 4096,
            })
            .build();
        assert_eq!(fed.admission().body_cap_bytes, 4096);
    }

    #[test]
    fn run_batch_matches_run_query_through_the_federation() {
        let fed = FederationBuilder::new()
            .heterogeneous_nodes(5, 60)
            .seed(13)
            .epochs(3)
            .selection_cache(true)
            .build();
        let queries = vec![
            fed.query_from_bounds(0, &[0.0, 20.0, 0.0, 45.0]),
            fed.query_from_bounds(1, &[0.0, 20.0, 0.0, 45.0]),
            fed.query_from_bounds(2, &[0.0, 10.0, 0.0, 25.0]),
        ];
        let policy = PolicyKind::query_driven(3);
        let batched = fed.run_batch(&queries, &policy);
        for (q, b) in queries.iter().zip(&batched) {
            let single = fed.run_query(q, &policy).unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(b.selection, single.selection);
            assert_eq!(
                b.query_loss(fed.network(), q).unwrap().to_bits(),
                single.query_loss(fed.network(), q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let build = || {
            FederationBuilder::new()
                .heterogeneous_nodes(5, 60)
                .seed(99)
                .epochs(2)
                .build()
        };
        let a = build();
        let b = build();
        let q = a.query_from_bounds(1, &[0.0, 20.0, 0.0, 45.0]);
        let oa = a.run_query(&q, &PolicyKind::query_driven(2)).unwrap();
        let ob = b.run_query(&q, &PolicyKind::query_driven(2)).unwrap();
        assert_eq!(
            oa.query_loss(a.network(), &q).unwrap(),
            ob.query_loss(b.network(), &q).unwrap()
        );
    }
}

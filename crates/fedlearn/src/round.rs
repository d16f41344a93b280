//! One query's federation round (§IV-B).

use std::time::Instant;

use edgesim::{EdgeNetwork, QueryAccounting, SpaceScaler};
use faults::{FaultEvent, FaultPlan, FaultSpec, FaultTolerance, FaultTrace, ParticipantFate};
use geom::Query;
use linalg::rng as lrng;
use mlkit::{DenseDataset, Model, ModelKind, Regressor, TrainConfig};
use selection::{Participant, Selection, SelectionContext, SelectionPolicy};

use crate::aggregate::{Aggregation, GlobalModel};
use crate::error::FederationError;

/// Order in which a participant visits its supporting clusters.
///
/// The paper describes both: §IV-B says the model trains `E` rounds on
/// each cluster *then* moves to the next ([`StageOrder::Sequential`]),
/// while the §IV-A remark calls each cluster "a mini-batch"
/// ([`StageOrder::Interleaved`]: every epoch cycles through all
/// clusters). Sequential is the default; interleaved protects non-linear
/// models from intra-node forgetting at high epoch counts (see the
/// `stage_order` rows of `repro ablations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOrder {
    /// E epochs on cluster 1, then E on cluster 2, ... (§IV-B).
    Sequential,
    /// Each epoch visits every cluster once (§IV-A's mini-batch reading).
    Interleaved,
}

/// Configuration of the distributed-learning mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationConfig {
    /// Architecture broadcast to participants.
    pub model: ModelKind,
    /// Per-stage local training schedule (`E` epochs per supporting
    /// cluster, §IV-B).
    pub train: TrainConfig,
    /// How the leader folds the local models together.
    pub aggregation: Aggregation,
    /// Seed for the initial global model.
    pub model_seed: u64,
    /// Train participants on the bounded [`par`] thread pool
    /// (deterministic either way; serial mode exists for timing
    /// experiments that want one core).
    pub parallel: bool,
    /// Worker count for participant training: `Some(n)` pins a cached
    /// process-wide pool of exactly `n` workers ([`par::sized`]), `None`
    /// uses the global pool ([`par::global`]: `QENS_THREADS` or the
    /// machine's available parallelism). Either way threads are created
    /// once per process — never once per participant-round.
    pub threads: Option<usize>,
    /// Supporting-cluster visit order (see [`StageOrder`]).
    pub stage_order: StageOrder,
    /// Communication rounds. The paper's protocol is single-round
    /// (participants train once, the leader aggregates once); values
    /// above 1 enable FedAvg-style iterative refinement — after each
    /// aggregation the averaged weights are broadcast back and local
    /// training repeats — and therefore require
    /// [`Aggregation::FedAvgWeights`] (prediction ensembles have no
    /// single weight vector to re-broadcast).
    pub rounds: usize,
    /// Fault injection: `None` (the default) runs the fault-free engine —
    /// bit-identical to releases that predate the fault subsystem —
    /// while `Some(spec)` drives the deterministic [`faults::FaultPlan`]
    /// oracle (same seed ⇒ same events, for any thread count).
    pub faults: Option<FaultSpec>,
    /// How the federation reacts to injected faults: transfer retries
    /// with capped exponential backoff, an optional straggler deadline,
    /// and the quorum rule that triggers ranked standby promotion.
    /// Consulted only where a fault actually fires, so the default
    /// tolerance adds nothing to a fault-free run.
    pub tolerance: FaultTolerance,
}

impl FederationConfig {
    /// The paper's "LR" column with weighted averaging.
    pub fn paper_lr(seed: u64) -> Self {
        Self {
            model: ModelKind::Linear,
            train: TrainConfig::paper_lr(seed),
            aggregation: Aggregation::WeightedAveraging,
            model_seed: seed,
            parallel: true,
            threads: None,
            stage_order: StageOrder::Sequential,
            rounds: 1,
            faults: None,
            tolerance: FaultTolerance::default(),
        }
    }

    /// The paper's "NN" column with weighted averaging.
    pub fn paper_nn(seed: u64) -> Self {
        Self {
            model: ModelKind::PAPER_NN,
            train: TrainConfig::paper_nn(seed),
            aggregation: Aggregation::WeightedAveraging,
            model_seed: seed,
            parallel: true,
            threads: None,
            stage_order: StageOrder::Sequential,
            rounds: 1,
            faults: None,
            tolerance: FaultTolerance::default(),
        }
    }

    /// Pins the training pool's worker count (see
    /// [`FederationConfig::threads`]).
    pub fn with_thread_count(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Swaps the aggregation rule.
    pub fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Enables FedAvg-style multi-round refinement (implies
    /// [`Aggregation::FedAvgWeights`]).
    ///
    /// `rounds == 0` is not rejected here: [`run_query`] surfaces it as
    /// the recoverable [`FederationError::UnsupportedConfig`] instead of
    /// aborting the process mid-sweep.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        if rounds > 1 {
            self.aggregation = Aggregation::FedAvgWeights;
        }
        self
    }

    /// Enables deterministic fault injection (see
    /// [`FederationConfig::faults`]).
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Sets the fault reaction policy (see
    /// [`FederationConfig::tolerance`]).
    pub fn with_tolerance(mut self, tolerance: FaultTolerance) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// Everything a completed round produced.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The aggregated global model.
    pub global: GlobalModel,
    /// The scaler broadcast alongside the model (needed to score the
    /// global model on raw data).
    pub scaler: SpaceScaler,
    /// Which nodes participated with which clusters.
    pub selection: Selection,
    /// The resource ledger.
    pub accounting: QueryAccounting,
    /// Every fault (and fault reaction) that fired, in leader
    /// observation order. Empty for fault-free runs.
    pub fault_trace: FaultTrace,
    /// The cohort still active when the last round closed: the initially
    /// selected participants with training data, minus permanent
    /// crashes, plus promoted standbys.
    pub final_cohort: Vec<Participant>,
}

impl RoundOutcome {
    /// Evaluates the global model on the query's own data region: the
    /// union, over *all* nodes, of the samples whose joint point falls
    /// inside the query rectangle. This is the paper's per-query
    /// "expected loss" — how well the model serves the data actually
    /// requested. Losses are in scaled (unit-cube) label units; multiply
    /// by [`SpaceScaler::unscale_mse`] for raw units.
    ///
    /// Returns `None` when no sample falls inside the query region.
    pub fn query_loss(&self, network: &EdgeNetwork, query: &Query) -> Option<f64> {
        let test = query_region_dataset(network, query, &self.scaler)?;
        Some(self.global.mse(&test))
    }
}

/// Collects the (scaled) samples inside the query region across the
/// whole network.
pub fn query_region_dataset(
    network: &EdgeNetwork,
    query: &Query,
    scaler: &SpaceScaler,
) -> Option<DenseDataset> {
    let mut parts: Vec<DenseDataset> = Vec::new();
    for node in network.nodes() {
        let idx = query.filter_indices(node.joint().row_iter());
        if !idx.is_empty() {
            parts.push(scaler.transform_dataset(&node.data().select(&idx)));
        }
    }
    let mut it = parts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, p| acc.concat(&p)))
}

/// What one participant's local training produced.
struct LocalResult {
    index: usize,
    model: Model,
    samples_used: usize,
    sample_visits: usize,
    wall_seconds: f64,
}

/// One member of the active training cohort. Owned (not borrowed from
/// the [`Selection`]) because fault tolerance may extend the cohort with
/// promoted standbys mid-round.
struct CohortMember {
    participant: Participant,
    stages: Vec<DenseDataset>,
}

impl CohortMember {
    fn has_data(&self) -> bool {
        self.stages.iter().any(|s| !s.is_empty())
    }
}

/// A participant whose report reached the leader in time this round.
struct Survivor {
    ranking: f64,
    samples_used: usize,
    model: Model,
}

/// Wall-clock credited to one communication round.
///
/// When the participants trained concurrently on the pool the round is
/// over once the *slowest* one finishes (max); when they trained one
/// after another on the caller's thread the round took the *sum* of the
/// individual walls. Using max unconditionally (the old behaviour)
/// under-reports serial runs by up to a factor of the participant count.
fn round_wall_seconds(pooled: bool, walls: &[f64]) -> f64 {
    if pooled {
        walls.iter().copied().fold(0.0, f64::max)
    } else {
        walls.iter().sum()
    }
}

/// Runs one complete round: selection → local training → aggregation.
///
/// Training is deterministic in the configuration regardless of
/// `config.parallel`: every participant derives its RNG streams from the
/// query id and its node id only.
pub fn run_query(
    network: &EdgeNetwork,
    query: &Query,
    policy: &dyn SelectionPolicy,
    config: &FederationConfig,
) -> Result<RoundOutcome, FederationError> {
    if config.rounds == 0 {
        return Err(FederationError::UnsupportedConfig {
            query_id: query.id(),
            reason: "at least one communication round is required".into(),
        });
    }
    if config.rounds > 1 && config.aggregation != Aggregation::FedAvgWeights {
        return Err(FederationError::UnsupportedConfig {
            query_id: query.id(),
            reason: "multi-round refinement requires FedAvg weight aggregation \
                     (prediction ensembles have no single weight vector to re-broadcast)"
                .into(),
        });
    }
    if let Some(spec) = &config.faults {
        if let Err(reason) = spec.validate() {
            return Err(FederationError::UnsupportedConfig {
                query_id: query.id(),
                reason: format!("invalid fault spec: {reason}"),
            });
        }
    }
    // Per-query attribution: every metric recorded until the scope drops
    // is credited to this query id in the registry's query ring, and every
    // trace event is stamped with the query id (the root of the tree).
    // The profile observer is declared first so it drops *last* — after
    // the query span's End event is buffered — and can hand the complete
    // span tree to the flight recorder and the latency to the SLO tracker.
    let _profile_obs = telemetry::profile::QueryObserver::begin(query.id());
    let _query_scope = telemetry::QueryScope::begin(query.id());
    let _run_span = telemetry::span!("qens_fedlearn_run_query_nanos");
    let _trace_query = telemetry::trace::query_span(query.id());
    let ctx = SelectionContext::new(network, query);
    let select_span = telemetry::trace::span("fedlearn.select");
    let selection = policy.select(&ctx);
    select_span.finish();
    telemetry::trace::instant(
        "fedlearn.selected",
        &[
            ("participants", selection.participants.len() as u64),
            ("standby", selection.standby.len() as u64),
        ],
    );
    if selection.is_empty() {
        return Err(FederationError::NoParticipants {
            query_id: query.id(),
        });
    }
    // Fleet scorecards: credit each selected node (leader-serial, so the
    // registry and journal are deterministic at any thread count). The
    // enabled() guard keeps the summary_epoch lookups off the fast path.
    if telemetry::fleet::enabled() {
        telemetry::fleet::observe_fleet(network.len());
        for (rank, p) in selection.participants.iter().enumerate() {
            let epoch = network.node(p.node).summary_epoch();
            telemetry::fleet::selected(query.id(), p.node.0 as u64, epoch);
            telemetry::journal::node_selected(query.id(), p.node.0 as u64, rank as u64);
        }
    }
    let overhead = policy.overhead(&ctx);
    let scaler = SpaceScaler::from_space(&network.global_space());

    // The leader's initial global model, broadcast to every participant.
    let dim = network.nodes()[0].data().dim();
    let mut initial = config.model.build(dim, config.model_seed);

    // Per-participant training stages (scaled).
    let build_member = |p: &Participant| -> CohortMember {
        let node = network.node(p.node);
        let stages: Vec<DenseDataset> = if p.supporting_clusters.is_empty() {
            vec![scaler.transform_dataset(&node.full_dataset())]
        } else {
            p.supporting_clusters
                .iter()
                .map(|c| scaler.transform_dataset(&node.cluster_dataset(c.cluster_id)))
                .collect()
        };
        CohortMember {
            participant: p.clone(),
            stages,
        }
    };
    let mut cohort: Vec<CohortMember> = selection
        .participants
        .iter()
        .map(&build_member)
        .filter(CohortMember::has_data)
        .collect();
    if cohort.is_empty() {
        return Err(FederationError::NoTrainingData {
            query_id: query.id(),
        });
    }

    let cost = network.cost_model();
    let model_bytes = initial.num_weights() * 8;
    let overhead_seconds: f64 = overhead
        .per_node_visits
        .iter()
        .map(|&(id, visits)| cost.training_seconds(visits, network.node(id).capacity()))
        .fold(0.0, f64::max)
        + if overhead.bytes > 0 {
            cost.transfer_seconds(overhead.bytes)
        } else {
            0.0
        };
    let mut accounting = QueryAccounting {
        query_id: query.id(),
        nodes_selected: cohort.len(),
        samples_total: network.total_samples(),
        sample_visits: overhead
            .per_node_visits
            .iter()
            .map(|&(_, v)| v)
            .sum::<usize>(),
        sim_seconds: overhead_seconds,
        sim_seconds_total: overhead_seconds,
        bytes_transferred: overhead.bytes,
        ..QueryAccounting::default()
    };

    // The training pool: resolved once per call, but the workers behind
    // it live for the whole process ([`par::global`] / [`par::sized`]) —
    // no per-round or per-participant thread creation.
    let sized_pool;
    let pool: &par::ThreadPool = match config.threads {
        Some(n) => {
            sized_pool = par::sized(n);
            &sized_pool
        }
        None => par::global(),
    };

    // The deterministic fault oracle for this query. `None` — no spec,
    // or an inert one — is the fault-free fast path: every fate below
    // then defaults to healthy and no event can fire, which keeps the
    // arithmetic (and therefore the outcome) bit-identical to the
    // pre-fault engine.
    let plan: Option<FaultPlan> = config
        .faults
        .as_ref()
        .filter(|spec| !spec.is_inert())
        .map(|spec| FaultPlan::for_query(spec.clone(), network.len(), query.id()));
    // Quorum is a fraction/count of the *originally selected* cohort.
    let required = config.tolerance.quorum.required(cohort.len());
    let mut trace = FaultTrace::default();
    let mut standby_queue = selection.standby.iter();

    let mut global = None;
    for round in 0..config.rounds {
        let _round_span = telemetry::trace::span_args("fedlearn.round", &[("round", round as u64)]);
        let broadcast = &initial;
        let train_one = |index: usize, member: &CohortMember| -> LocalResult {
            let node = network.node(member.participant.node);
            let mut model = broadcast.clone();
            let train_cfg = TrainConfig {
                seed: lrng::derive_seed(
                    config.train.seed,
                    query.id() ^ ((node.id().0 as u64) << 32) ^ ((round as u64) << 48),
                ),
                ..config.train.clone()
            };
            let samples_used: usize = member.stages.iter().map(DenseDataset::len).sum();
            // Counter adds are relaxed atomics, so these totals are
            // identical whether participants train on threads or inline.
            telemetry::counter!("qens_fedlearn_participants_total").incr();
            telemetry::counter!("qens_fedlearn_stages_total").add(member.stages.len() as u64);
            telemetry::counter!("qens_fedlearn_samples_used_total").add(samples_used as u64);
            let train_span = telemetry::span!("qens_fedlearn_train_nanos");
            // Worker-side span: wall mode only (participants may train on
            // pool threads, so the event order is scheduling-dependent).
            let _trace_train = telemetry::trace::wall_span_args(
                "fedlearn.train",
                &[
                    ("node", node.id().0 as u64),
                    ("round", round as u64),
                    ("samples", samples_used as u64),
                ],
            );
            let start = Instant::now();
            let report = match config.stage_order {
                StageOrder::Sequential => {
                    mlkit::train_incremental(&mut model, &member.stages, &train_cfg)
                }
                StageOrder::Interleaved => {
                    mlkit::train_interleaved(&mut model, &member.stages, &train_cfg)
                }
            };
            let wall = start.elapsed().as_secs_f64();
            train_span.finish();
            telemetry::counter!("qens_fedlearn_sample_visits_total")
                .add(report.samples_seen as u64);
            LocalResult {
                index,
                model,
                samples_used,
                sample_visits: report.samples_seen,
                wall_seconds: wall,
            }
        };

        // Per-round ledgers, accumulated across cohort batches (the
        // initial cohort plus any promoted-standby batches).
        let mut survivors: Vec<Survivor> = Vec::new();
        let mut per_node_seconds: Vec<f64> = Vec::new();
        let mut round_bytes = 0usize;
        let mut round_samples_used = 0usize;
        let mut round_sample_visits = 0usize;
        let mut crashed_indices: Vec<usize> = Vec::new();
        let mut pending: Vec<usize> = (0..cohort.len()).collect();

        loop {
            // Fate pass (serial, roster order): the plan is a pure
            // oracle, so this order affects only the trace layout —
            // which is exactly what makes the trace bit-identical
            // across runs and thread counts.
            let fates_span = telemetry::trace::span_args(
                "fedlearn.fates",
                &[("round", round as u64), ("pending", pending.len() as u64)],
            );
            let mut attempters: Vec<usize> = Vec::new();
            let mut slowdowns: Vec<f64> = Vec::new();
            for &ci in &pending {
                let node_idx = cohort[ci].participant.node.0;
                let fate = plan
                    .as_ref()
                    .map_or(ParticipantFate::Participates { slowdown: 1.0 }, |p| {
                        p.fate(node_idx, round)
                    });
                match fate {
                    ParticipantFate::Crashed => {
                        trace.push(FaultEvent::Crash {
                            node: node_idx,
                            round,
                        });
                        telemetry::trace::instant(
                            "fault.crash",
                            &[("node", node_idx as u64), ("round", round as u64)],
                        );
                        accounting.dropped_participants += 1;
                        telemetry::fleet::dropped(node_idx as u64);
                        telemetry::journal::node_dropped(
                            query.id(),
                            node_idx as u64,
                            round as u64,
                            "crash",
                        );
                        crashed_indices.push(ci);
                    }
                    ParticipantFate::Dropped => {
                        trace.push(FaultEvent::Dropout {
                            node: node_idx,
                            round,
                        });
                        telemetry::trace::instant(
                            "fault.dropout",
                            &[("node", node_idx as u64), ("round", round as u64)],
                        );
                        accounting.dropped_participants += 1;
                        telemetry::fleet::dropped(node_idx as u64);
                        telemetry::journal::node_dropped(
                            query.id(),
                            node_idx as u64,
                            round as u64,
                            "dropout",
                        );
                    }
                    ParticipantFate::Participates { slowdown } => {
                        if slowdown > 1.0 {
                            trace.push(FaultEvent::Straggler {
                                node: node_idx,
                                round,
                                slowdown,
                            });
                            telemetry::trace::instant(
                                "fault.straggler",
                                &[
                                    ("node", node_idx as u64),
                                    ("round", round as u64),
                                    ("slowdown_milli", (slowdown * 1000.0) as u64),
                                ],
                            );
                            telemetry::fleet::straggled(node_idx as u64);
                        }
                        attempters.push(ci);
                        slowdowns.push(slowdown);
                    }
                }
            }
            fates_span.finish();

            // Training pass: one pool job per attempter (chunk size 1),
            // so results land in attempter order — the pool writes each
            // result into its own index slot, for any worker count.
            // The wave span is leader-side (deterministic) and covers the
            // pooled and inline branches identically, so logical-clock
            // profiles attribute training time regardless of QENS_THREADS.
            let train_wave_span = telemetry::trace::span_args(
                "fedlearn.train_wave",
                &[
                    ("round", round as u64),
                    ("attempters", attempters.len() as u64),
                ],
            );
            let (results, pooled) = {
                let batch_jobs: Vec<&CohortMember> =
                    attempters.iter().map(|&ci| &cohort[ci]).collect();
                let pooled = config.parallel && batch_jobs.len() > 1 && pool.threads() > 1;
                let results: Vec<LocalResult> = if pooled {
                    pool.map_indexed(&batch_jobs, 1, |i, member| train_one(i, member))
                } else {
                    batch_jobs
                        .iter()
                        .enumerate()
                        .map(|(i, member)| train_one(i, member))
                        .collect()
                };
                (results, pooled)
            };
            train_wave_span.finish();
            debug_assert!(results.windows(2).all(|w| w[0].index < w[1].index));
            let walls: Vec<f64> = results.iter().map(|r| r.wall_seconds).collect();
            accounting.wall_seconds += round_wall_seconds(pooled, &walls);

            // Transfer/deadline pass (serial, attempter order).
            let transfer_wave_span = telemetry::trace::span_args(
                "fedlearn.transfer_wave",
                &[("round", round as u64), ("reports", walls.len() as u64)],
            );
            for r in results {
                let ci = attempters[r.index];
                let member = &cohort[ci];
                let node = network.node(member.participant.node);
                let node_idx = member.participant.node.0;
                let slowdown = slowdowns[r.index];
                round_samples_used += r.samples_used;
                round_sample_visits += r.sample_visits;
                let train_sim = cost.training_seconds(r.sample_visits, node.capacity()) * slowdown;

                // Upload attempts under the retry budget: each lost
                // attempt is an independent deterministic draw.
                let max_attempts = config.tolerance.retry.max_attempts.max(1);
                let mut failed = 0usize;
                let mut delivered = plan.is_none();
                if let Some(p) = plan.as_ref() {
                    for attempt in 0..max_attempts {
                        if p.transfer_attempt_fails(node_idx, round, attempt) {
                            trace.push(FaultEvent::LinkLoss {
                                node: node_idx,
                                round,
                                attempt,
                            });
                            telemetry::trace::instant(
                                "fault.link_loss",
                                &[
                                    ("node", node_idx as u64),
                                    ("round", round as u64),
                                    ("attempt", attempt as u64),
                                ],
                            );
                            failed += 1;
                        } else {
                            delivered = true;
                            break;
                        }
                    }
                }
                accounting.retries += failed;
                if failed > 0 {
                    telemetry::fleet::retried(node_idx as u64, failed as u64);
                }
                let retry_penalty =
                    node.link()
                        .retry_penalty_seconds(model_bytes, failed, &config.tolerance.retry);
                if !delivered {
                    // Retry budget exhausted: the report never reached
                    // the leader. Charge the broadcast plus every lost
                    // upload; there is no model to aggregate.
                    trace.push(FaultEvent::TransferFailed {
                        node: node_idx,
                        round,
                        attempts: failed,
                    });
                    telemetry::trace::instant(
                        "fault.transfer_failed",
                        &[
                            ("node", node_idx as u64),
                            ("round", round as u64),
                            ("attempts", failed as u64),
                        ],
                    );
                    accounting.dropped_participants += 1;
                    telemetry::fleet::dropped(node_idx as u64);
                    telemetry::journal::node_dropped(
                        query.id(),
                        node_idx as u64,
                        round as u64,
                        "transfer",
                    );
                    let charged =
                        train_sim + node.link().transfer_seconds(model_bytes) + retry_penalty;
                    per_node_seconds.push(charged);
                    telemetry::fleet::trained(
                        node_idx as u64,
                        charged,
                        (r.wall_seconds * 1e9) as u64,
                    );
                    let bytes = (1 + failed) * model_bytes;
                    round_bytes += bytes;
                    telemetry::fleet::transferred(node_idx as u64, bytes as u64);
                    telemetry::trace::instant(
                        "edgesim.transfer",
                        &[("node", node_idx as u64), ("bytes", bytes as u64)],
                    );
                    continue;
                }
                if failed > 0 {
                    trace.push(FaultEvent::RetrySuccess {
                        node: node_idx,
                        round,
                        retries: failed,
                    });
                    telemetry::trace::instant(
                        "fault.retry_success",
                        &[
                            ("node", node_idx as u64),
                            ("round", round as u64),
                            ("retries", failed as u64),
                        ],
                    );
                }
                // Fault-free identity: slowdown is 1.0 and the penalty
                // 0.0 here, so `finish` reduces bit-exactly to the
                // pre-fault `training + transfer(2·bytes)` charge.
                let finish =
                    train_sim + node.link().transfer_seconds(2 * model_bytes) + retry_penalty;
                if let Some(deadline) = config.tolerance.straggler_deadline_seconds {
                    if finish > deadline {
                        // The leader stopped waiting at the deadline; the
                        // (completed) work is discarded for this round.
                        trace.push(FaultEvent::DeadlineMiss {
                            node: node_idx,
                            round,
                            deadline_seconds: deadline,
                            finish_seconds: finish,
                        });
                        telemetry::trace::instant(
                            "fault.deadline_miss",
                            &[("node", node_idx as u64), ("round", round as u64)],
                        );
                        accounting.deadline_misses += 1;
                        accounting.dropped_participants += 1;
                        telemetry::fleet::dropped(node_idx as u64);
                        telemetry::journal::straggler_deadline(
                            query.id(),
                            node_idx as u64,
                            round as u64,
                        );
                        per_node_seconds.push(deadline);
                        telemetry::fleet::trained(
                            node_idx as u64,
                            deadline,
                            (r.wall_seconds * 1e9) as u64,
                        );
                        let bytes = (2 + failed) * model_bytes;
                        round_bytes += bytes;
                        telemetry::fleet::transferred(node_idx as u64, bytes as u64);
                        telemetry::trace::instant(
                            "edgesim.transfer",
                            &[("node", node_idx as u64), ("bytes", bytes as u64)],
                        );
                        continue;
                    }
                }
                per_node_seconds.push(finish);
                telemetry::fleet::trained(node_idx as u64, finish, (r.wall_seconds * 1e9) as u64);
                let bytes = (2 + failed) * model_bytes;
                round_bytes += bytes;
                telemetry::fleet::transferred(node_idx as u64, bytes as u64);
                telemetry::trace::instant(
                    "edgesim.transfer",
                    &[("node", node_idx as u64), ("bytes", bytes as u64)],
                );
                survivors.push(Survivor {
                    ranking: member.participant.ranking,
                    samples_used: r.samples_used,
                    model: r.model,
                });
            }
            transfer_wave_span.finish();

            if survivors.len() >= required {
                break;
            }
            // Below quorum: promote ranked standbys to cover the
            // deficit, then run them through the same round's fate /
            // training / transfer passes.
            let promote_span =
                telemetry::trace::span_args("fedlearn.promote", &[("round", round as u64)]);
            let deficit = required - survivors.len();
            let mut promoted: Vec<usize> = Vec::new();
            while promoted.len() < deficit {
                let Some(p) = standby_queue.next() else { break };
                let member = build_member(&policy.promote(&ctx, p));
                // Standbys without training data are skipped — they
                // could never report a model.
                if member.has_data() {
                    trace.push(FaultEvent::Replacement {
                        standby: p.node.0,
                        round,
                    });
                    telemetry::trace::instant(
                        "fault.replacement",
                        &[("standby", p.node.0 as u64), ("round", round as u64)],
                    );
                    accounting.replacements += 1;
                    telemetry::fleet::promoted(p.node.0 as u64);
                    telemetry::journal::standby_promoted(query.id(), p.node.0 as u64, round as u64);
                    cohort.push(member);
                    promoted.push(cohort.len() - 1);
                }
            }
            promote_span.finish();
            if promoted.is_empty() {
                trace.push(FaultEvent::QuorumLost {
                    round,
                    survivors: survivors.len(),
                    required,
                });
                telemetry::trace::instant(
                    "fault.quorum_lost",
                    &[
                        ("round", round as u64),
                        ("survivors", survivors.len() as u64),
                        ("required", required as u64),
                    ],
                );
                telemetry::journal::quorum_lost(query.id(), round as u64, survivors.len() as u64);
                for m in &cohort {
                    telemetry::fleet::quorum_lost(m.participant.node.0 as u64);
                }
                return Err(FederationError::QuorumLost {
                    query_id: query.id(),
                    round,
                    survivors: survivors.len(),
                    required,
                });
            }
            pending = promoted;
        }

        // Aggregate the survivors' local models.
        let lambdas: Vec<f64> = survivors.iter().map(|s| s.ranking).collect();
        let samples: Vec<usize> = survivors.iter().map(|s| s.samples_used).collect();
        let models: Vec<Model> = survivors.into_iter().map(|s| s.model).collect();
        let agg_span = telemetry::span!("qens_fedlearn_aggregate_nanos");
        let trace_agg = telemetry::trace::span_args(
            "fedlearn.aggregate",
            &[("survivors", models.len() as u64), ("round", round as u64)],
        );
        let aggregated = GlobalModel::aggregate(config.aggregation, models, &lambdas, &samples);
        trace_agg.finish();
        agg_span.finish();
        telemetry::counter!("qens_fedlearn_rounds_total").incr();
        telemetry::counter!("qens_fedlearn_model_bytes_total").add(round_bytes as u64);

        // Accounting: every round pays training on the slowest charged
        // node plus the model transfers that actually happened, each at
        // the node's own uplink speed.
        accounting.samples_used = round_samples_used;
        accounting.sample_visits += round_sample_visits;
        accounting.sim_seconds += per_node_seconds.iter().copied().fold(0.0, f64::max);
        accounting.sim_seconds_total += per_node_seconds.iter().sum::<f64>();
        accounting.bytes_transferred += round_bytes;

        // Permanent crashes leave the cohort before the next round.
        if !crashed_indices.is_empty() {
            let mut keep = vec![true; cohort.len()];
            for &ci in &crashed_indices {
                keep[ci] = false;
            }
            let mut it = keep.into_iter();
            cohort.retain(|_| it.next().expect("keep mask covers the cohort"));
        }

        // Broadcast the averaged weights back for the next round.
        if let GlobalModel::Single(model) = &aggregated {
            initial = model.clone();
        }
        global = Some(aggregated);
    }

    let global = global.expect("at least one round ran");
    let final_cohort: Vec<Participant> = cohort.iter().map(|m| m.participant.clone()).collect();
    for p in &final_cohort {
        telemetry::fleet::participated(p.node.0 as u64);
    }
    // Satellite coupling: the simulator ledger and the telemetry counters
    // must tell the same story (asserted in tests/telemetry_pipeline.rs).
    accounting.commit_telemetry();
    Ok(RoundOutcome {
        global,
        scaler,
        selection,
        accounting,
        fault_trace: trace,
        final_cohort,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdata::scenario;
    use selection::{AllNodes, QueryDriven, RandomSelection};

    fn network(hetero: bool) -> EdgeNetwork {
        let nodes = if hetero {
            scenario::heterogeneous_nodes(5, 120, 3)
        } else {
            scenario::homogeneous_nodes(5, 120, 3)
        };
        let mut net =
            EdgeNetwork::from_datasets(nodes.into_iter().map(|n| (n.name, n.dataset)).collect());
        net.quantize_all(5, 1);
        net
    }

    fn fast_cfg(seed: u64) -> FederationConfig {
        FederationConfig {
            train: TrainConfig::paper_lr(seed).with_epochs(15),
            ..FederationConfig::paper_lr(seed)
        }
    }

    /// A query over the leader-like region of the heterogeneous scenario
    /// (x in [0,20], y = 2x+3 -> joint region [0,20] x [0,45]).
    fn leader_query() -> Query {
        Query::from_boundary_vec(0, &[0.0, 20.0, 0.0, 45.0])
    }

    #[test]
    fn round_produces_a_finite_model_and_sane_accounting() {
        let net = network(true);
        let out = run_query(&net, &leader_query(), &QueryDriven::top_l(3), &fast_cfg(1)).unwrap();
        assert!(out.accounting.nodes_selected >= 1);
        assert!(out.accounting.samples_used <= net.total_samples());
        assert!(out.accounting.sim_seconds > 0.0);
        assert!(out.accounting.bytes_transferred > 0);
        let loss = out.query_loss(&net, &leader_query()).unwrap();
        assert!(loss.is_finite() && loss >= 0.0);
    }

    #[test]
    fn query_driven_beats_random_on_heterogeneous_nodes() {
        // Averaged over several queries: a single random draw can get
        // lucky and pick the compatible nodes, but on average it trains
        // on the wrong data (only 2 of 5 nodes match the leader region).
        let net = network(true);
        let mut ours_total = 0.0;
        let mut random_total = 0.0;
        for qid in 0..8u64 {
            let q = Query::from_boundary_vec(qid, &[0.0, 20.0, 0.0, 45.0]);
            let ours = run_query(&net, &q, &QueryDriven::top_l(2), &fast_cfg(5)).unwrap();
            let random =
                run_query(&net, &q, &RandomSelection { l: 2, seed: 999 }, &fast_cfg(5)).unwrap();
            ours_total += ours.query_loss(&net, &q).unwrap();
            random_total += random.query_loss(&net, &q).unwrap();
        }
        assert!(
            ours_total < random_total,
            "query-driven mean loss {ours_total} should beat random {random_total}"
        );
    }

    #[test]
    fn query_driven_uses_less_data_than_all_nodes() {
        let net = network(true);
        // A query over *part* of the leader region: only some clusters of
        // the matching nodes support it, so data selectivity bites.
        let q = Query::from_boundary_vec(0, &[0.0, 10.0, 0.0, 25.0]);
        let ours = run_query(&net, &q, &QueryDriven::top_l(3), &fast_cfg(2)).unwrap();
        let all = run_query(&net, &q, &AllNodes, &fast_cfg(2)).unwrap();
        assert!(ours.accounting.samples_used < all.accounting.samples_used);
        assert!(
            ours.accounting.sim_seconds < all.accounting.sim_seconds,
            "ours {} vs all {}",
            ours.accounting.sim_seconds,
            all.accounting.sim_seconds
        );
        assert_eq!(all.accounting.samples_used, net.total_samples());
    }

    #[test]
    fn parallel_and_serial_rounds_agree() {
        let net = network(true);
        let q = leader_query();
        let par = run_query(&net, &q, &QueryDriven::top_l(3), &fast_cfg(7)).unwrap();
        let ser = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &FederationConfig {
                parallel: false,
                ..fast_cfg(7)
            },
        )
        .unwrap();
        match (&par.global, &ser.global) {
            (
                GlobalModel::Ensemble {
                    members: a,
                    lambdas: la,
                },
                GlobalModel::Ensemble {
                    members: b,
                    lambdas: lb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(la, lb);
            }
            other => panic!("unexpected global models: {other:?}"),
        }
        assert_eq!(par.accounting.samples_used, ser.accounting.samples_used);
        assert_eq!(par.accounting.sample_visits, ser.accounting.sample_visits);
    }

    #[test]
    fn disjoint_query_yields_no_participants() {
        let net = network(true);
        let q = Query::from_boundary_vec(9, &[1e6, 2e6, 1e6, 2e6]);
        let err = run_query(&net, &q, &QueryDriven::top_l(3), &fast_cfg(0)).unwrap_err();
        assert_eq!(err, FederationError::NoParticipants { query_id: 9 });
    }

    #[test]
    fn weighted_averaging_weights_follow_rankings() {
        let net = network(true);
        let q = leader_query();
        let out = run_query(&net, &q, &QueryDriven::top_l(3), &fast_cfg(3)).unwrap();
        if let GlobalModel::Ensemble { lambdas, .. } = &out.global {
            let rankings: Vec<f64> = out
                .selection
                .participants
                .iter()
                .map(|p| p.ranking)
                .collect();
            let total: f64 = rankings.iter().sum();
            for (l, r) in lambdas.iter().zip(&rankings) {
                assert!((l - r / total).abs() < 1e-12);
            }
        } else {
            panic!("expected ensemble");
        }
    }

    #[test]
    fn multi_round_fedavg_refines_the_single_model() {
        let net = network(false);
        let q = Query::from_boundary_vec(0, &[0.0, 50.0, 0.0, 100.0]);
        let one = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &fast_cfg(3).with_aggregation(Aggregation::FedAvgWeights),
        )
        .unwrap();
        let three = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &fast_cfg(3).with_rounds(3),
        )
        .unwrap();
        // Multi-round pays proportionally more and never does worse on a
        // homogeneous population.
        assert!(three.accounting.sample_visits > 2 * one.accounting.sample_visits);
        assert!(three.accounting.bytes_transferred > 2 * one.accounting.bytes_transferred);
        let l1 = one.query_loss(&net, &q).unwrap();
        let l3 = three.query_loss(&net, &q).unwrap();
        assert!(
            l3 <= l1 * 1.2,
            "3 rounds ({l3}) regressed badly vs 1 round ({l1})"
        );
        assert!(matches!(three.global, GlobalModel::Single(_)));
    }

    /// Regression: this combination used to `assert!` (a process abort in
    /// release sweeps); it must instead surface as a recoverable error.
    #[test]
    fn multi_round_with_ensemble_returns_unsupported_config() {
        let net = network(false);
        let q = Query::from_boundary_vec(11, &[0.0, 50.0, 0.0, 100.0]);
        let mut cfg = fast_cfg(1);
        cfg.rounds = 2; // without switching the aggregation rule
        let err = run_query(&net, &q, &QueryDriven::top_l(2), &cfg).unwrap_err();
        match err {
            FederationError::UnsupportedConfig { query_id, reason } => {
                assert_eq!(query_id, 11);
                assert!(reason.contains("FedAvg"), "reason was {reason:?}");
            }
            other => panic!("expected UnsupportedConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_rounds_returns_unsupported_config() {
        let net = network(false);
        let q = Query::from_boundary_vec(4, &[0.0, 50.0, 0.0, 100.0]);
        let mut cfg = fast_cfg(1);
        cfg.rounds = 0;
        let err = run_query(&net, &q, &QueryDriven::top_l(2), &cfg).unwrap_err();
        assert!(matches!(
            err,
            FederationError::UnsupportedConfig { query_id: 4, .. }
        ));
    }

    /// Regression: `with_rounds(0)` used to `assert!` (a process abort);
    /// the builder must hand the value through so [`run_query`] can
    /// reject it recoverably.
    #[test]
    fn with_rounds_zero_is_rejected_at_run_time_not_build_time() {
        let cfg = fast_cfg(1).with_rounds(0); // must not panic
        assert_eq!(cfg.rounds, 0);
        let net = network(false);
        let q = Query::from_boundary_vec(8, &[0.0, 50.0, 0.0, 100.0]);
        let err = run_query(&net, &q, &QueryDriven::top_l(2), &cfg).unwrap_err();
        assert!(matches!(
            err,
            FederationError::UnsupportedConfig { query_id: 8, .. }
        ));
    }

    /// Regression: serial rounds used to credit only the *slowest*
    /// participant's wall time (max) even though the participants ran one
    /// after another; the serial ledger must use the sum.
    #[test]
    fn wall_clock_sums_when_serial_and_maxes_when_pooled() {
        let walls = [0.5, 0.125, 0.25, 0.0625];
        assert_eq!(
            round_wall_seconds(false, &walls),
            0.5 + 0.125 + 0.25 + 0.0625
        );
        assert_eq!(round_wall_seconds(true, &walls), 0.5);
        // The invariant the ledger relies on: a serial round can never be
        // credited less wall time than a pooled one (sum >= max, for any
        // non-negative walls).
        let mut rng_walls = Vec::new();
        for i in 0..100u64 {
            rng_walls.push(((i * 2654435761) % 1000) as f64 / 1000.0);
            assert!(
                round_wall_seconds(false, &rng_walls) >= round_wall_seconds(true, &rng_walls),
                "serial wall must dominate pooled wall for {rng_walls:?}"
            );
        }
        assert_eq!(round_wall_seconds(false, &[]), 0.0);
        assert_eq!(round_wall_seconds(true, &[]), 0.0);
    }

    /// End-to-end version of the invariant above. Real timing on a busy
    /// (possibly single-core) CI box is noisy, so the comparison keeps a
    /// generous margin: serial wall must be at least half the pooled
    /// wall, each the fastest of three runs so one descheduled run does
    /// not decide it. The exact sum-vs-max semantics are pinned by the
    /// unit test on [`round_wall_seconds`].
    #[test]
    fn serial_wall_clock_dominates_pooled_wall_clock() {
        let net = network(true);
        let q = leader_query();
        let cfg = fast_cfg(13).with_thread_count(4);
        let fastest = |cfg: &FederationConfig| {
            (0..3)
                .map(|_| {
                    let r = run_query(&net, &q, &QueryDriven::top_l(3), cfg).unwrap();
                    assert!(r.accounting.wall_seconds > 0.0);
                    r.accounting.wall_seconds
                })
                .fold(f64::INFINITY, f64::min)
        };
        let pooled = fastest(&cfg);
        let ser = fastest(&FederationConfig {
            parallel: false,
            ..cfg
        });
        assert!(
            ser >= pooled * 0.5,
            "serial wall {ser} vs pooled wall {pooled}"
        );
    }

    #[test]
    fn query_region_dataset_collects_only_inside_points() {
        let net = network(false);
        let q = Query::from_boundary_vec(0, &[0.0, 10.0, -100.0, 200.0]);
        let scaler = SpaceScaler::from_space(&net.global_space());
        let ds = query_region_dataset(&net, &q, &scaler).unwrap();
        assert!(!ds.is_empty());
        // Every collected x (scaled) maps back inside [0, 10].
        let space = net.global_space();
        for row in ds.x().row_iter() {
            let raw =
                space.interval(0).lo() + row[0] * (space.interval(0).hi() - space.interval(0).lo());
            assert!((-1e-9..=10.0 + 1e-9).contains(&raw));
        }
    }

    // ---------------- fault-injection engine ----------------

    use faults::{FaultSpec, FaultTolerance, Quorum};

    fn assert_outcomes_identical(a: &RoundOutcome, b: &RoundOutcome) {
        match (&a.global, &b.global) {
            (
                GlobalModel::Ensemble {
                    members: ma,
                    lambdas: la,
                },
                GlobalModel::Ensemble {
                    members: mb,
                    lambdas: lb,
                },
            ) => {
                assert_eq!(ma, mb);
                assert_eq!(la, lb);
            }
            (GlobalModel::Single(ma), GlobalModel::Single(mb)) => assert_eq!(ma, mb),
            other => panic!("global model shapes diverged: {other:?}"),
        }
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.final_cohort, b.final_cohort);
        assert_eq!(a.fault_trace, b.fault_trace);
        assert_eq!(a.fault_trace.to_json(), b.fault_trace.to_json());
        // Everything except measured wall time must agree exactly.
        assert_eq!(a.accounting.samples_used, b.accounting.samples_used);
        assert_eq!(a.accounting.sample_visits, b.accounting.sample_visits);
        assert_eq!(
            a.accounting.bytes_transferred,
            b.accounting.bytes_transferred
        );
        assert_eq!(a.accounting.sim_seconds, b.accounting.sim_seconds);
        assert_eq!(
            a.accounting.sim_seconds_total,
            b.accounting.sim_seconds_total
        );
        assert_eq!(a.accounting.retries, b.accounting.retries);
        assert_eq!(
            a.accounting.dropped_participants,
            b.accounting.dropped_participants
        );
        assert_eq!(a.accounting.replacements, b.accounting.replacements);
        assert_eq!(a.accounting.deadline_misses, b.accounting.deadline_misses);
    }

    /// The headline invariant: disabling faults (or enabling an inert
    /// spec) leaves `run_query` bit-identical to the pre-fault engine.
    #[test]
    fn inert_fault_spec_is_bit_identical_to_no_faults() {
        let net = network(true);
        let q = leader_query();
        let plain = run_query(&net, &q, &QueryDriven::top_l(3), &fast_cfg(7)).unwrap();
        let inert = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &fast_cfg(7).with_faults(FaultSpec::none()),
        )
        .unwrap();
        assert!(plain.fault_trace.is_empty());
        assert!(inert.fault_trace.is_empty());
        assert_eq!(plain.accounting.retries, 0);
        assert_eq!(plain.accounting.dropped_participants, 0);
        assert_outcomes_identical(&plain, &inert);
    }

    /// Same seed ⇒ same trace, cohort, accounting and model, for any
    /// worker count (pinned pools of 1/2/4 workers plus the fully
    /// serial path).
    #[test]
    fn faulty_runs_are_bit_identical_across_thread_counts() {
        let net = network(true);
        let q = leader_query();
        let cfg = fast_cfg(11)
            .with_faults(FaultSpec::unreliable_edge(42))
            .with_tolerance(FaultTolerance::full_strength());
        let reference = run_query(&net, &q, &QueryDriven::top_l(3), &cfg).unwrap();
        assert!(
            !reference.fault_trace.is_empty(),
            "unreliable_edge(42) should fire at least one event"
        );
        for threads in [1usize, 2, 4] {
            let out = run_query(
                &net,
                &q,
                &QueryDriven::top_l(3),
                &cfg.clone().with_thread_count(threads),
            )
            .unwrap();
            assert_outcomes_identical(&reference, &out);
        }
        let serial = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &FederationConfig {
                parallel: false,
                ..cfg
            },
        )
        .unwrap();
        assert_outcomes_identical(&reference, &serial);
    }

    /// Degenerate survivor set: certain dropout for everyone and no
    /// standby list (random selection has no ranking to promote from)
    /// must surface as `QuorumLost`, never a panic.
    #[test]
    fn all_participants_dropping_is_quorum_lost() {
        let net = network(true);
        let q = leader_query();
        let cfg = fast_cfg(3).with_faults(FaultSpec::dropout(1, 1.0));
        let err = run_query(&net, &q, &RandomSelection { l: 3, seed: 9 }, &cfg).unwrap_err();
        match err {
            FederationError::QuorumLost {
                survivors,
                required,
                round,
                ..
            } => {
                assert_eq!(survivors, 0);
                assert_eq!(required, 1);
                assert_eq!(round, 0);
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    /// Degenerate survivor set: when exactly one participant survives,
    /// the aggregate *is* that participant's model (weight 1.0).
    #[test]
    fn single_survivor_aggregates_to_its_own_model() {
        let net = network(true);
        let q = leader_query();
        // Discover the cohort, then crash everyone except the best-ranked
        // participant from round 0 on.
        let baseline = run_query(&net, &q, &QueryDriven::top_l(3), &fast_cfg(5)).unwrap();
        assert!(baseline.selection.len() >= 2, "need at least two selected");
        let mut spec = FaultSpec::none();
        for p in &baseline.selection.participants[1..] {
            spec = spec.with_crash(p.node.0, 0);
        }
        let out = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &fast_cfg(5).with_faults(spec),
        )
        .unwrap();
        match &out.global {
            GlobalModel::Ensemble { members, lambdas } => {
                assert_eq!(members.len(), 1);
                assert_eq!(lambdas, &vec![1.0]);
                // The survivor in the baseline ensemble trained with the
                // same derived seed, so the models agree exactly.
                if let GlobalModel::Ensemble {
                    members: base_members,
                    ..
                } = &baseline.global
                {
                    assert_eq!(members[0], base_members[0]);
                } else {
                    panic!("baseline should be an ensemble");
                }
            }
            other => panic!("expected a single-member ensemble, got {other:?}"),
        }
        assert_eq!(out.fault_trace.count("crash"), baseline.selection.len() - 1);
        assert_eq!(out.final_cohort.len(), 1);
        assert_eq!(
            out.final_cohort[0].node,
            baseline.selection.participants[0].node
        );
    }

    /// Ranked replacements: crashing a selected participant under a
    /// full-strength quorum promotes the best-ranked standby into the
    /// same round.
    #[test]
    fn crash_promotes_ranked_standby_at_full_strength() {
        let net = network(true);
        let q = leader_query();
        // l = 1 guarantees a non-empty standby tail whenever more than
        // one node supports the query.
        let baseline = run_query(&net, &q, &QueryDriven::top_l(1), &fast_cfg(5)).unwrap();
        assert!(
            !baseline.selection.standby.is_empty(),
            "need a standby tail for this scenario"
        );
        let selected = baseline.selection.participants[0].node.0;
        let best_standby = baseline.selection.standby[0].node;
        let out = run_query(
            &net,
            &q,
            &QueryDriven::top_l(1),
            &fast_cfg(5)
                .with_faults(FaultSpec::none().with_crash(selected, 0))
                .with_tolerance(FaultTolerance::full_strength()),
        )
        .unwrap();
        assert_eq!(out.accounting.replacements, 1);
        assert_eq!(out.fault_trace.count("replacement"), 1);
        assert_eq!(out.fault_trace.count("crash"), 1);
        assert_eq!(out.final_cohort.len(), 1);
        assert_eq!(out.final_cohort[0].node, best_standby);
        let loss = out.query_loss(&net, &q).unwrap();
        assert!(loss.is_finite());
    }

    /// Replacement exhaustion: a quorum larger than selection + standby
    /// can ever supply must fail with `QuorumLost` after the standby
    /// list runs dry — not loop, not panic.
    #[test]
    fn standby_exhaustion_is_quorum_lost() {
        let net = network(true);
        let q = leader_query();
        let baseline = run_query(&net, &q, &QueryDriven::top_l(1), &fast_cfg(5)).unwrap();
        let supply = 1 + baseline.selection.standby.len();
        let err = run_query(
            &net,
            &q,
            &QueryDriven::top_l(1),
            &fast_cfg(5)
                .with_faults(
                    FaultSpec::none().with_crash(baseline.selection.participants[0].node.0, 0),
                )
                .with_tolerance(FaultTolerance::default().with_quorum(Quorum::AtLeast(supply + 5))),
        )
        .unwrap_err();
        match err {
            FederationError::QuorumLost {
                survivors,
                required,
                ..
            } => {
                assert_eq!(required, supply + 5);
                assert!(survivors < required);
                assert!(survivors <= supply);
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    /// Lossy links: retries are charged to the ledger and the trace, and
    /// the federation still completes under the default retry budget.
    #[test]
    fn link_loss_charges_retries_and_extra_seconds() {
        let net = network(true);
        let q = leader_query();
        let cfg = fast_cfg(7).with_rounds(3);
        let clean = run_query(&net, &q, &QueryDriven::top_l(3), &cfg).unwrap();
        let lossy = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &cfg.clone()
                .with_faults(FaultSpec::none().with_link_loss(0.75))
                .with_tolerance(
                    FaultTolerance::full_strength().with_retry(faults::RetryPolicy {
                        max_attempts: 8,
                        ..faults::RetryPolicy::default()
                    }),
                ),
        )
        .unwrap();
        assert!(lossy.accounting.retries > 0, "0.75 loss never fired");
        assert_eq!(
            lossy.fault_trace.count("link_loss"),
            lossy.accounting.retries
        );
        // Every lost attempt is paid for: strictly more simulated time
        // and wire bytes than the clean run.
        assert!(lossy.accounting.sim_seconds_total > clean.accounting.sim_seconds_total);
        assert!(lossy.accounting.bytes_transferred > clean.accounting.bytes_transferred);
        // Retry bookkeeping is consistent: successes plus exhaustions
        // bound the per-node outcomes.
        let successes = lossy.fault_trace.count("retry_success");
        let exhausted = lossy.fault_trace.count("transfer_failed");
        assert!(successes + exhausted > 0);
        assert_eq!(lossy.accounting.dropped_participants, exhausted);
    }

    /// Straggler deadline: a node slowed far past the deadline is cut
    /// off (work discarded, time capped), while fast peers survive.
    #[test]
    fn deadline_cuts_off_the_slow_node() {
        let mut net = network(true);
        let q = leader_query();
        let clean = run_query(&net, &q, &QueryDriven::top_l(3), &fast_cfg(7)).unwrap();
        assert!(clean.selection.len() >= 2, "need at least two selected");
        // Make the worst-ranked selected node catastrophically slow.
        let slow = clean.selection.participants.last().unwrap().node;
        net.node_mut(slow).set_capacity(1e-4);
        let deadline = clean.accounting.sim_seconds * 10.0;
        let out = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &fast_cfg(7)
                .with_faults(FaultSpec::none().with_dropout(0.0).with_link_loss(0.0))
                .with_tolerance(FaultTolerance::default().with_deadline(deadline)),
        );
        // An all-inert spec never builds a plan, but the deadline is a
        // *tolerance* feature and must apply regardless of any plan.
        let out = match out {
            Ok(o) => o,
            Err(e) => panic!("deadline run failed: {e}"),
        };
        assert_eq!(out.accounting.deadline_misses, 1);
        assert_eq!(out.fault_trace.count("deadline_miss"), 1);
        // The leader stopped waiting at the deadline: the round's sim
        // time is capped by it (plus selection overhead, zero here).
        assert!(out.accounting.sim_seconds <= deadline + 1e-9);
        // The slow node's model was discarded.
        if let GlobalModel::Ensemble { members, .. } = &out.global {
            assert_eq!(members.len(), clean.selection.len() - 1);
        } else {
            panic!("expected ensemble");
        }
    }
}

//! The federation round engine (§IV-B): one query's selection → local
//! training → aggregation ([`run_query`]).

use std::time::Instant;

use edgesim::{EdgeNetwork, QueryAccounting, SpaceScaler};
use faults::{FaultPlan, FaultSpec, FaultTolerance, FaultTrace, ParticipantFate};
use geom::Query;
use linalg::rng as lrng;
use mlkit::{DenseDataset, Model, ModelKind, Regressor, TrainConfig};
use selection::{Participant, Selection, SelectionContext, SelectionPolicy};
use telemetry::Event;

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
    /// Worker count for participant training: `Some(n)` pins a cached
    /// process-wide pool of exactly `n` workers ([`par::sized`]), `None`
    /// uses the global pool ([`par::global`]: `QENS_THREADS` or the
    /// machine's available parallelism). Either way threads are created
    /// once per process — never once per participant-round. A pool of
    /// one trains every participant inline on the caller's thread; the
    /// outcome is bit-identical at any size.
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
            ..Self::paper_lr(seed)
        }
    }

    /// Swaps the aggregation rule.
    pub fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
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
    ///
    /// One pass over every node's joint rows, in node then row order:
    /// each row inside the query is scaled on the fly, predicted, and
    /// its squared error summed in [`mlkit::metrics::mse`]'s order, so
    /// the loss has the bits of `mse` over the gathered rows without
    /// gathering them.
    pub fn query_loss(&self, network: &EdgeNetwork, query: &Query) -> Option<f64> {
        let mut features = Vec::with_capacity(self.scaler.dim());
        let (mut sum, mut n) = (0.0, 0usize);
        for node in network.nodes().iter().filter(|n| !n.is_empty()) {
            for row in node.joint().row_iter() {
                if query.region().contains_point(row) {
                    let target = self.scaler.transform_joint_row(row, &mut features);
                    let p = self.global.predict_row(&features);
                    sum += (p - target) * (p - target);
                    n += 1;
                }
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

/// What one participant's local training produced.
struct LocalResult {
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

/// Rejects configurations no round can run, with the reason.
fn check_config(config: &FederationConfig) -> Result<(), String> {
    if config.rounds == 0 {
        return Err("at least one communication round is required".into());
    }
    if config.rounds > 1 && config.aggregation != Aggregation::FedAvgWeights {
        return Err("multi-round refinement requires FedAvg weight aggregation \
             (prediction ensembles have no single weight vector to re-broadcast)"
            .into());
    }
    if let Some(spec) = &config.faults {
        spec.validate()
            .map_err(|reason| format!("invalid fault spec: {reason}"))?;
    }
    Ok(())
}

/// Runs one complete round: selection → local training → aggregation.
///
/// Training is deterministic at any pool size: every participant derives
/// its RNG streams from the query id, its node id and the round only.
pub fn run_query(
    network: &EdgeNetwork,
    query: &Query,
    policy: &dyn SelectionPolicy,
    config: &FederationConfig,
) -> Result<RoundOutcome, FederationError> {
    check_config(config).map_err(|reason| FederationError::UnsupportedConfig {
        query_id: query.id(),
        reason,
    })?;
    // The observer roots the query's trace tree and, on drop, hands the
    // finished tree to the flight recorder and the latency to the SLO
    // tracker.
    let _observer = telemetry::profile::QueryObserver::begin(query.id());
    run_rounds(network, query, policy, config)
}

/// What every stage reads and none writes.
struct Env<'a> {
    network: &'a EdgeNetwork,
    policy: &'a dyn SelectionPolicy,
    config: &'a FederationConfig,
    scaler: SpaceScaler,
    /// The pinned pool, if `config.threads` asks for one. Its workers
    /// live for the whole process ([`par::sized`] / [`par::global`]):
    /// no per-round or per-participant thread creation.
    sized_pool: Option<std::sync::Arc<par::ThreadPool>>,
}

impl Env<'_> {
    fn pool(&self) -> &par::ThreadPool {
        match &self.sized_pool {
            Some(pool) => pool,
            None => par::global(),
        }
    }

    /// A participant's training stages, scaled: its supporting clusters,
    /// or its whole dataset when the policy named none. A summary-only
    /// node holds no rows, so it gets none and never joins a cohort.
    fn member(&self, p: &Participant) -> CohortMember {
        let node = self.network.node(p.node);
        let stages: Vec<DenseDataset> = if node.is_empty() {
            Vec::new()
        } else if p.supporting_clusters.is_empty() {
            vec![self.scaler.transform_dataset(&node.full_dataset())]
        } else {
            p.supporting_clusters
                .iter()
                .map(|c| {
                    self.scaler
                        .transform_dataset(&node.cluster_dataset(c.cluster_id))
                })
                .collect()
        };
        CohortMember {
            participant: p.clone(),
            stages,
        }
    }
}

/// The query in flight through the round engine: everything the stages
/// read and write for it.
struct Flight<'a> {
    ctx: SelectionContext<'a>,
    selection: Selection,
    /// Standbys already consumed from `selection.standby`.
    next_standby: usize,
    cohort: Vec<CohortMember>,
    /// The deterministic fault oracle. `None` — no spec, or an inert
    /// one — is the fault-free path: every fate defaults to healthy and
    /// no event can fire, which keeps the arithmetic bit-identical to
    /// the engine before faults existed.
    plan: Option<FaultPlan>,
    /// Quorum: a fraction/count of the *originally selected* cohort.
    required: usize,
    trace: FaultTrace,
    accounting: QueryAccounting,
    /// The model broadcast at the start of the current round.
    broadcast: Model,
    model_bytes: usize,
    global: Option<GlobalModel>,
    ledger: RoundLedger,
}

impl Flight<'_> {
    /// Records one fault: pushes it to the fault trace and emits it to
    /// the telemetry views. The ledger is counted off the trace in
    /// [`finish`].
    fn fault(&mut self, event: Event) {
        telemetry::emit(&event);
        self.trace.push(event);
    }
}

/// One communication round's ledger, accumulated across the initial
/// cohort's pass and any promoted-standby passes.
#[derive(Default)]
struct RoundLedger {
    survivors: Vec<Survivor>,
    per_node_seconds: Vec<f64>,
    bytes: usize,
    samples_used: usize,
    sample_visits: usize,
    crashed: Vec<usize>,
}

impl RoundLedger {
    /// Charges one report's simulated seconds and wire bytes.
    fn charge(&mut self, node_idx: usize, seconds: f64, wall_seconds: f64, bytes: usize) {
        self.per_node_seconds.push(seconds);
        self.bytes += bytes;
        let wall_nanos = (wall_seconds * 1e9) as u64;
        let event = Event::Charged(node_idx as u64, seconds, wall_nanos, bytes as u64);
        telemetry::emit(&event);
    }
}

/// The round engine (§IV-B): `prepare` the query, then per
/// communication round `fates` → [`train_wave`] → `deliver` → `promote`,
/// repeated while the round is below quorum and has standbys left, then
/// `close_round`. Leader-side stages run serially, so traces and
/// journals are deterministic at any pool size. Expects a configuration
/// that passed [`check_config`].
fn run_rounds(
    network: &EdgeNetwork,
    query: &Query,
    policy: &dyn SelectionPolicy,
    config: &FederationConfig,
) -> Result<RoundOutcome, FederationError> {
    // No node holds rows (every node is summary-only): there is no data
    // space to scale over and nothing any cohort could train on.
    if network.total_samples() == 0 {
        return Err(FederationError::NoTrainingData {
            query_id: query.id(),
        });
    }
    let env = Env {
        network,
        policy,
        config,
        scaler: SpaceScaler::from_space(&network.global_space()),
        sized_pool: config.threads.map(par::sized),
    };
    let mut f = prepare(&env, query)?;
    for round in 0..config.rounds {
        let _round_span = telemetry::span("fedlearn.round", &[("round", round as u64)]);
        let mut pending: Vec<usize> = (0..f.cohort.len()).collect();
        loop {
            let attempters = fates(&mut f, round, pending);
            let (reports, pooled) = train_wave(&env, &f, &attempters, round);
            deliver(&env, &mut f, round, attempters, reports, pooled);
            pending = promote(&env, &mut f, round)?;
            if pending.is_empty() {
                break;
            }
        }
        close_round(&env, &mut f, round);
    }
    Ok(finish(&env, f))
}

/// Leader-side prologue for one query: selection, fleet/journal credit,
/// the training cohort and the selection-overhead ledger.
fn prepare<'a>(env: &Env<'a>, query: &'a Query) -> Result<Flight<'a>, FederationError> {
    let network = env.network;
    let ctx = SelectionContext::new(network, query);
    let select_span = telemetry::span("fedlearn.select", &[]);
    let selection = env.policy.select(&ctx);
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
    // Credit each selected node (leader-serial, so the scorecards and
    // the journal are deterministic at any thread count).
    telemetry::emit(&Event::FleetObserved(network.len() as u64));
    for (rank, p) in selection.participants.iter().enumerate() {
        let (node, epoch) = (p.node.0 as u64, network.node(p.node).summary_epoch());
        telemetry::emit(&Event::Selected(query.id(), node, rank as u64, epoch));
    }
    let overhead = env.policy.overhead(&ctx);
    // The leader's initial global model, broadcast to every participant.
    let dim = network.nodes()[0].joint_dim() - 1;
    let broadcast = env.config.model.build(dim, env.config.model_seed);
    let cohort: Vec<CohortMember> = selection
        .participants
        .iter()
        .map(|p| env.member(p))
        .filter(CohortMember::has_data)
        .collect();
    if cohort.is_empty() {
        return Err(FederationError::NoTrainingData {
            query_id: query.id(),
        });
    }

    let cost = network.cost_model();
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
    let accounting = QueryAccounting {
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
    let plan = env
        .config
        .faults
        .as_ref()
        .filter(|spec| !spec.is_inert())
        .map(|spec| FaultPlan::for_query(spec.clone(), network.len(), query.id()));
    Ok(Flight {
        ctx,
        selection,
        next_standby: 0,
        required: env.config.tolerance.quorum.required(cohort.len()),
        cohort,
        plan,
        trace: FaultTrace::default(),
        accounting,
        model_bytes: broadcast.num_weights() * 8,
        broadcast,
        global: None,
        ledger: RoundLedger::default(),
    })
}

/// Fate pass (serial, roster order) over the `pending` cohort indices:
/// crashes and dropouts leave this round, everyone else becomes an
/// attempter, returned as (cohort index, slowdown) in roster order. The
/// plan is a pure oracle, so this order affects only the trace layout —
/// which is exactly what makes the trace bit-identical across runs and
/// thread counts.
fn fates(f: &mut Flight, round: usize, pending: Vec<usize>) -> Vec<(usize, f64)> {
    let fates_span = telemetry::span(
        "fedlearn.fates",
        &[("round", round as u64), ("pending", pending.len() as u64)],
    );
    let mut attempters = Vec::with_capacity(pending.len());
    let q = f.ctx.query.id();
    for ci in pending {
        let node = f.cohort[ci].participant.node.0;
        let fate = f
            .plan
            .as_ref()
            .map_or(ParticipantFate::Participates { slowdown: 1.0 }, |p| {
                p.fate(node, round)
            });
        let (n, r) = (node as u64, round as u64);
        let event = match fate {
            ParticipantFate::Participates { slowdown } => {
                attempters.push((ci, slowdown));
                if slowdown <= 1.0 {
                    continue;
                }
                Event::Straggled(n, r, slowdown)
            }
            ParticipantFate::Crashed => {
                f.ledger.crashed.push(ci);
                Event::Crash(q, n, r)
            }
            ParticipantFate::Dropped => Event::Dropout(q, n, r),
        };
        f.fault(event);
    }
    fates_span.finish();
    attempters
}

/// One pool wave training every attempter, one job each (chunk size 1),
/// so results land in attempter order for any worker count. Returns the
/// reports and whether they trained on the pool. The wave span is
/// leader-side (deterministic) and covers the pooled and inline
/// branches identically, so logical-clock profiles attribute training
/// time regardless of `QENS_THREADS`.
fn train_wave(
    env: &Env,
    f: &Flight,
    attempters: &[(usize, f64)],
    round: usize,
) -> (Vec<LocalResult>, bool) {
    let jobs: Vec<&CohortMember> = attempters.iter().map(|&(ci, _)| &f.cohort[ci]).collect();
    let train_wave_span = telemetry::span(
        "fedlearn.train_wave",
        &[("round", round as u64), ("attempters", jobs.len() as u64)],
    );
    let (config, network) = (env.config, env.network);
    let (query_id, broadcast) = (f.ctx.query.id(), &f.broadcast);
    let run = |member| train(network, config, query_id, broadcast, member, round);
    let pool = env.pool();
    let pooled = jobs.len() > 1 && pool.threads() > 1;
    let results = if pooled {
        pool.map_chunks(jobs.len(), 1, |r| run(jobs[r.start]))
    } else {
        jobs.into_iter().map(run).collect()
    };
    train_wave_span.finish();
    (results, pooled)
}

/// One participant's local training: a pure function of the
/// configuration, the query id, the node, the round, the broadcast model
/// and the stages.
fn train(
    network: &EdgeNetwork,
    config: &FederationConfig,
    query_id: u64,
    broadcast: &Model,
    member: &CohortMember,
    round: usize,
) -> LocalResult {
    let node = network.node(member.participant.node);
    let mut model = broadcast.clone();
    let train_cfg = TrainConfig {
        seed: lrng::derive_seed(
            config.train.seed,
            query_id ^ ((node.id().0 as u64) << 32) ^ ((round as u64) << 48),
        ),
        ..config.train.clone()
    };
    let samples_used: usize = member.stages.iter().map(DenseDataset::len).sum();
    // Counter adds are relaxed atomics, so these totals are identical
    // whether participants train on threads or inline.
    telemetry::counter!("qens_fedlearn_stages_total").add(member.stages.len() as u64);
    telemetry::counter!("qens_fedlearn_samples_used_total").add(samples_used as u64);
    // Worker-side span: traced in wall mode only (participants may train
    // on pool threads, so the event order is scheduling-dependent).
    let train_span = telemetry::wall_span(
        "fedlearn.train",
        &[
            ("node", node.id().0 as u64),
            ("round", round as u64),
            ("samples", samples_used as u64),
        ],
    );
    let start = Instant::now();
    let report = match config.stage_order {
        StageOrder::Sequential => mlkit::train_incremental(&mut model, &member.stages, &train_cfg),
        StageOrder::Interleaved => mlkit::train_interleaved(&mut model, &member.stages, &train_cfg),
    };
    let wall = start.elapsed().as_secs_f64();
    train_span.finish();
    telemetry::counter!("qens_fedlearn_sample_visits_total").add(report.samples_seen as u64);
    LocalResult {
        model,
        samples_used,
        sample_visits: report.samples_seen,
        wall_seconds: wall,
    }
}

/// Transfer/deadline pass (serial, attempter order) over the last
/// wave's reports.
fn deliver(
    env: &Env,
    f: &mut Flight,
    round: usize,
    attempters: Vec<(usize, f64)>,
    reports: Vec<LocalResult>,
    pooled: bool,
) {
    let walls: Vec<f64> = reports.iter().map(|r| r.wall_seconds).collect();
    f.accounting.wall_seconds += round_wall_seconds(pooled, &walls);
    let transfer_wave_span = telemetry::span(
        "fedlearn.transfer_wave",
        &[("round", round as u64), ("reports", walls.len() as u64)],
    );
    for ((ci, slowdown), report) in attempters.into_iter().zip(reports) {
        deliver_one(env, f, round, ci, slowdown, report);
    }
    transfer_wave_span.finish();
}

/// One report's upload under the retry budget, then the straggler
/// deadline; a report that arrives in time joins the round's survivors.
fn deliver_one(env: &Env, f: &mut Flight, round: usize, ci: usize, slowdown: f64, r: LocalResult) {
    let tolerance = &env.config.tolerance;
    let participant = &f.cohort[ci].participant;
    let (node_idx, ranking) = (participant.node.0, participant.ranking);
    let (q, n) = (f.ctx.query.id(), node_idx as u64);
    let node = env.network.node(participant.node);
    let model_bytes = f.model_bytes;
    f.ledger.samples_used += r.samples_used;
    f.ledger.sample_visits += r.sample_visits;
    let train_sim = env
        .network
        .cost_model()
        .training_seconds(r.sample_visits, node.capacity())
        * slowdown;

    // Upload attempts under the retry budget: each lost attempt is an
    // independent deterministic draw, and the first one through ends
    // the run of losses.
    let attempts = tolerance.retry.max_attempts.max(1);
    let failed = f.plan.as_ref().map_or(0, |p| {
        (0..attempts)
            .take_while(|&attempt| p.transfer_attempt_fails(node_idx, round, attempt))
            .count()
    });
    for attempt in 0..failed {
        f.fault(Event::LinkLoss(n, round as u64, attempt as u64));
    }
    let retry_penalty = node
        .link()
        .retry_penalty_seconds(model_bytes, failed, &tolerance.retry);
    if failed == attempts {
        // Retry budget exhausted: the report never reached the leader.
        // Charge the broadcast plus every lost upload; there is no model
        // to aggregate.
        f.fault(Event::TransferFailed(q, n, round as u64, failed as u64));
        let charged = train_sim + node.link().transfer_seconds(model_bytes) + retry_penalty;
        f.ledger.charge(
            node_idx,
            charged,
            r.wall_seconds,
            (1 + failed) * model_bytes,
        );
        return;
    }
    if failed > 0 {
        f.fault(Event::RetrySuccess(n, round as u64, failed as u64));
    }
    // Fault-free identity: slowdown is 1.0 and the penalty 0.0 here, so
    // `finish` reduces bit-exactly to the `training + transfer(2·bytes)`
    // charge of the engine before faults existed.
    let finish = train_sim + node.link().transfer_seconds(2 * model_bytes) + retry_penalty;
    let bytes = (2 + failed) * model_bytes;
    if let Some(deadline) = tolerance.straggler_deadline_seconds.filter(|&d| finish > d) {
        // The leader stopped waiting at the deadline; the (completed)
        // work is discarded for this round.
        f.fault(Event::DeadlineMiss(q, n, round as u64, deadline, finish));
        f.ledger.charge(node_idx, deadline, r.wall_seconds, bytes);
        return;
    }
    f.ledger.charge(node_idx, finish, r.wall_seconds, bytes);
    f.ledger.survivors.push(Survivor {
        ranking,
        samples_used: r.samples_used,
        model: r.model,
    });
}

/// Quorum check after a pass. Below quorum, promotes ranked standbys to
/// cover the deficit and returns their cohort indices for the same
/// round's next pass; at quorum there is nothing to do (no indices);
/// with no standby left to promote the query has lost its quorum.
fn promote(env: &Env, f: &mut Flight, round: usize) -> Result<Vec<usize>, FederationError> {
    let survivors = f.ledger.survivors.len();
    if survivors >= f.required {
        return Ok(Vec::new());
    }
    let promote_span = telemetry::span("fedlearn.promote", &[("round", round as u64)]);
    let deficit = f.required - survivors;
    let mut promoted: Vec<usize> = Vec::new();
    while promoted.len() < deficit {
        let Some(p) = f.selection.standby.get(f.next_standby) else {
            break;
        };
        f.next_standby += 1;
        let standby = p.node.0 as u64;
        let member = env.member(&env.policy.promote(&f.ctx, p));
        // Standbys without training data are skipped — they could never
        // report a model.
        if member.has_data() {
            f.fault(Event::Promoted(f.ctx.query.id(), standby, round as u64));
            f.cohort.push(member);
            promoted.push(f.cohort.len() - 1);
        }
    }
    promote_span.finish();
    if !promoted.is_empty() {
        return Ok(promoted);
    }
    let q = f.ctx.query.id();
    let cohort = f.cohort.iter().map(|m| m.participant.node.0 as u64);
    let (r, s, need) = (round as u64, survivors as u64, f.required as u64);
    f.fault(Event::QuorumLost(q, r, s, need, cohort.collect()));
    Err(FederationError::QuorumLost {
        query_id: f.ctx.query.id(),
        round,
        survivors,
        required: f.required,
    })
}

/// Aggregates the round's survivors, books the round, drops permanent
/// crashes from the cohort and re-broadcasts averaged weights.
fn close_round(env: &Env, f: &mut Flight, round: usize) {
    let ledger = std::mem::take(&mut f.ledger);
    let lambdas: Vec<f64> = ledger.survivors.iter().map(|s| s.ranking).collect();
    let samples: Vec<usize> = ledger.survivors.iter().map(|s| s.samples_used).collect();
    let models: Vec<Model> = ledger.survivors.into_iter().map(|s| s.model).collect();
    let agg_span = telemetry::span(
        "fedlearn.aggregate",
        &[("survivors", models.len() as u64), ("round", round as u64)],
    );
    let aggregation = GlobalModel::aggregate(env.config.aggregation, models, &lambdas, &samples);
    agg_span.finish();
    telemetry::counter!("qens_fedlearn_model_bytes_total").add(ledger.bytes as u64);

    // Accounting: every round pays training on the slowest charged node
    // plus the model transfers that actually happened, each at the
    // node's own uplink speed.
    let accounting = &mut f.accounting;
    accounting.samples_used = ledger.samples_used;
    accounting.sample_visits += ledger.sample_visits;
    accounting.sim_seconds += ledger.per_node_seconds.iter().copied().fold(0.0, f64::max);
    accounting.sim_seconds_total += ledger.per_node_seconds.iter().sum::<f64>();
    accounting.bytes_transferred += ledger.bytes;

    // Permanent crashes leave the cohort before the next round.
    let mut index = 0;
    f.cohort.retain(|_| {
        index += 1;
        !ledger.crashed.contains(&(index - 1))
    });

    // Broadcast the averaged weights back for the next round.
    if let GlobalModel::Single(model) = &aggregation {
        f.broadcast = model.clone();
    }
    f.global = Some(aggregation);
}

/// The outcome of a query whose every round closed; its fault ledger is
/// counted off the fault trace here.
fn finish(env: &Env, mut f: Flight) -> RoundOutcome {
    let final_cohort: Vec<Participant> = f.cohort.into_iter().map(|m| m.participant).collect();
    for p in &final_cohort {
        telemetry::emit(&Event::Participated(p.node.0 as u64));
    }
    let (t, a) = (&f.trace, &mut f.accounting);
    a.retries = t.count("link_loss");
    a.replacements = t.count("replacement");
    a.deadline_misses = t.count("deadline_miss");
    let lost = ["dropout", "crash", "transfer_failed"].map(|kind| t.count(kind));
    a.dropped_participants = a.deadline_misses + lost.iter().sum::<usize>();
    // Satellite coupling: the simulator ledger and the telemetry counters
    // must tell the same story (asserted in tests/telemetry_pipeline.rs).
    f.accounting.commit_telemetry();
    RoundOutcome {
        global: f.global.expect("at least one round ran"),
        scaler: env.scaler.clone(),
        selection: f.selection,
        accounting: f.accounting,
        fault_trace: f.trace,
        final_cohort,
    }
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
            &FederationConfig {
                rounds: 3,
                aggregation: Aggregation::FedAvgWeights,
                ..fast_cfg(3)
            },
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
        let cfg = |threads| FederationConfig {
            threads: Some(threads),
            ..fast_cfg(13)
        };
        let fastest = |cfg: &FederationConfig| {
            (0..3)
                .map(|_| {
                    let r = run_query(&net, &q, &QueryDriven::top_l(3), cfg).unwrap();
                    assert!(r.accounting.wall_seconds > 0.0);
                    r.accounting.wall_seconds
                })
                .fold(f64::INFINITY, f64::min)
        };
        let pooled = fastest(&cfg(4));
        let ser = fastest(&cfg(1));
        assert!(
            ser >= pooled * 0.5,
            "serial wall {ser} vs pooled wall {pooled}"
        );
    }

    /// The (scaled) samples inside the query region across the whole
    /// network, copied out: the reference `query_loss` streams past.
    fn query_region_dataset(
        network: &EdgeNetwork,
        query: &Query,
        scaler: &SpaceScaler,
    ) -> Option<DenseDataset> {
        let mut parts: Vec<DenseDataset> = Vec::new();
        for node in network.nodes().iter().filter(|n| !n.is_empty()) {
            let idx = query.filter_indices(node.joint().row_iter());
            if !idx.is_empty() {
                parts.push(scaler.transform_dataset(&node.data().select(&idx)));
            }
        }
        let mut it = parts.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, p| acc.concat(&p)))
    }

    /// The streamed loss has the bits of `mse` over the copied rows,
    /// for an ensemble and a single global model, and is `None` exactly
    /// when no row falls inside the query.
    #[test]
    fn query_loss_streams_the_bits_of_mse_over_the_copied_rows() {
        let net = network(true);
        let queries = [
            leader_query(),
            Query::from_boundary_vec(1, &[0.0, 10.0, -100.0, 200.0]),
            Query::from_boundary_vec(2, &[5.0, 60.0, 0.0, 130.0]),
            Query::from_boundary_vec(3, &[1e6, 2e6, 1e6, 2e6]),
        ];
        for aggregation in [Aggregation::WeightedAveraging, Aggregation::FedAvgWeights] {
            let cfg = FederationConfig {
                aggregation,
                ..fast_cfg(4)
            };
            let out = run_query(&net, &leader_query(), &QueryDriven::top_l(3), &cfg).unwrap();
            let mut misses = 0;
            for q in &queries {
                let reference = query_region_dataset(&net, q, &out.scaler)
                    .map(|rows| out.global.mse(&rows).to_bits());
                let streamed = out.query_loss(&net, q).map(f64::to_bits);
                assert_eq!(streamed, reference, "{aggregation:?}, query {}", q.id());
                misses += usize::from(reference.is_none());
            }
            assert_eq!(misses, 1, "only the far query misses every row");
        }
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

    /// A summary-only node (`EdgeNode::from_summaries`) is selectable
    /// but holds no rows: a round drops it from the training cohort and
    /// scores the query on the rows the other nodes hold, wherever it
    /// sits in the fleet. A fleet of nothing but summaries has no
    /// training data for any query.
    #[test]
    fn summary_only_nodes_are_selected_but_never_train() {
        use edgesim::{EdgeNode, NodeId};
        let data = network(true);
        let q = leader_query();
        let policy = QueryDriven::top_l(3);
        let hot = run_query(&data, &q, &policy, &fast_cfg(1)).unwrap();
        let hot: Vec<_> = data
            .node(hot.selection.participants[0].node)
            .summaries()
            .iter()
            .map(|c| cluster::ClusterSummary {
                cluster_id: c.cluster_id,
                size: c.size,
                representative: Vec::new(),
                rect: geom::HyperRect::new(c.bounds.to_vec()),
            })
            .collect();
        let ghost = |id| EdgeNode::from_summaries(NodeId(id), "ghost", 1.0, hot.clone());
        for ghost_first in [true, false] {
            let mut nodes = Vec::new();
            if ghost_first {
                nodes.push(ghost(0));
            }
            for n in data.nodes() {
                let mut node = EdgeNode::new(NodeId(nodes.len()), n.name(), n.data().clone(), 1.0);
                node.quantize(5, 1);
                nodes.push(node);
            }
            let ghost_id = if ghost_first { 0 } else { nodes.len() };
            if !ghost_first {
                nodes.push(ghost(ghost_id));
            }
            let net = EdgeNetwork::from_nodes(nodes);
            let out = run_query(&net, &q, &policy, &fast_cfg(1)).unwrap();
            let picked = |ps: &[Participant]| ps.iter().any(|p| p.node == NodeId(ghost_id));
            assert!(
                picked(&out.selection.participants),
                "ghost_first {ghost_first}"
            );
            assert!(!picked(&out.final_cohort), "ghost_first {ghost_first}");
            assert!(out.query_loss(&net, &q).unwrap().is_finite());
        }
        let ghosts = EdgeNetwork::from_nodes((0..3).map(ghost).collect());
        for q in [q, Query::from_boundary_vec(1, &[0.0, 10.0, 0.0, 25.0])] {
            let err = run_query(&ghosts, &q, &policy, &fast_cfg(1)).unwrap_err();
            assert_eq!(err, FederationError::NoTrainingData { query_id: q.id() });
        }
    }

    // ---------------- fault-injection engine ----------------

    use faults::Quorum;

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
        assert_eq!(
            a.accounting.sim_seconds.to_bits(),
            b.accounting.sim_seconds.to_bits()
        );
        assert_eq!(
            a.accounting.sim_seconds_total.to_bits(),
            b.accounting.sim_seconds_total.to_bits()
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
            &FederationConfig {
                faults: Some(FaultSpec::none()),
                ..fast_cfg(7)
            },
        )
        .unwrap();
        assert!(plain.fault_trace.is_empty());
        assert!(inert.fault_trace.is_empty());
        assert_eq!(plain.accounting.retries, 0);
        assert_eq!(plain.accounting.dropped_participants, 0);
        assert_outcomes_identical(&plain, &inert);
    }

    /// Degenerate survivor set: certain dropout for everyone and no
    /// standby list (random selection has no ranking to promote from)
    /// must surface as `QuorumLost`, never a panic.
    #[test]
    fn all_participants_dropping_is_quorum_lost() {
        let net = network(true);
        let q = leader_query();
        let cfg = FederationConfig {
            faults: Some(FaultSpec::dropout(1, 1.0)),
            ..fast_cfg(3)
        };
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
            &FederationConfig {
                faults: Some(spec),
                ..fast_cfg(5)
            },
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
            &FederationConfig {
                faults: Some(FaultSpec::none().with_crash(selected, 0)),
                tolerance: FaultTolerance::full_strength(),
                ..fast_cfg(5)
            },
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
            &FederationConfig {
                faults: Some(
                    FaultSpec::none().with_crash(baseline.selection.participants[0].node.0, 0),
                ),
                tolerance: FaultTolerance {
                    quorum: Quorum::AtLeast(supply + 5),
                    ..FaultTolerance::default()
                },
                ..fast_cfg(5)
            },
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

    /// The reserve runs out before the fleet does: a top-ℓ selection
    /// keeps only `RESERVE_PER_SLOT · ℓ` standbys even when more nodes
    /// support the query. Crashing the participant and the first
    /// standby is covered by promoting `standby[0]`, then `standby[1]`,
    /// in ranking order; crashing the second standby too needs a third
    /// promotion the reserve cannot make, so the round ends `QuorumLost`
    /// although supporting nodes remain.
    #[test]
    fn reserve_exhaustion_is_quorum_lost_with_supporters_left() {
        let net = network(false);
        let q = leader_query();
        let policy = QueryDriven::top_l(1);
        let supporting = selection::reference::ranked(&net, &q, policy.epsilon, policy.rule);
        let reserve = selection::RESERVE_PER_SLOT;
        assert!(
            supporting.len() > 1 + reserve,
            "need supporters beyond the reserve"
        );
        let baseline = run_query(&net, &q, &policy, &fast_cfg(5)).unwrap();
        let standby: Vec<usize> = baseline
            .selection
            .standby
            .iter()
            .map(|r| r.node.0)
            .collect();
        let ranked: Vec<usize> = supporting.iter().map(|p| p.node.0).collect();
        assert_eq!(
            standby,
            ranked[1..1 + reserve],
            "the reserve is the ranking's next 2ℓ"
        );

        let crash = |nodes: &[usize]| {
            let spec = nodes
                .iter()
                .fold(FaultSpec::none(), |spec, &node| spec.with_crash(node, 0));
            FederationConfig {
                faults: Some(spec),
                tolerance: FaultTolerance::full_strength(),
                ..fast_cfg(5)
            }
        };
        let selected = baseline.selection.participants[0].node.0;
        let covered = run_query(&net, &q, &policy, &crash(&[selected, standby[0]])).unwrap();
        let promoted: Vec<usize> = covered
            .fault_trace
            .events
            .iter()
            .filter_map(|e| match *e {
                Event::Promoted(_, standby, 0) => Some(standby as usize),
                _ => None,
            })
            .collect();
        assert_eq!(promoted, standby, "promotions follow the ranking");
        assert_eq!(covered.accounting.replacements, reserve);
        assert_eq!(covered.final_cohort.len(), 1);
        assert_eq!(covered.final_cohort[0].node.0, standby[1]);

        let err = run_query(
            &net,
            &q,
            &policy,
            &crash(&[selected, standby[0], standby[1]]),
        )
        .unwrap_err();
        match err {
            FederationError::QuorumLost {
                round,
                survivors,
                required,
                ..
            } => assert_eq!((round, survivors, required), (0, 0, 1)),
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    /// Lossy links: retries are charged to the ledger and the trace, and
    /// the federation still completes under the default retry budget.
    #[test]
    fn link_loss_charges_retries_and_extra_seconds() {
        let net = network(true);
        let q = leader_query();
        let cfg = FederationConfig {
            rounds: 3,
            aggregation: Aggregation::FedAvgWeights,
            ..fast_cfg(7)
        };
        let clean = run_query(&net, &q, &QueryDriven::top_l(3), &cfg).unwrap();
        let lossy = run_query(
            &net,
            &q,
            &QueryDriven::top_l(3),
            &FederationConfig {
                faults: Some(FaultSpec::none().with_link_loss(0.75)),
                tolerance: FaultTolerance::full_strength().with_retry(faults::RetryPolicy {
                    max_attempts: 8,
                    ..faults::RetryPolicy::default()
                }),
                ..cfg
            },
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
            &FederationConfig {
                faults: Some(FaultSpec::none().with_dropout(0.0).with_link_loss(0.0)),
                tolerance: FaultTolerance::default().with_deadline(deadline),
                ..fast_cfg(7)
            },
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

    // ---------------- pool sizes ----------------

    /// A small mixed workload: repeated rectangles, drifted ones, and a
    /// partly-overlapping one.
    fn workload() -> Vec<Query> {
        vec![
            Query::from_boundary_vec(0, &[0.0, 20.0, 0.0, 45.0]),
            Query::from_boundary_vec(1, &[0.0, 20.0, 0.0, 45.0]),
            Query::from_boundary_vec(2, &[0.5, 20.5, 0.5, 45.5]),
            Query::from_boundary_vec(3, &[0.0, 10.0, 0.0, 25.0]),
            Query::from_boundary_vec(4, &[0.0, 20.0, 0.0, 45.0]),
        ]
    }

    /// One row of the pool-size table: a configuration that shapes the
    /// training waves (none, faults with promotion, several rounds, a
    /// deadline cut).
    #[derive(Clone, Copy, Debug)]
    enum PoolCase {
        FaultFree,
        UnreliableEdge,
        ThreeRounds,
        StragglerDeadline,
    }

    /// Runs `workload()` under `case` on the default pool, checks that
    /// the case exercised its feature, then checks that pinned pools of
    /// 1, 2 and 4 workers (one trains inline on the caller's thread)
    /// give the same outcomes bit for bit — models, selections, fault
    /// traces and the whole ledger — or the same errors.
    fn assert_pool_sizes_agree(case: PoolCase) {
        let policy = QueryDriven::top_l(3);
        let queries = workload();
        let mut net = network(true);
        type Fired = fn(&RoundOutcome) -> bool;
        let (cfg, fired): (FederationConfig, Fired) = match case {
            PoolCase::FaultFree => (fast_cfg(7), |o| o.fault_trace.is_empty()),
            PoolCase::UnreliableEdge => (
                FederationConfig {
                    faults: Some(FaultSpec::unreliable_edge(42)),
                    tolerance: FaultTolerance::full_strength(),
                    ..fast_cfg(11)
                },
                |o| !o.fault_trace.is_empty(),
            ),
            PoolCase::ThreeRounds => (
                FederationConfig {
                    rounds: 3,
                    aggregation: Aggregation::FedAvgWeights,
                    ..fast_cfg(7)
                },
                |o| matches!(o.global, GlobalModel::Single(_)),
            ),
            PoolCase::StragglerDeadline => {
                // Make the worst-ranked participant of the first query
                // catastrophically slow, so the deadline cuts it off.
                let clean = run_query(&net, &queries[0], &policy, &fast_cfg(7)).unwrap();
                let slow = clean.selection.participants.last().unwrap().node;
                net.node_mut(slow).set_capacity(1e-4);
                let deadline = clean.accounting.sim_seconds * 10.0;
                (
                    FederationConfig {
                        tolerance: FaultTolerance::default().with_deadline(deadline),
                        ..fast_cfg(7)
                    },
                    |o| o.accounting.deadline_misses > 0,
                )
            }
        };
        let run = |threads| {
            let cfg = FederationConfig {
                threads,
                ..cfg.clone()
            };
            queries
                .iter()
                .map(|q| run_query(&net, q, &policy, &cfg))
                .collect::<Vec<_>>()
        };
        let reference = run(None);
        assert!(
            reference.iter().flatten().any(fired),
            "{case:?}: the case never exercised its feature"
        );
        for pool in [Some(1), Some(2), Some(4)] {
            for (out, want) in run(pool).iter().zip(&reference) {
                match (out, want) {
                    (Ok(out), Ok(want)) => assert_outcomes_identical(out, want),
                    (Err(e), Err(want)) => assert_eq!(e, want),
                    other => panic!("{case:?}, pool {pool:?}: outcomes diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_and_serial_rounds_agree() {
        assert_pool_sizes_agree(PoolCase::FaultFree);
    }

    /// Same seed ⇒ same trace, cohort, accounting and model, for any
    /// worker count.
    #[test]
    fn faulty_runs_are_bit_identical_across_thread_counts() {
        assert_pool_sizes_agree(PoolCase::UnreliableEdge);
    }

    #[test]
    fn three_round_refinement_agrees_across_pool_sizes() {
        assert_pool_sizes_agree(PoolCase::ThreeRounds);
    }

    #[test]
    fn straggler_deadline_agrees_across_pool_sizes() {
        assert_pool_sizes_agree(PoolCase::StragglerDeadline);
    }
}

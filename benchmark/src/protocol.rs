//! The run protocol every workload follows, and the metric tables.
//!
//! A run = set-up (repeated, median reported) → one untimed warm-up pass
//! that doubles as the verify pass → timed whole passes. With tracing
//! off the timed passes fill `--seconds` and give the end-to-end
//! metrics; with tracing on a fixed number of untraced and traced passes
//! alternate, the workload's direct layer calls run, and the per-layer
//! metrics come out.

use std::time::Instant;

use crate::report::Metric;
use crate::spans::Recorder;
use crate::stats;

/// `(name, unit, better, bound)` of every end-to-end metric, in the
/// order printed. `BENCHMARK.json` must list exactly these.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// `(name, unit, better, repeats exactly for a seed)` of every per-layer
/// metric. Each is measured in the traced run of the workload that
/// exercises its layer and reads 0 in the traced run of one that does
/// not: no call was made there, so no time was spent and nothing was
/// counted. `BENCHMARK.json` must list exactly these.
pub const PER_LAYER: &[(&str, &str, &str, bool)] = &[
    // serve_closed
    ("serve.keepalive_rtt_us", "us", "lower", false),
    ("serve.oneshot_rtt_us", "us", "lower", false),
    ("serve.ttfb_us", "us", "lower", false),
    ("serve.body_gap_us", "us", "lower", false),
    ("serve.overhead_us", "us", "lower", false),
    ("serve.batch_mean", "count", "higher", false),
    ("serve.status_200", "count", "higher", false),
    ("serve.status_422", "count", "lower", false),
    ("serve.status_429", "count", "lower", false),
    ("serve.status_503", "count", "lower", false),
    ("serve.io_errors", "count", "lower", false),
    ("serve.reconnects", "count", "lower", false),
    ("serve.metrics_scrape_us", "us", "lower", false),
    ("serve.metrics_bytes", "bytes", "lower", false),
    ("serve.latency_p99_ms", "ms", "lower", false),
    ("telemetry.overhead_share", "ratio", "lower", false),
    ("fedlearn.batch1_us", "us", "lower", false),
    ("fedlearn.batch8_per_query_us", "us", "lower", false),
    ("fedlearn.batch_speedup", "ratio", "higher", false),
    ("fedlearn.query_loss_us", "us", "lower", false),
    // serve_closed and paper_stream
    ("fedlearn.answer_loss", "mse", "lower", true),
    ("fedlearn.sim_s_per_query", "sim_s", "lower", true),
    // paper_stream
    ("fedlearn.round_us", "us", "lower", false),
    ("fedlearn.train_wall_share", "ratio", "lower", false),
    ("fedlearn.samples_per_query", "count", "lower", true),
    ("fedlearn.participants_per_query", "count", "lower", true),
    ("fedlearn.data_fraction", "ratio", "lower", true),
    ("fedlearn.latency_p99_ms", "ms", "lower", false),
    ("mlkit.train_ms", "ms", "lower", false),
    ("mlkit.sample_epochs_per_s", "1/s", "higher", false),
    ("par.threads", "count", "higher", true),
    ("par.pool_speedup", "ratio", "higher", false),
    ("core.build_s", "s", "lower", false),
    ("core.build_policy_us", "us", "lower", false),
    ("cluster.kmeans_fit_us", "us", "lower", false),
    ("selection.scan_small_us", "us", "lower", false),
    // fleet_select
    ("edgesim.fleet_build_s", "s", "lower", false),
    ("geom.index_build_ms", "ms", "lower", false),
    ("geom.candidates_ms", "ms", "lower", false),
    ("geom.candidates_per_query", "count", "lower", true),
    ("geom.cells_probed_per_query", "count", "lower", true),
    ("geom.domains_pruned_share", "ratio", "higher", true),
    ("selection.scan_1m_ms", "ms", "lower", false),
    ("selection.index_speedup", "ratio", "higher", false),
    ("selection.score_rank_ms", "ms", "lower", false),
    // fleet_churn
    ("edgesim.requantize_us", "us", "lower", false),
    ("selection.cache_exact_us", "us", "lower", false),
    ("selection.cache_delta_us", "us", "lower", false),
    ("selection.cache_miss_us", "us", "lower", false),
    ("selection.rebuild_ms", "ms", "lower", false),
    ("selection.index_only_us", "us", "lower", false),
    ("selection.cache_exact_share", "ratio", "higher", true),
    ("selection.cache_delta_share", "ratio", "higher", true),
    ("selection.cache_miss_share", "ratio", "lower", true),
    ("selection.cache_invalidations", "count", "lower", true),
    ("selection.cache_evictions", "count", "lower", true),
    // fleet_select and fleet_churn
    ("selection.latency_p99_ms", "ms", "lower", false),
    // every workload: the tail (too unsteady on this machine to gate:
    // see the README), where an operation's time goes, by layer, and what
    // recording the spans cost
    ("latency_p90_ms", "ms", "lower", false),
    ("share.serve", "ratio", "lower", false),
    ("share.fedlearn", "ratio", "lower", false),
    ("share.selection", "ratio", "lower", false),
    ("share.geom", "ratio", "lower", false),
    ("trace.overhead_share", "ratio", "lower", false),
];

/// What the verify pass found.
pub struct Verified {
    pub attempted: u64,
    pub failed: u64,
    /// Digest over every answer of the pass, in pool order.
    pub digest: u64,
    /// Mean `query_loss` and mean simulated seconds per query, for the
    /// workloads that train a model.
    pub answer_loss: Option<f64>,
    pub sim_s_per_query: Option<f64>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The per-layer name this workload's p99 latency is reported under.
    const P99_METRIC: &'static str;

    /// Everything a user waits for before the first answer: data and
    /// fleet generation, `FederationBuilder::build`, first selection
    /// (index build), server spawn.
    fn setup(seed: u64) -> Self;

    /// One pass over the pool that checks every answer against the
    /// workload's reference.
    fn verify(&mut self) -> Verified;

    /// Operations in one pass.
    fn ops_per_pass(&self) -> usize;

    /// One whole pass over the pool; writes the latency (ms) of the
    /// operation at each place of the pool into `latencies_ms`, records
    /// spans when `rec` is enabled, and returns how many operations
    /// failed.
    fn pass(&mut self, rec: &mut Recorder, latencies_ms: &mut [f64]) -> u64;

    /// The traced run's direct layer calls. `typical_ms` holds, per place
    /// of the pool, the median latency over the traced passes.
    fn layer_metrics(&mut self, rec: &mut Recorder, typical_ms: &[f64]) -> Vec<Metric>;

    /// `pool <n>`-style facts for the fingerprint.
    fn describe(&self) -> String;

    /// Stops what set-up started.
    fn teardown(self) {}
}

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How long a run measures unless `--seconds` says otherwise:
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 20.0;
/// Timed passes a run must complete.
const MIN_PASSES: usize = 5;
/// Untraced/traced pass pairs of a traced run. Fixed, so counts that
/// depend on how many passes ran repeat exactly.
const TRACED_PAIRS: usize = 3;
/// A run that is not done by then stops without a result: the driver
/// gives up at 180 s.
const HARD_LIMIT_S: f64 = 160.0;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Printed for people, not part of the gated set.
    pub extra: Vec<Metric>,
    pub describe: String,
    /// The span file's content, for a traced run.
    pub span_file: Option<String>,
}

/// Set-up (and the teardown between two of them) is repeated until it
/// has run this often and for this long: a set-up of a second is read
/// five times, one of 40 ms seventy times, and the median of either is
/// as steady as the machine allows.
const MIN_SETUPS: usize = 5;
const SETUP_PHASE_S: f64 = 3.0;

/// The last state set up, and every set-up's seconds.
fn repeated_setup<W: Workload>(seed: u64) -> (W, Vec<f64>) {
    let phase = Instant::now();
    let mut times = Vec::new();
    let mut state: Option<W> = None;
    while times.len() < MIN_SETUPS || phase.elapsed().as_secs_f64() < SETUP_PHASE_S {
        if let Some(previous) = state.take() {
            previous.teardown();
        }
        let start = Instant::now();
        state = Some(W::setup(seed));
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("set-up ran"), times)
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts `VmHWM` again from the present resident size (`clear_refs`
/// value 5, Linux 4.0 and later). Where `/proc` does not allow it the
/// peak keeps covering the whole process, and the run says so.
fn restart_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Every per-layer metric in table order: the value the workload
/// measured, or 0 for a layer it never calls.
fn fill_per_layer(owned: &[Metric]) -> Vec<Metric> {
    for m in owned {
        assert!(
            PER_LAYER.iter().any(|&(name, ..)| name == m.name),
            "{} is not in the per-layer table",
            m.name
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, _, _)| {
            let value = owned.iter().find(|m| m.name == name).map_or(0.0, |m| {
                assert_eq!(m.unit, unit, "unit of {name} differs from the table");
                m.value
            });
            Metric::new(name, value, unit)
        })
        .collect()
}

pub fn run<W: Workload>(cfg: &RunConfig) -> Result<RunResult, String> {
    let started = Instant::now();
    let (mut state, setup_times) = repeated_setup::<W>(cfg.seed);
    let rss_after_setup_mb = status_mb("VmRSS");
    // The verify pass runs the reference beside the program (full scans of
    // the fleet, a second network, a second federation). That memory is
    // the checker's: the peak is read before it and started afresh after.
    let setup_peak_mb = status_mb("VmHWM");
    let verified = state.verify();
    let peak_restarted = restart_peak_rss();
    let mut attempted = verified.attempted;
    let mut failed = verified.failed;

    let mut rec = Recorder::new(false);
    let ops = state.ops_per_pass();
    // One whole pass, timed from its first operation to its last with
    // everything between them: the pass's rate, and its latencies.
    let mut pass = |state: &mut W, rec: &mut Recorder, traced: bool| {
        rec.set_enabled(traced);
        let mut row = vec![0.0; ops];
        let start = Instant::now();
        failed += state.pass(rec, &mut row);
        let end = Instant::now();
        rec.record("pass", start, end, None, 0);
        attempted += ops as u64;
        (ops as f64 / (end - start).as_secs_f64(), row)
    };

    let mut metrics;
    let mut extra = Vec::new();
    let mut span_file = None;
    if cfg.trace {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..TRACED_PAIRS {
            plain.push(pass(&mut state, &mut rec, false).1);
            traced.push(pass(&mut state, &mut rec, true).1);
        }
        rec.set_enabled(true);
        // Recording a span costs tens of nanoseconds against operations
        // of milliseconds; three passes a side can only show that if the
        // stalls of single passes are dropped place by place first.
        let typical_traced = stats::typical_per_position(&traced);
        let pass_ms = |typical: &[f64]| typical.iter().sum::<f64>();
        let mut owned = state.layer_metrics(&mut rec, &typical_traced);
        owned.push(Metric::new(
            "trace.overhead_share",
            1.0 - pass_ms(&stats::typical_per_position(&plain)) / pass_ms(&typical_traced),
            "ratio",
        ));
        let mut all_ms: Vec<f64> = plain.into_iter().chain(traced).flatten().collect();
        stats::sort(&mut all_ms);
        owned.push(Metric::new(
            "latency_p90_ms",
            stats::percentile(&all_ms, 90.0),
            "ms",
        ));
        owned.push(Metric::new(
            W::P99_METRIC,
            stats::percentile(&all_ms, 99.0),
            "ms",
        ));
        if let Some(loss) = verified.answer_loss {
            owned.push(Metric::new("fedlearn.answer_loss", loss, "mse"));
        }
        if let Some(sim) = verified.sim_s_per_query {
            owned.push(Metric::new("fedlearn.sim_s_per_query", sim, "sim_s"));
        }
        metrics = fill_per_layer(&owned);
        span_file = Some(crate::spans::to_json(W::NAME, rec.spans()));
    } else {
        let (mut rates, mut all_ms) = (Vec::new(), Vec::new());
        let timed = Instant::now();
        while rates.len() < MIN_PASSES || timed.elapsed().as_secs_f64() < cfg.seconds {
            if started.elapsed().as_secs_f64() > HARD_LIMIT_S {
                return Err(format!(
                    "{}: {} of {MIN_PASSES} timed passes done after {HARD_LIMIT_S} s",
                    W::NAME,
                    rates.len()
                ));
            }
            let (rate, row) = pass(&mut state, &mut rec, false);
            rates.push(rate);
            all_ms.extend(row);
        }
        stats::sort(&mut all_ms);
        metrics = vec![
            Metric::new("setup_s", stats::median(&setup_times), "s"),
            Metric::new("throughput_ops_s", stats::median(&rates), "ops/s"),
            Metric::new("latency_p50_ms", stats::percentile(&all_ms, 50.0), "ms"),
        ];
        extra.push(Metric::new(
            "latency_p90_ms",
            stats::percentile(&all_ms, 90.0),
            "ms",
        ));
        extra.push(Metric::new("setups", setup_times.len() as f64, "count"));
        extra.push(Metric::new("passes", rates.len() as f64, "count"));
        extra.push(Metric::new("timed_ops", all_ms.len() as f64, "count"));
        if let Some(loss) = verified.answer_loss {
            extra.push(Metric::new("answer_loss", loss, "mse"));
        }
        if let Some(sim) = verified.sim_s_per_query {
            extra.push(Metric::new("sim_s_per_query", sim, "sim_s"));
        }
    }
    let mut describe = state.describe();
    state.teardown();
    if !cfg.trace {
        let timed_peak_mb = status_mb("VmHWM");
        metrics.push(Metric::new(
            "peak_rss_mb",
            setup_peak_mb.max(timed_peak_mb),
            "MB",
        ));
        // What the data, the fleet and the index hold before the first
        // timed answer; the rest of the peak is what answering allocates.
        extra.push(Metric::new("rss_after_setup_mb", rss_after_setup_mb, "MB"));
        if !peak_restarted {
            describe.push_str(" peak_rss_includes_verify");
        }
    }
    extra.push(Metric::new(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    if let Some(m) = metrics.iter().chain(&extra).find(|m| !m.value.is_finite()) {
        return Err(format!("{}: {} is {}", W::NAME, m.name, m.value));
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        digest: verified.digest,
        metrics,
        extra,
        describe,
        span_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    /// The driver reads `BENCHMARK.json`, the runner prints from the
    /// tables above: they must name the same metrics with the same
    /// units, directions and bounds.
    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str, next: &str| {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            json[start..end].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        for &(name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(e2e.contains(&entry), "end_to_end lacks {entry}");
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        let layers = section("per_layer", "\u{0}");
        for &(name, unit, better, _) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(layers.contains(&entry), "per_layer lacks {entry}");
        }
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        for workload in crate::WORKLOADS {
            assert!(
                section("workloads", "end_to_end").contains(&format!("\"name\": \"{workload}\""))
            );
        }
    }
}

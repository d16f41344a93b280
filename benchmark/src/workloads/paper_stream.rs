//! `paper_stream`: the paper's own evaluation traffic (Table III,
//! Fig. 7) — 200 uniform queries, one `Federation::run_query` each, in
//! process. `mlkit` training, the `fedlearn` round and the `par` pool do
//! nearly all the work; selection is microseconds of milliseconds and
//! `serve` is bypassed.
//!
//! The 200 queries are the ones `repro` evaluates the paper on, whatever
//! the seed. A query here costs anything from 1 ms to 50 ms depending on
//! how much data its rectangle catches, and 200 of them drawn afresh
//! differ by ±23 % in mean cost and ±50 % in median cost from one seed to
//! the next — more than any bound this benchmark could state.

use std::time::Instant;

use crate::digest::{selection_digest, Digest};
use crate::facade::{self, Answer, Federation, Query, PAPER_L};
use crate::protocol::{Verified, Workload};
use crate::report::Metric;
use crate::spans::{p50_us, Recorder};
use crate::stats;

pub struct PaperStream {
    fed: Federation,
    queries: Vec<Query>,
    build_s: f64,
    /// Per-query digest of the verify pass; every later pass must repeat
    /// it.
    expected: Vec<u64>,
    samples: Vec<f64>,
    participants: Vec<f64>,
    data_fractions: Vec<f64>,
    /// Σ training wall seconds the program reported in traced passes,
    /// and Σ wall seconds of the same operations.
    train_wall_s: f64,
    traced_wall_s: f64,
}

/// Digest of what a pass can check without paying for `query_loss`:
/// who trained, with which ranking bits, on how many samples. A refused
/// round hashes as its message.
fn answer_digest(answer: &Result<Answer, String>) -> u64 {
    let mut d = Digest::new();
    match answer {
        Ok(answer) => {
            d.word(selection_digest(
                answer.participants.iter(),
                answer.standby.iter().copied(),
            ));
            d.word(answer.samples_used);
            d.float(answer.sim_seconds);
        }
        Err(message) => message.bytes().for_each(|b| d.word(u64::from(b))),
    }
    d.value()
}

impl Workload for PaperStream {
    const NAME: &'static str = "paper_stream";
    const P99_METRIC: &'static str = "fedlearn.latency_p99_ms";

    fn setup(_seed: u64) -> Self {
        let start = Instant::now();
        let fed = facade::paper_federation(None);
        let build_s = start.elapsed().as_secs_f64();
        let queries = facade::paper_queries(&fed);
        // A refused round (no node overlaps) is still a first answer.
        let _ = std::hint::black_box(facade::run_query(&fed, &queries[0], PAPER_L));
        Self {
            fed,
            queries,
            build_s,
            expected: Vec::new(),
            samples: Vec::new(),
            participants: Vec::new(),
            data_fractions: Vec::new(),
            train_wall_s: 0.0,
            traced_wall_s: 0.0,
        }
    }

    fn verify(&mut self) -> Verified {
        let mut digest = Digest::new();
        let (mut losses, mut sims) = (Vec::new(), Vec::new());
        let mut failed = 0;
        for q in &self.queries {
            let outcome = facade::run_query(&self.fed, q, PAPER_L);
            let answer = facade::answer(&outcome);
            self.expected.push(answer_digest(&answer));
            digest.word(*self.expected.last().expect("just pushed"));
            let Ok(answer) = answer else {
                continue;
            };
            let loss = outcome
                .as_ref()
                .ok()
                .and_then(|o| facade::query_loss(&self.fed, q, o));
            digest.word(loss.map_or(u64::MAX, f64::to_bits));
            // A loss that is not a number is a wrong answer.
            if loss.is_some_and(|l| !l.is_finite()) {
                failed += 1;
            }
            losses.extend(loss);
            sims.push(answer.sim_seconds);
            self.samples.push(answer.samples_used as f64);
            self.participants.push(answer.participants.len() as f64);
            self.data_fractions.push(answer.data_fraction);
        }
        Verified {
            attempted: self.queries.len() as u64,
            failed,
            digest: digest.value(),
            answer_loss: Some(stats::mean(&losses)),
            sim_s_per_query: Some(stats::mean(&sims)),
        }
    }

    fn ops_per_pass(&self) -> usize {
        self.queries.len()
    }

    fn pass(&mut self, rec: &mut Recorder, latencies_ms: &mut [f64]) -> u64 {
        let mut failed = 0;
        for (i, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            let outcome = facade::run_query(&self.fed, q, PAPER_L);
            let end = Instant::now();
            latencies_ms[i] = (end - start).as_secs_f64() * 1e3;
            rec.record("core.run_query", start, end, None, i as u64);
            let answer = facade::answer(&outcome);
            if answer_digest(&answer) != self.expected[i] {
                failed += 1;
            }
            if let (true, Ok(answer)) = (rec.enabled(), answer) {
                self.train_wall_s += answer.train_wall_seconds;
                self.traced_wall_s += (end - start).as_secs_f64();
            }
        }
        failed
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, typical_ms: &[f64]) -> Vec<Metric> {
        // The inner layers of `run_query`, re-enacted on the same queries.
        let policy = facade::build_policy(&self.fed, PAPER_L);
        let net = facade::network(&self.fed);
        let mut select_us = Vec::with_capacity(self.queries.len());
        for (i, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(facade::build_policy(&self.fed, PAPER_L));
            let mid = Instant::now();
            std::hint::black_box(facade::select(&policy, net, q));
            let end = Instant::now();
            rec.record("core.build_policy", start, mid, None, i as u64);
            rec.record("selection.select", mid, end, None, i as u64);
            select_us.push((end - mid).as_secs_f64() * 1e6);
        }
        // `run_query − select`, query by query.
        let round_us: Vec<f64> = typical_ms
            .iter()
            .zip(&select_us)
            .map(|(ms, select)| ms * 1e3 - select)
            .collect();

        let joint = facade::joint(&self.fed, 0);
        let data = facade::unit_scaled_dataset(&self.fed, 0);
        let mut visits = 0;
        for rep in 0..5 {
            let start = Instant::now();
            std::hint::black_box(facade::kmeans_fit(joint, 5, rep));
            let mid = Instant::now();
            visits = facade::train_lr(&data, rep);
            let end = Instant::now();
            rec.record("cluster.kmeans_fit", start, mid, None, rep);
            rec.record("mlkit.train", mid, end, None, rep);
        }

        // The pool's worth: whole passes at one worker against `nproc`.
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (serial, pooled) = (
            facade::paper_federation(Some(1)),
            facade::paper_federation(Some(nproc)),
        );
        let mut pass_s = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            for (side, fed) in [&serial, &pooled].into_iter().enumerate() {
                let start = Instant::now();
                for q in &self.queries {
                    let _ = std::hint::black_box(facade::run_query(fed, q, PAPER_L));
                }
                pass_s[side].push(start.elapsed().as_secs_f64());
            }
        }

        let p50 = |name: &str| p50_us(rec.spans(), name);
        let op_us = stats::median(typical_ms) * 1e3;
        let select = p50("selection.select");
        let build_policy = p50("core.build_policy");
        let train_ms = p50("mlkit.train") / 1e3;
        vec![
            Metric::new("fedlearn.round_us", stats::median(&round_us), "us"),
            Metric::new(
                "fedlearn.train_wall_share",
                self.train_wall_s / self.traced_wall_s,
                "ratio",
            ),
            Metric::new(
                "fedlearn.samples_per_query",
                stats::mean(&self.samples),
                "count",
            ),
            Metric::new(
                "fedlearn.participants_per_query",
                stats::mean(&self.participants),
                "count",
            ),
            Metric::new(
                "fedlearn.data_fraction",
                stats::mean(&self.data_fractions),
                "ratio",
            ),
            Metric::new("mlkit.train_ms", train_ms, "ms"),
            Metric::new(
                "mlkit.sample_epochs_per_s",
                visits as f64 / (train_ms / 1e3),
                "1/s",
            ),
            Metric::new("par.threads", facade::par_threads() as f64, "count"),
            Metric::new(
                "par.pool_speedup",
                stats::median(&pass_s[0]) / stats::median(&pass_s[1]),
                "ratio",
            ),
            Metric::new("core.build_s", self.build_s, "s"),
            Metric::new("core.build_policy_us", build_policy, "us"),
            Metric::new("cluster.kmeans_fit_us", p50("cluster.kmeans_fit"), "us"),
            Metric::new("selection.scan_small_us", select, "us"),
            Metric::new("share.selection", select / op_us, "ratio"),
            Metric::new(
                "share.fedlearn",
                (op_us - select - build_policy) / op_us,
                "ratio",
            ),
        ]
    }

    fn describe(&self) -> String {
        format!("pool {} nodes 10 samples_per_node 8760", self.queries.len())
    }
}

//! A deterministic load generator for the query-serving subsystem
//! (`repro load`).
//!
//! Two layers, cleanly separated so the results are reproducible:
//!
//! 1. **Measurement pass** — every query in a data-anchored workload is
//!    pushed through the real serving path ([`fedlearn::run_batch`]
//!    over cache-bucket groups, exactly like the server's batcher) and
//!    its *simulated* service time (`accounting.sim_seconds`) recorded.
//!    Bit-identical at any `QENS_THREADS` because `run_batch` is.
//! 2. **Queueing simulation** — a logical-clock discrete-event model of
//!    the server (one batcher, bounded queue, cache-bucket batching)
//!    replays those service times under closed-loop (fixed client
//!    concurrency, issue-on-completion) and open-loop (seeded Poisson
//!    arrivals at a multiple of the measured capacity) load.
//!
//! No wall clock anywhere: the emitted saturation table
//! (`results/fig9_saturation.csv`) is byte-identical across runs and
//! thread counts, which the `fig9_saturation_csv_matches_a_fresh_run`
//! golden test checks against the committed file.
//! The open-loop sweep is the paper-style saturation curve: offered
//! load vs. completed throughput, p50/p99 latency and shed rate, with
//! admission control (the bounded queue) visibly bounding p99 once the
//! server saturates.

use std::collections::VecDeque;

use linalg::rng::{rng_for, Rng};
use qens::geom::Query;
use qens::prelude::*;
use qens::{fedlearn, telemetry};

use super::SERVE_SELECT_L;

/// Client concurrency levels for the closed-loop runs.
const CLOSED_CONCURRENCY: &[usize] = &[1, 4, 16];

/// Offered-load multiples of the measured capacity for the open-loop
/// sweep. The high end is deliberately far past saturation so the
/// admission-control behaviour (shedding, bounded p99) is visible.
const OPEN_FACTORS: &[f64] = &[0.5, 0.8, 1.0, 1.5, 2.5, 4.0];

/// What `repro load` should run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Workload seed (drives the anchored queries and the open-loop
    /// arrival schedule).
    pub seed: u64,
    /// Workload size: queries measured and replayed per simulated run.
    pub queries: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            queries: 160,
        }
    }
}

/// One row of the saturation table.
struct Row {
    mode: &'static str,
    param: String,
    offered_qps: f64,
    completed: usize,
    shed: usize,
    throughput_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Row {
    fn shed_rate(&self) -> f64 {
        let total = self.completed + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    fn to_csv(&self) -> String {
        format!(
            "{},{},{:.6},{},{},{:.6},{:.6},{:.6},{:.6}",
            self.mode,
            self.param,
            self.offered_qps,
            self.completed,
            self.shed,
            self.throughput_qps,
            self.p50_ms,
            self.p99_ms,
            self.shed_rate()
        )
    }
}

/// Nearest-rank percentile over an unsorted sample, in milliseconds.
fn percentile_ms(latencies_seconds: &[f64], q: usize) -> f64 {
    if latencies_seconds.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies_seconds.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1] * 1e3
}

/// The measurement pass: real federation rounds over the anchored
/// workload, batched exactly like the server's batcher (greedy
/// consecutive cache-bucket groups capped at `batch_max`). Returns the
/// per-query simulated service times plus this pass's selection-cache
/// hit/miss delta.
fn measure_service_times(
    fed: &Federation,
    queries: &[Query],
    batch_max: usize,
) -> (Vec<f64>, Vec<u64>, u64, u64) {
    let policy = fed.build_policy(&PolicyKind::query_driven(SERVE_SELECT_L));
    let compat = fed.cache_config().unwrap_or_default();
    let keys: Vec<u64> = queries
        .iter()
        .map(|q| compat.compatibility_key(q))
        .collect();
    let snap = |name: &str| telemetry::global().snapshot().counter(name).unwrap_or(0);
    let (hits0, misses0) = (
        snap("qens_cache_hits_total"),
        snap("qens_cache_misses_total"),
    );
    let mut service = vec![0.0f64; queries.len()];
    let mut start = 0;
    while start < queries.len() {
        let mut end = start + 1;
        while end < queries.len() && end - start < batch_max && keys[end] == keys[start] {
            end += 1;
        }
        let outcomes = fedlearn::run_batch(
            fed.network(),
            &queries[start..end],
            policy.as_ref(),
            fed.config(),
        );
        for (offset, outcome) in outcomes.into_iter().enumerate() {
            // A failed query (no participants, quorum loss) still costs
            // the client a round trip; it just contributes no training
            // time. The anchored workload makes this path rare.
            service[start + offset] = outcome.map_or(0.0, |o| o.accounting.sim_seconds);
        }
        start = end;
    }
    let (hits1, misses1) = (
        snap("qens_cache_hits_total"),
        snap("qens_cache_misses_total"),
    );
    (service, keys, hits1 - hits0, misses1 - misses0)
}

/// Closed-loop replay: `concurrency` clients, each reissuing the next
/// workload query the instant its previous one completes. The server
/// model mirrors the batcher: it takes the earliest waiting query, adds
/// every same-bucket query that has already arrived (up to
/// `batch_max`), and serves the batch in `max(member service)` —
/// exactly the sharing `run_batch` gives the real server.
fn closed_loop(service: &[f64], keys: &[u64], concurrency: usize, batch_max: usize) -> Row {
    let n = service.len();
    // (arrival, query index) of every not-yet-served query.
    let mut waiting: VecDeque<(f64, usize)> = (0..concurrency.min(n)).map(|i| (0.0, i)).collect();
    let mut next_issue = concurrency.min(n);
    let mut free_at = 0.0f64;
    let mut latencies = Vec::with_capacity(n);
    let mut makespan = 0.0f64;
    while let Some(&(head_arrival, _)) = waiting.front() {
        let start = free_at.max(head_arrival);
        let (_, head_idx) = waiting.pop_front().expect("non-empty");
        let mut batch = vec![(head_arrival, head_idx)];
        // Coalesce same-bucket queries that arrived by the start of the
        // wave, preserving arrival order.
        let mut i = 0;
        while i < waiting.len() && batch.len() < batch_max {
            if waiting[i].0 <= start && keys[waiting[i].1] == keys[head_idx] {
                batch.push(waiting.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        let wave = batch
            .iter()
            .map(|&(_, idx)| service[idx])
            .fold(0.0f64, f64::max);
        let finish = start + wave;
        for (arrival, _) in batch {
            latencies.push(finish - arrival);
            if next_issue < n {
                waiting.push_back((finish, next_issue));
                next_issue += 1;
            }
        }
        free_at = finish;
        makespan = finish;
    }
    let throughput = if makespan > 0.0 {
        latencies.len() as f64 / makespan
    } else {
        0.0
    };
    Row {
        mode: "closed",
        param: format!("{concurrency}"),
        offered_qps: throughput,
        completed: latencies.len(),
        shed: 0,
        throughput_qps: throughput,
        p50_ms: percentile_ms(&latencies, 50),
        p99_ms: percentile_ms(&latencies, 99),
    }
}

/// Open-loop replay: Poisson arrivals at `lambda` qps from a seeded
/// exponential schedule, a bounded queue of `queue_cap` (arrivals past
/// a full queue are shed — the 429 path), and the same batching server
/// model as [`closed_loop`].
fn open_loop(
    service: &[f64],
    keys: &[u64],
    lambda: f64,
    factor: f64,
    queue_cap: usize,
    batch_max: usize,
    seed: u64,
) -> Row {
    let n = service.len();
    let mut rng = rng_for(seed, 0x10AD ^ factor.to_bits());
    let mut t = 0.0f64;
    let arrivals: Vec<f64> = (0..n)
        .map(|_| {
            // Inverse-CDF exponential; 1 - u keeps ln() finite.
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += -u.ln() / lambda;
            t
        })
        .collect();

    let mut queue: VecDeque<(f64, usize)> = VecDeque::new();
    let mut free_at = 0.0f64;
    let mut latencies = Vec::with_capacity(n);
    let mut shed = 0usize;
    let mut makespan = 0.0f64;

    // One wave off the queue: earliest head + same-bucket companions
    // that arrived by the wave's start.
    let mut serve_wave = |queue: &mut VecDeque<(f64, usize)>, free_at: &mut f64| {
        let (head_arrival, head_idx) = queue.pop_front().expect("non-empty queue");
        let start = free_at.max(head_arrival);
        let mut batch = vec![(head_arrival, head_idx)];
        let mut i = 0;
        while i < queue.len() && batch.len() < batch_max {
            if queue[i].0 <= start && keys[queue[i].1] == keys[head_idx] {
                batch.push(queue.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        let wave = batch
            .iter()
            .map(|&(_, idx)| service[idx])
            .fold(0.0f64, f64::max);
        let finish = start + wave;
        for (arrival, _) in batch {
            latencies.push(finish - arrival);
        }
        *free_at = finish;
        finish
    };

    for (idx, &arrival) in arrivals.iter().enumerate() {
        // Let the server work through everything it would finish before
        // this arrival shows up.
        while !queue.is_empty() && free_at.max(queue.front().expect("non-empty").0) < arrival {
            makespan = serve_wave(&mut queue, &mut free_at);
        }
        if queue.len() >= queue_cap {
            shed += 1; // the 429 path: queue full at arrival time
        } else {
            queue.push_back((arrival, idx));
        }
    }
    while !queue.is_empty() {
        makespan = serve_wave(&mut queue, &mut free_at);
    }

    let throughput = if makespan > 0.0 {
        latencies.len() as f64 / makespan
    } else {
        0.0
    };
    Row {
        mode: "open",
        param: format!("{factor:.2}"),
        offered_qps: lambda,
        completed: latencies.len(),
        shed,
        throughput_qps: throughput,
        p50_ms: percentile_ms(&latencies, 50),
        p99_ms: percentile_ms(&latencies, 99),
    }
}

/// The full deterministic run: measurement pass + closed-loop ladder +
/// open-loop saturation sweep. Returns the CSV (header included) and
/// prints a human summary. Panics if admission control fails to bound
/// the overloaded tail — that is the property the sweep exists to show.
pub fn run_load(opts: &LoadOptions) -> String {
    telemetry::set_enabled(true);
    let fed = super::demo_federation();
    let admission = fed.admission();
    let workload = fed.anchored_workload(opts.queries, 4, opts.seed);
    let (service, keys, cache_hits, cache_misses) =
        measure_service_times(&fed, &workload.queries, admission.batch_max);

    let mut rows: Vec<Row> = CLOSED_CONCURRENCY
        .iter()
        .map(|&c| closed_loop(&service, &keys, c, admission.batch_max))
        .collect();
    // Capacity = what the most parallel closed-loop run sustained; the
    // open-loop sweep offers multiples of it.
    let mu = rows
        .last()
        .map(|r| r.throughput_qps)
        .filter(|&t| t > 0.0)
        .unwrap_or(1.0);
    // The sweep replays a finite workload, so a queue as deep as the
    // whole run could never fill and the admission behaviour would be
    // invisible. Model the real depth, capped at a fifth of the
    // workload — the shed/p99 shape is what matters, not the absolute
    // queue size (the live server still enforces the configured depth).
    let queue_cap = admission.queue_depth.min((opts.queries / 5).max(1));
    for &factor in OPEN_FACTORS {
        rows.push(open_loop(
            &service,
            &keys,
            mu * factor,
            factor,
            queue_cap,
            admission.batch_max,
            opts.seed,
        ));
    }

    let overload = rows
        .iter()
        .find(|r| r.mode == "open" && r.param == "4.00")
        .expect("overload row present");
    let saturated = rows
        .iter()
        .find(|r| r.mode == "open" && r.param == "2.50")
        .expect("saturation row present");
    assert!(
        overload.shed > 0,
        "admission control must shed under 4x overload (shed {} of {})",
        overload.shed,
        overload.completed + overload.shed
    );
    assert!(
        overload.p99_ms <= saturated.p99_ms * 1.25,
        "the bounded queue must hold the p99 plateau under overload: \
         p99@4.0x = {:.1} ms vs p99@2.5x = {:.1} ms",
        overload.p99_ms,
        saturated.p99_ms
    );

    let mut csv = String::from(
        "mode,param,offered_qps,completed,shed,throughput_qps,p50_ms,p99_ms,shed_rate\n",
    );
    for row in &rows {
        csv.push_str(&row.to_csv());
        csv.push('\n');
    }

    let lookups = cache_hits + cache_misses;
    let hit_rate = if lookups > 0 {
        cache_hits as f64 / lookups as f64
    } else {
        0.0
    };
    println!(
        "load: {} queries, capacity {mu:.3} qps (closed-loop x{}); \
         cache {cache_hits} hits / {cache_misses} misses ({:.0}% hit rate); \
         overload 4.0x: shed {} ({:.0}%), p99 {:.1} ms (2.5x: {:.1} ms)",
        opts.queries,
        CLOSED_CONCURRENCY.last().expect("non-empty ladder"),
        hit_rate * 100.0,
        overload.shed,
        overload.shed_rate() * 100.0,
        overload.p99_ms,
        saturated.p99_ms,
    );
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_inputs() -> (Vec<f64>, Vec<u64>) {
        // 12 queries, three buckets, constant 1 s service.
        let service = vec![1.0; 12];
        let keys = vec![1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3];
        (service, keys)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = vec![0.001, 0.002, 0.003, 0.004];
        assert_eq!(percentile_ms(&xs, 50), 2.0);
        assert_eq!(percentile_ms(&xs, 99), 4.0);
        assert_eq!(percentile_ms(&[], 99), 0.0);
    }

    #[test]
    fn closed_loop_serves_everything_exactly_once() {
        let (service, keys) = toy_inputs();
        for &c in CLOSED_CONCURRENCY {
            let row = closed_loop(&service, &keys, c, 8);
            assert_eq!(row.completed, service.len(), "concurrency {c}");
            assert_eq!(row.shed, 0);
            assert!(row.throughput_qps > 0.0);
        }
    }

    #[test]
    fn closed_loop_batching_raises_throughput() {
        let (service, keys) = toy_inputs();
        let solo = closed_loop(&service, &keys, 1, 8);
        let batched = closed_loop(&service, &keys, 8, 8);
        // With 8 outstanding, same-bucket queries share waves; with one
        // outstanding, every query pays full service.
        assert!(
            batched.throughput_qps > solo.throughput_qps * 1.5,
            "batched {} vs solo {}",
            batched.throughput_qps,
            solo.throughput_qps
        );
    }

    #[test]
    fn open_loop_sheds_when_the_queue_is_full() {
        let (service, keys) = toy_inputs();
        // Tiny queue, heavy offered load: most arrivals bounce.
        let row = open_loop(&service, &keys, 100.0, 4.0, 1, 1, 7);
        assert!(row.shed > 0, "expected sheds, got {}", row.shed);
        assert_eq!(row.completed + row.shed, service.len());
        // And the bounded queue bounds waiting: nobody waits more than
        // ~queue_cap * max service behind the head.
        assert!(row.p99_ms <= (1.0 + 2.0) * 1000.0 * 1.01);
    }

    #[test]
    fn open_loop_is_deterministic_for_a_seed() {
        let (service, keys) = toy_inputs();
        let a = open_loop(&service, &keys, 5.0, 1.0, 4, 4, 11).to_csv();
        let b = open_loop(&service, &keys, 5.0, 1.0, 4, 4, 11).to_csv();
        assert_eq!(a, b);
    }

    #[test]
    fn full_load_run_emits_a_stable_saturation_table() {
        // Small workload to keep the test quick; the asserts inside
        // run_load (shed under overload, bounded p99) must hold here too.
        let opts = LoadOptions {
            seed: 42,
            queries: 48,
        };
        let a = run_load(&opts);
        let b = run_load(&opts);
        assert_eq!(a, b, "the saturation table must be run-to-run stable");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(
            lines[0],
            "mode,param,offered_qps,completed,shed,throughput_qps,p50_ms,p99_ms,shed_rate"
        );
        assert_eq!(
            lines.len(),
            1 + CLOSED_CONCURRENCY.len() + OPEN_FACTORS.len()
        );
        let overload = lines.last().expect("rows present");
        assert!(overload.starts_with("open,4.00,"));
    }
}

//! `serve_closed`: analysts each wait for their model, so the loop is
//! closed — `min(nproc, 2)` keep-alive clients against `repro serve`'s
//! own federation. The federation is tiny on purpose: HTTP parse, queue,
//! channel hand-off, JSON encode and telemetry do most of the work,
//! `fedlearn` and `mlkit` little.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::digest::Digest;
use crate::facade::{self, Federation, Query, Server, SERVE_L};
use crate::http::{self, Client};
use crate::protocol::{Verified, Workload};
use crate::report::Metric;
use crate::spans::{p50_us, Recorder};
use crate::stats;

/// Pool size. A pass is `POOL ÷ clients` round trips; at the ~44 ms a
/// keep-alive round trip takes today, 128 gives seven passes in a 20 s
/// run.
const POOL: usize = 128;

/// What the reference says a reply must carry.
enum Expected {
    /// Status 200 with these fields.
    Answer {
        participants: Vec<(u64, f64)>,
        samples_used: u64,
        loss: Option<f64>,
        sim_seconds: f64,
    },
    /// The reference round failed, so the server must answer 422.
    Refused,
}

impl Expected {
    fn status(&self) -> u16 {
        match self {
            Expected::Answer { .. } => 200,
            Expected::Refused => 422,
        }
    }
}

/// One request's timeline on a client.
struct Exchange {
    index: usize,
    start: Instant,
    /// `None` for an I/O error.
    response: Option<http::Response>,
}

pub struct ServeClosed {
    server: Option<Server>,
    addr: String,
    clients: Vec<Client>,
    n_clients: usize,
    queries: Vec<Query>,
    bodies: Vec<String>,
    expected: Vec<Expected>,
    /// Built by the verify pass; the in-process probes reuse it.
    reference: Option<Federation>,
    /// Replies per status of `STATUS_NAMES`.
    statuses: [u64; 4],
    batch_sum: u64,
    batch_replies: u64,
    scrapes: Vec<(f64, usize)>,
}

const STATUS_NAMES: [(&str, u16); 4] = [
    ("serve.status_200", 200),
    ("serve.status_422", 422),
    ("serve.status_429", 429),
    ("serve.status_503", 503),
];

impl ServeClosed {
    /// One closed-loop pass: every client takes the next unanswered pool
    /// query as soon as its previous reply is complete.
    fn exchange_pool(&mut self, scrape_at: Option<usize>) -> (Vec<Exchange>, Option<Exchange>) {
        let next = AtomicUsize::new(0);
        let (bodies, addr) = (&self.bodies, self.addr.as_str());
        let (exchanges, scrape) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= bodies.len() {
                                return done;
                            }
                            let start = Instant::now();
                            let response = client.request("POST", "/query", &bodies[index]).ok();
                            done.push(Exchange {
                                index,
                                start,
                                response,
                            });
                        }
                    })
                })
                .collect();
            // One scrape per traced pass, while the clients are loading
            // the server.
            let scrape = scrape_at.map(|at| {
                while next.load(Ordering::Relaxed) < at {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                let start = Instant::now();
                Exchange {
                    index: usize::MAX,
                    start,
                    response: http::one_shot(addr, "GET", "/metrics", "").ok(),
                }
            });
            let mut all = Vec::with_capacity(bodies.len());
            for handle in handles {
                all.extend(handle.join().expect("client thread panicked"));
            }
            (all, scrape)
        });
        for exchange in &exchanges {
            let status = exchange.response.as_ref().map(|r| r.status);
            if let Some(slot) = STATUS_NAMES.iter().position(|&(_, s)| Some(s) == status) {
                self.statuses[slot] += 1;
            }
        }
        (exchanges, scrape)
    }

    fn reference(&self) -> &Federation {
        self.reference
            .as_ref()
            .expect("the verify pass built the reference")
    }
}

/// Whether a reply carries what the reference computed, bit for bit.
fn matches(expected: &Expected, response: &http::Response) -> bool {
    match expected {
        Expected::Refused => response.status == 422,
        Expected::Answer {
            participants,
            samples_used,
            loss,
            sim_seconds,
        } => {
            if response.status != 200 {
                return false;
            }
            let Some(reply) = http::parse_query_reply(&response.body) else {
                return false;
            };
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            reply.participants.len() == participants.len()
                && reply
                    .participants
                    .iter()
                    .zip(participants)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                && reply.samples_used == *samples_used
                && bits(reply.loss) == bits(*loss)
                && reply.sim_seconds.to_bits() == sim_seconds.to_bits()
        }
    }
}

impl Workload for ServeClosed {
    const NAME: &'static str = "serve_closed";
    const P99_METRIC: &'static str = "serve.latency_p99_ms";

    fn setup(seed: u64) -> Self {
        let fed = facade::serve_federation(true);
        let queries = facade::hotspot_queries(&fed, POOL, 4, 0.05, (0.05, 0.30), seed);
        let bodies: Vec<String> = queries
            .iter()
            .enumerate()
            .map(|(id, q)| {
                let bounds: Vec<String> = facade::bounds(q).iter().map(|b| b.to_string()).collect();
                format!("{{\"id\": {id}, \"bounds\": [{}]}}", bounds.join(", "))
            })
            .collect();
        let server = facade::spawn_server(fed).expect("bind an ephemeral loopback port");
        let addr = server.addr().to_string();
        let n_clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let mut clients: Vec<Client> = (0..n_clients).map(|_| Client::new(&addr)).collect();
        for client in &mut clients {
            let health = client
                .request("GET", "/healthz", "")
                .expect("server answers /healthz");
            assert_eq!(health.status, 200, "/healthz: {}", health.body);
        }
        // Set-up ends with the first answer, as in the other workloads:
        // building this federation and spawning the server take under a
        // millisecond, which no two processes on one machine read alike.
        let first = clients[0]
            .request("POST", "/query", &bodies[0])
            .expect("server answers the first query");
        assert!(
            [200, 422].contains(&first.status),
            "first query: {} {}",
            first.status,
            first.body
        );
        Self {
            server: Some(server),
            addr,
            clients,
            n_clients,
            queries,
            bodies,
            expected: Vec::new(),
            reference: None,
            statuses: [0; 4],
            batch_sum: 0,
            batch_replies: 0,
            scrapes: Vec::new(),
        }
    }

    fn verify(&mut self) -> Verified {
        // The reference: the same federation, built again, asked in
        // process.
        let reference = facade::serve_federation(true);
        let mut digest = Digest::new();
        let (mut losses, mut sims) = (Vec::new(), Vec::new());
        self.expected = self
            .queries
            .iter()
            .map(|q| {
                let outcome = facade::run_query(&reference, q, SERVE_L);
                let Ok(answer) = facade::answer(&outcome) else {
                    digest.word(422);
                    return Expected::Refused;
                };
                let loss = outcome
                    .as_ref()
                    .ok()
                    .and_then(|o| facade::query_loss(&reference, q, o));
                digest.word(crate::digest::selection_digest(
                    answer.participants.iter(),
                    answer.standby.iter().copied(),
                ));
                digest.word(answer.samples_used);
                digest.word(loss.map_or(u64::MAX, f64::to_bits));
                losses.extend(loss);
                sims.push(answer.sim_seconds);
                Expected::Answer {
                    participants: answer
                        .participants
                        .iter()
                        .map(|p| (p.node, p.ranking))
                        .collect(),
                    samples_used: answer.samples_used,
                    loss,
                    sim_seconds: answer.sim_seconds,
                }
            })
            .collect();
        self.reference = Some(reference);

        let (exchanges, _) = self.exchange_pool(None);
        let mut failed = 0;
        for exchange in &exchanges {
            let ok = exchange
                .response
                .as_ref()
                .is_some_and(|r| matches(&self.expected[exchange.index], r));
            if !ok {
                failed += 1;
                let got = exchange
                    .response
                    .as_ref()
                    .map_or("i/o error".to_string(), |r| {
                        format!("{} {}", r.status, r.body.trim_end())
                    });
                eprintln!(
                    "serve_closed: query {} differs from the reference: {got}",
                    exchange.index
                );
            }
        }
        Verified {
            attempted: exchanges.len() as u64,
            failed,
            digest: digest.value(),
            answer_loss: Some(stats::mean(&losses)),
            sim_s_per_query: Some(stats::mean(&sims)),
        }
    }

    fn ops_per_pass(&self) -> usize {
        self.bodies.len()
    }

    fn pass(&mut self, rec: &mut Recorder, latencies_ms: &mut [f64]) -> u64 {
        let scrape_at = rec.enabled().then_some(self.bodies.len() / 2);
        let (exchanges, scrape) = self.exchange_pool(scrape_at);
        let mut failed = 0;
        for exchange in &exchanges {
            let Some(response) = &exchange.response else {
                failed += 1;
                latencies_ms[exchange.index] = exchange.start.elapsed().as_secs_f64() * 1e3;
                continue;
            };
            if response.status != self.expected[exchange.index].status() {
                failed += 1;
            }
            latencies_ms[exchange.index] =
                (response.last_byte - exchange.start).as_secs_f64() * 1e3;
            let op = exchange.index as u64;
            let parent = rec.record(
                "serve.request",
                exchange.start,
                response.last_byte,
                None,
                op,
            );
            rec.record("client.write", exchange.start, response.sent, parent, op);
            rec.record("serve.ttfb", response.sent, response.first_byte, parent, op);
            rec.record(
                "serve.body_gap",
                response.first_byte,
                response.last_byte,
                parent,
                op,
            );
            if rec.enabled() {
                if let Some(reply) = http::parse_query_reply(&response.body) {
                    self.batch_sum += reply.batch;
                    self.batch_replies += 1;
                }
            }
        }
        if let Some(Exchange {
            start,
            response: Some(response),
            ..
        }) = scrape
        {
            rec.record(
                "serve.metrics_scrape",
                start,
                response.last_byte,
                None,
                u64::MAX,
            );
            self.scrapes.push((
                (response.last_byte - start).as_secs_f64() * 1e6,
                response.body.len(),
            ));
        }
        failed
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, typical_ms: &[f64]) -> Vec<Metric> {
        // One client on a reused socket, then one connection per request.
        let mut solo = Client::new(&self.addr);
        solo.request("GET", "/healthz", "")
            .expect("solo client connects");
        for (i, body) in self.bodies.iter().enumerate().take(64) {
            let start = Instant::now();
            if let Ok(r) = solo.request("POST", "/query", body) {
                let parent = rec.record("serve.keepalive", start, r.last_byte, None, i as u64);
                rec.record(
                    "serve.keepalive_ttfb",
                    r.sent,
                    r.first_byte,
                    parent,
                    i as u64,
                );
                rec.record(
                    "serve.keepalive_body_gap",
                    r.first_byte,
                    r.last_byte,
                    parent,
                    i as u64,
                );
            }
        }
        drop(solo);
        for (i, body) in self.bodies.iter().enumerate().take(32) {
            let start = Instant::now();
            if let Ok(r) = http::one_shot(&self.addr, "POST", "/query", body) {
                rec.record("serve.oneshot", start, r.last_byte, None, i as u64);
            }
        }
        let reconnects: u64 = self.clients.iter().map(|c| c.reconnects).sum();
        let io_errors: u64 = self.clients.iter().map(|c| c.io_errors).sum();

        // The rest is in process; the server (and the telemetry switch it
        // holds on) is no longer needed.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop().expect("server drains and joins");
        }
        let reference = self.reference();
        for (i, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            let outcomes = facade::run_batch(reference, std::slice::from_ref(q), SERVE_L);
            let mid = Instant::now();
            rec.record("fedlearn.batch1", start, mid, None, i as u64);
            if let Some(Ok(outcome)) = outcomes.first() {
                let start = Instant::now();
                std::hint::black_box(facade::query_loss(reference, q, outcome));
                rec.record("fedlearn.query_loss", start, Instant::now(), None, i as u64);
            }
        }
        for (i, chunk) in self.queries.chunks_exact(8).enumerate() {
            let start = Instant::now();
            std::hint::black_box(facade::run_batch(reference, chunk, SERVE_L));
            rec.record("fedlearn.batch8", start, Instant::now(), None, i as u64);
        }
        let policy = facade::build_policy(reference, SERVE_L);
        for (i, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(facade::select(&policy, facade::network(reference), q));
            rec.record("selection.select", start, Instant::now(), None, i as u64);
        }

        // Telemetry on against off: whole in-process passes, alternating,
        // so drift hits both sides.
        let mut rates = [Vec::new(), Vec::new()];
        for _ in 0..5 {
            for (side, on) in [true, false].into_iter().enumerate() {
                let fed = facade::serve_federation(on);
                let start = Instant::now();
                for q in &self.queries {
                    std::hint::black_box(facade::run_batch(&fed, std::slice::from_ref(q), SERVE_L));
                }
                rates[side].push(self.queries.len() as f64 / start.elapsed().as_secs_f64());
            }
        }

        let p50 = |name: &str| p50_us(rec.spans(), name);
        let keepalive = p50("serve.keepalive");
        let batch1 = p50("fedlearn.batch1");
        let batch8 = p50("fedlearn.batch8") / 8.0;
        let loss = p50("fedlearn.query_loss");
        let op_us = stats::median(typical_ms) * 1e3;
        let engine_share = ((batch1 + loss) / op_us).min(1.0);
        let scrape_us: Vec<f64> = self.scrapes.iter().map(|s| s.0).collect();
        let scrape_bytes: Vec<f64> = self.scrapes.iter().map(|s| s.1 as f64).collect();
        let mut out = vec![
            Metric::new("serve.keepalive_rtt_us", keepalive, "us"),
            Metric::new("serve.oneshot_rtt_us", p50("serve.oneshot"), "us"),
            Metric::new("serve.ttfb_us", p50("serve.keepalive_ttfb"), "us"),
            Metric::new("serve.body_gap_us", p50("serve.keepalive_body_gap"), "us"),
            Metric::new("serve.overhead_us", keepalive - batch1, "us"),
            Metric::new(
                "serve.batch_mean",
                self.batch_sum as f64 / self.batch_replies.max(1) as f64,
                "count",
            ),
            Metric::new("serve.io_errors", io_errors as f64, "count"),
            Metric::new("serve.reconnects", reconnects as f64, "count"),
            Metric::new("serve.metrics_scrape_us", stats::median(&scrape_us), "us"),
            Metric::new("serve.metrics_bytes", stats::median(&scrape_bytes), "bytes"),
            Metric::new(
                "telemetry.overhead_share",
                1.0 - stats::median(&rates[0]) / stats::median(&rates[1]),
                "ratio",
            ),
            Metric::new("fedlearn.batch1_us", batch1, "us"),
            Metric::new("fedlearn.batch8_per_query_us", batch8, "us"),
            Metric::new("fedlearn.batch_speedup", batch1 / batch8, "ratio"),
            Metric::new("fedlearn.query_loss_us", loss, "us"),
            Metric::new("share.serve", 1.0 - engine_share, "ratio"),
            Metric::new("share.fedlearn", engine_share, "ratio"),
            Metric::new("share.selection", p50("selection.select") / op_us, "ratio"),
        ];
        for (slot, (name, _)) in STATUS_NAMES.iter().enumerate() {
            out.push(Metric::new(name, self.statuses[slot] as f64, "count"));
        }
        out
    }

    fn describe(&self) -> String {
        format!(
            "pool {} clients {} nodes 6",
            self.bodies.len(),
            self.n_clients
        )
    }

    fn teardown(mut self) {
        // Sockets first: a worker parked on an idle keep-alive read only
        // sees the shutdown when that read ends.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop().expect("server drains and joins");
        }
    }
}

//! Concurrent-scrape correctness: the observability endpoints must stay
//! consistent while a query stream is in flight, and serve the traced
//! query that follows it; and a second federation in the process leaves
//! a running server's telemetry alone.
//!
//! The assertions compare the served federation's own registry against
//! a ledger of what this test's clients did, so other federations may
//! run in the same process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bench::serve::{self, http};
use qens::prelude::*;
use qens::telemetry;

const CLIENTS: usize = 3;
const QUERIES_PER_CLIENT: usize = 8;

/// Every non-comment Prometheus line must parse as `name[{labels}]
/// value` with a finite value — a torn write would break this.
fn assert_prometheus_parses(body: &str) {
    assert!(body.contains("# HELP") && body.contains("# TYPE"));
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable sample line: {line:?}"));
        assert!(
            !name.is_empty() && name.starts_with("qens_"),
            "foreign sample name in {line:?}"
        );
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value in {line:?}"));
        assert!(value.is_finite(), "non-finite sample in {line:?}");
    }
}

#[test]
fn scrapes_stay_consistent_under_a_live_query_stream() {
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .telemetry(true)
        .fleet(true)
        .trace(Some(telemetry::trace::Clock::Wall))
        .selection_cache(true)
        .build();
    let handle = serve::spawn("127.0.0.1:0", fed).expect("spawn server");
    let addr = handle.addr().to_string();

    let streaming = Arc::new(AtomicBool::new(true));

    // The query stream: CLIENTS keep-alive connections, each posting a
    // mix of repeated and distinct rectangles (so queries run side by
    // side and the cache is live while the scrapers read).
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || -> usize {
            let mut ka = http::KeepAliveClient::connect(&addr).expect("client connect");
            let mut answered = 0;
            for i in 0..QUERIES_PER_CLIENT {
                let (lo, hi) = if i % 2 == 0 {
                    (0.0, 20.0)
                } else {
                    (5.0 * c as f64, 25.0 + 5.0 * c as f64)
                };
                let body = format!(
                    "{{\"id\": {}, \"bounds\": [{lo}, {hi}, 0, 45]}}",
                    c * QUERIES_PER_CLIENT + i
                );
                let (status, reply) = ka.request("POST", "/query", &body).expect("query");
                assert_eq!(status, 200, "query must succeed, got: {reply}");
                assert!(reply.contains("\"participants\":["), "reply: {reply}");
                answered += 1;
            }
            answered
        }));
    }

    // The scrapers: hammer /metrics, /slo, /profile, /cache, /nodes and
    // /events while the stream runs. Each scrape must be well-formed and
    // the headline counter must never decrease (no torn or interleaved
    // exports).
    let mut scrapers = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        let streaming = Arc::clone(&streaming);
        scrapers.push(std::thread::spawn(move || {
            let mut last_queries = 0u64;
            let mut scrapes = 0usize;
            while streaming.load(Ordering::SeqCst) || scrapes < 3 {
                let (status, body) = http::get(&addr, "/metrics").expect("/metrics");
                assert_eq!(status, 200);
                assert_prometheus_parses(&body);
                let queries_now = body
                    .lines()
                    .find(|l| l.starts_with("qens_serve_queries_total "))
                    .and_then(|l| l.rsplit_once(' '))
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(0);
                assert!(
                    queries_now >= last_queries,
                    "qens_serve_queries_total went backwards: {queries_now} < {last_queries}"
                );
                last_queries = queries_now;

                let (status, body) = http::get(&addr, "/slo").expect("/slo");
                assert_eq!(status, 200);
                assert!(
                    body.contains("\"objective_nanos\"") && body.contains("\"burn_rate_1x\""),
                    "torn /slo body: {body}"
                );

                let (status, _) = http::get(&addr, "/profile").expect("/profile");
                assert_eq!(status, 200);

                let (status, body) = http::get(&addr, "/cache").expect("/cache");
                assert_eq!(status, 200);
                assert!(body.contains("\"hit_rate\":"), "torn /cache body: {body}");

                let (status, body) = http::get(&addr, "/nodes").expect("/nodes");
                assert_eq!(status, 200);
                assert!(body.contains("\"skew\":{"), "torn /nodes body: {body}");

                let (status, body) = http::get(&addr, "/events?n=16").expect("/events");
                assert_eq!(status, 200);
                assert!(
                    body.lines().all(|l| l.starts_with('{')),
                    "torn /events body: {body}"
                );

                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            scrapes
        }));
    }

    let mut answered = 0usize;
    for c in clients {
        answered += c.join().expect("client thread");
    }
    streaming.store(false, Ordering::SeqCst);
    let mut scrapes = 0usize;
    for s in scrapers {
        scrapes += s.join().expect("scraper thread");
    }
    assert_eq!(answered, CLIENTS * QUERIES_PER_CLIENT);
    assert!(scrapes >= 6, "scrapers must actually have scraped");

    // The registry totals must match the ledger of what the clients did:
    // every answered query was counted exactly once.
    let snap = handle.state().fed.telemetry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(
        counter("qens_serve_queries_total"),
        answered as u64,
        "query counter must equal the client ledger"
    );
    assert!(
        counter("qens_serve_requests_total") >= (answered + scrapes * 3) as u64,
        "request counter must cover queries and scrapes"
    );
    // And the federation itself aggregated exactly the admitted queries
    // (one round each).
    let aggregations = snap.histogram("qens_fedlearn_aggregate_nanos");
    assert_eq!(aggregations.map_or(0, |h| h.count), answered as u64);

    // A query runs under a `query` root span, which the trace, profile
    // and flight-recorder endpoints then serve.
    let (status, reply) =
        http::post(&addr, "/query", "{\"id\": 99, \"bounds\": [0, 20, 0, 45]}").expect("query");
    assert_eq!(status, 200, "query must succeed, got: {reply}");
    let (status, body) = http::get(&addr, "/trace").expect("/trace");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"traceEvents\"") && body.contains("\"ph\":\"B\""),
        "/trace must be a non-empty Chrome trace: {body}"
    );
    let (status, body) = http::get(&addr, "/profile").expect("/profile");
    assert_eq!(status, 200);
    assert!(
        body.lines().any(|l| l.starts_with("query;fedlearn.round ")),
        "/profile must attribute time to the round: {body}"
    );
    let (status, body) = http::get(&addr, "/profile.svg").expect("/profile.svg");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("<svg ") && body.trim_end().ends_with("</svg>"),
        "/profile.svg must be a complete SVG document"
    );
    let (status, body) = http::get(&addr, "/slowest").expect("/slowest");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("{\"slowest\":[") && body.contains("\"query_id\":"),
        "/slowest must list the retained queries: {body}"
    );
    let (status, body) = http::get(&addr, "/metrics").expect("/metrics");
    assert_eq!(status, 200);
    for series in [
        "qens_build_info{",
        "qens_uptime_seconds ",
        "qens_trace_spans_total ",
    ] {
        assert!(body.contains(series), "/metrics lacks {series}");
    }

    handle.request_shutdown();
    handle.wait().expect("graceful shutdown");
}

/// The `qens_serve_queries_total` sample of a `/metrics` body.
fn served_queries(addr: &str) -> u64 {
    let (status, body) = http::get(addr, "/metrics").expect("/metrics");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| l.strip_prefix("qens_serve_queries_total "))
        .map_or(0, |v| v.parse().expect("a count"))
}

/// Regression: building a federation used to set the process-wide
/// switches, so a telemetry-off federation built while a server ran
/// silenced the server's metrics, scorecards and journal.
#[test]
fn a_federation_built_beside_a_server_leaves_its_telemetry_on() {
    let handle = serve::spawn("127.0.0.1:0", serve::demo_federation(None)).expect("spawn");
    let addr = handle.addr().to_string();
    let before = served_queries(&addr);
    let quiet = FederationBuilder::new()
        .heterogeneous_nodes(2, 20)
        .clusters_per_node(2)
        .epochs(1)
        .telemetry(false)
        .fleet(false)
        .trace(None)
        .build();
    let (status, reply) = http::post(
        &addr,
        "/query",
        "{\"id\": 4242, \"bounds\": [0, 20, 0, 45]}",
    )
    .expect("query");
    assert_eq!(status, 200, "query must succeed, got: {reply}");
    assert_eq!(served_queries(&addr), before + 1);
    let (status, nodes) = http::get(&addr, "/nodes").expect("/nodes");
    assert_eq!(status, 200);
    assert!(
        nodes.contains("\"last_selected_query\":4242"),
        "/nodes must show the served query: {nodes}"
    );
    assert!(quiet.telemetry().snapshot().counters.is_empty());
    handle.request_shutdown();
    handle.wait().expect("graceful shutdown");
}

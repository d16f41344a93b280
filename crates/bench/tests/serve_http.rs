//! HTTP/1.1 surface of the query-serving subsystem, end to end over the
//! public `bench::serve` API: keep-alive pipelining, admission-control
//! status codes, body caps, the cache endpoint, and graceful shutdown
//! (both `POST /shutdown` and `--duration`).

use std::io::{Read, Write};
use std::net::TcpStream;

use bench::serve::{self, http, ServeOptions};
use qens::prelude::*;
use qens::telemetry;

fn server_with(admission: AdmissionConfig) -> serve::ServerHandle {
    telemetry::set_enabled(true);
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(4, 60)
        .clusters_per_node(3)
        .seed(7)
        .epochs(2)
        .telemetry(true)
        .selection_cache(true)
        .selection_cache_bucket(30.0)
        .admission(admission)
        .build();
    serve::spawn("127.0.0.1:0", fed).expect("spawn server")
}

/// One raw request with explicit headers; returns the whole response.
fn raw_round_trip(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response
}

#[test]
fn keep_alive_pipelines_a_query_stream_over_one_socket() {
    let server = server_with(AdmissionConfig::default());
    let mut ka = http::KeepAliveClient::connect(server.addr()).expect("connect");
    for i in 0..10u64 {
        // Alternate buckets so batching structure varies.
        let bounds = if i % 2 == 0 {
            "[0, 20, 0, 45]"
        } else {
            "[0, 10, 0, 25]"
        };
        let (status, body) = ka
            .request(
                "POST",
                "/query",
                &format!("{{\"id\": {i}, \"bounds\": {bounds}}}"),
            )
            .expect("pipelined query");
        assert_eq!(status, 200, "query {i} must succeed: {body}");
        assert!(body.contains(&format!("\"query_id\":{i}")));
        assert!(body.contains("\"sim_seconds\":"));
    }
    // 3-d bounds against the 2-d joint space: a 400 naming the count.
    let (status, body) = ka
        .request("POST", "/query", "{\"bounds\": [0, 20, 0, 45, 0, 1]}")
        .expect("mis-dimensioned query");
    assert_eq!(status, 400, "got: {body}");
    assert!(body.contains("expected 4 bounds"), "got: {body}");
    // The same socket still serves scrapes.
    let (status, body) = ka.request("GET", "/metrics", "").expect("scrape");
    assert_eq!(status, 200);
    assert!(body.contains("qens_serve_queries_total"));
    drop(ka);
    server.request_shutdown();
    server.wait().expect("shutdown");
}

#[test]
fn admission_rejects_and_sheds_with_the_documented_status_codes() {
    // queue_depth 0: every query bounces with 429 + Retry-After.
    let server = server_with(AdmissionConfig {
        queue_depth: 0,
        ..AdmissionConfig::default()
    });
    let response = raw_round_trip(
        server.addr(),
        &format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            "{\"bounds\": [0, 20, 0, 45]}".len(),
            "{\"bounds\": [0, 20, 0, 45]}"
        ),
    );
    assert!(response.starts_with("HTTP/1.1 429"), "got: {response}");
    assert!(response.contains("Retry-After:"), "got: {response}");
    server.request_shutdown();
    server.wait().expect("shutdown");

    // deadline 0: everything admitted is immediately stale — 503.
    let server = server_with(AdmissionConfig {
        deadline_ms: Some(0),
        ..AdmissionConfig::default()
    });
    let (status, body) =
        http::post(server.addr(), "/query", "{\"bounds\": [0, 20, 0, 45]}").expect("shed query");
    assert_eq!(status, 503, "zero deadline must shed: {body}");
    assert!(body.contains("shed"), "got: {body}");
    server.request_shutdown();
    server.wait().expect("shutdown");
}

#[test]
fn bodies_over_the_cap_get_413_and_within_cap_bodies_pass() {
    let server = server_with(AdmissionConfig {
        body_cap_bytes: 512,
        ..AdmissionConfig::default()
    });
    let (status, body) =
        http::post(server.addr(), "/query", "{\"bounds\": [0, 20, 0, 45]}").expect("small body");
    assert_eq!(status, 200, "small body must pass: {body}");
    let huge = format!(
        "{{\"bounds\": [0, 20, 0, 45], \"pad\": \"{}\"}}",
        "x".repeat(600)
    );
    let (status, body) = http::post(server.addr(), "/query", &huge).expect("big body");
    assert_eq!(status, 413, "oversized body must be refused: {body}");
    assert!(body.contains("exceeds"), "got: {body}");
    server.request_shutdown();
    server.wait().expect("shutdown");
}

#[test]
fn cache_endpoint_reflects_the_batcher_cache() {
    let server = server_with(AdmissionConfig::default());
    // Two same-bucket queries: the second lookup can be served from the
    // batcher's warm selection cache.
    for i in 0..2 {
        let (status, _) = http::post(
            server.addr(),
            "/query",
            &format!("{{\"id\": {i}, \"bounds\": [0, 20, 0, 45]}}"),
        )
        .expect("warm query");
        assert_eq!(status, 200);
    }
    let (status, body) = http::get(server.addr(), "/cache").expect("/cache");
    assert_eq!(status, 200);
    for key in [
        "\"hits\":",
        "\"misses\":",
        "\"invalidations\":",
        "\"entries\":",
        "\"hit_rate\":",
    ] {
        assert!(body.contains(key), "/cache missing {key}: {body}");
    }
    let hit_rate: f64 = body
        .split("\"hit_rate\":")
        .nth(1)
        .and_then(|r| r.trim_end_matches(['}', '\n']).parse().ok())
        .expect("hit_rate parses as a number");
    assert!((0.0..=1.0).contains(&hit_rate), "hit_rate {hit_rate}");
    server.request_shutdown();
    server.wait().expect("shutdown");
}

#[test]
fn graceful_drain_answers_in_flight_queries() {
    let server = server_with(AdmissionConfig::default());
    let addr = server.addr().to_string();
    let in_flight = std::thread::spawn(move || {
        http::post(&addr, "/query", "{\"id\": 77, \"bounds\": [0, 20, 0, 45]}")
            .expect("in-flight query")
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (status, body) = http::post(server.addr(), "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200, "loopback shutdown: {body}");
    assert!(body.contains("draining"), "got: {body}");
    let (status, body) = in_flight.join().expect("in-flight thread");
    assert_eq!(
        status, 200,
        "a query admitted before shutdown must drain to its answer: {body}"
    );
    assert!(body.contains("\"query_id\":77"));
    server.wait().expect("drained shutdown");
}

#[test]
fn duration_brings_serve_home() {
    // The blocking entry point itself: --duration must return after
    // draining, without any /shutdown call.
    let started = std::time::Instant::now();
    serve::serve(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        duration: Some(0.2),
        ..ServeOptions::default()
    })
    .expect("serve with duration");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= std::time::Duration::from_millis(200),
        "must serve for the requested duration, returned after {elapsed:?}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "must not hang after the duration elapses"
    );
}

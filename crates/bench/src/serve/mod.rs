//! The query-serving subsystem: live observability plus a concurrent
//! `POST /query` front end over the federation engine.
//!
//! Hand-rolled HTTP/1.1 over [`std::net::TcpListener`] (the workspace
//! builds with the crates-io registry unreachable — no hyper/axum), with
//! keep-alive, `Content-Length` bodies and hard caps everywhere:
//!
//! | path                | body                                                 |
//! |---------------------|------------------------------------------------------|
//! | `/healthz`          | `ok` (text/plain)                                    |
//! | `/metrics`          | Prometheus text exposition of the metric registry    |
//! | `/trace`            | Chrome trace-event JSON of the trace store           |
//! | `/profile`          | Folded-stack profile of the trace store (text)       |
//! | `/profile.svg`      | The same profile as an SVG flamegraph                |
//! | `/slowest`          | Flight-recorder top-K slowest queries (JSON)         |
//! | `/slo`              | SLO objective, good/bad totals and burn rates (JSON) |
//! | `/cache`            | Selection-cache hit/miss statistics (JSON)           |
//! | `/nodes`            | Fleet scorecards + selection-skew analytics (JSON)   |
//! | `/nodes/<id>`       | One node's scorecard (`/nodes/3` or `/nodes/n3`)     |
//! | `/events?n=`        | Tail of the structured event journal (JSON lines)    |
//! | `POST /query`       | Run a federation round for a JSON query rectangle    |
//! | `POST /shutdown`    | Graceful drain + exit (loopback peers only)          |
//!
//! `POST /query` takes `{"id": 7, "bounds": [x_min, x_max, ..., y_min,
//! y_max]}` (`id` optional; any other or repeated key is a `400`) and
//! returns the selection plus the federated answer (`422` if the round
//! fails). The connection thread runs the round itself, through the one
//! policy the server holds (see [`ingest`]), so the four workers bound
//! how many queries run at once. Bodies over the admission cap get `413`
//! unread; a query that arrives while the server drains gets `503`.
//!
//! Malformed requests never kill the process: empty, truncated,
//! oversized and non-UTF-8 heads all get a `400` with a body, wrong
//! methods get `405` with an `Allow` header, unknown paths a `404`
//! listing every endpoint. A connection may block its worker for five
//! seconds in one read or one write, then it is closed; I/O failures
//! are counted in `qens_serve_io_errors_total`.
//!
//! Every endpoint reads the served federation's own telemetry handle,
//! and every connection thread records into it, so a second federation
//! in the process never shows up here. `repro serve` binds and serves
//! until `--duration` elapses or a loopback client posts `/shutdown` —
//! both answer in-flight queries before exit. The endpoints are checked over real sockets by this
//! module's tests, `tests/serve_http.rs` and `tests/serve_concurrent.rs`.

pub mod http;
pub mod ingest;

use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use qens::geom::Query;
use qens::prelude::*;
use qens::selection::SelectionPolicy;
use qens::telemetry;

use http::{read_request, write_response, ReadOutcome, Request};

/// Top-ℓ of the serving policy.
pub const SERVE_SELECT_L: usize = 3;

/// Accept loops, each serving one connection at a time and answering its
/// queries itself.
const N_WORKERS: usize = 4;

/// Requests served per keep-alive connection before the server closes
/// it (bounds how long one client can pin a worker).
const KEEP_ALIVE_MAX_REQUESTS: usize = 128;

/// How long a connection may block a worker in one read or one write.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

const ENDPOINT_LIST: &str = "/healthz, /metrics, /trace, /profile, /profile.svg, /slowest, /slo, \
                             /cache, /nodes, /nodes/<id>, /events?n=, POST /query, POST /shutdown";

/// What `serve` should bind and how long it should live.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `host:port` to bind; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Exit (gracefully, answering in-flight queries) after this long;
    /// `None` serves until `POST /shutdown` or Ctrl-C.
    pub duration: Option<Duration>,
    /// Trace clock for the live server (`repro serve --trace`); `None`
    /// serves untraced.
    pub trace: Option<telemetry::trace::Clock>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9464".to_string(),
            duration: None,
            trace: None,
        }
    }
}

/// Everything the worker threads share.
pub struct ServerState {
    pub fed: Federation,
    pub admission: AdmissionConfig,
    /// The one query-driven policy every `POST /query` runs through,
    /// built once so its selection memo sees every query.
    policy: Box<dyn SelectionPolicy>,
    /// Set on shutdown request: new queries get `503 draining`; queries
    /// already running are answered.
    draining: AtomicBool,
    /// Set after `draining`, once the drain should also stop the accept
    /// loops.
    stopping: AtomicBool,
    /// Wakes [`ServerHandle::wait`] when a shutdown is requested.
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Ids for queries posted without one (offset so they never collide
    /// with small client-chosen ids).
    next_id: AtomicU64,
}

impl ServerState {
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins a graceful shutdown: refuse new queries, wake the waiter.
    pub fn request_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut flag = self.shutdown.lock().expect("shutdown flag poisoned");
        *flag = true;
        self.shutdown_cv.notify_all();
    }
}

/// The federation a standalone `repro serve` answers queries against: a
/// mid-size heterogeneous network with the selection memo on, so a
/// repeated rectangle gets its stored selection back, traced on `trace`.
pub fn demo_federation(trace: Option<telemetry::trace::Clock>) -> Federation {
    FederationBuilder::new()
        .heterogeneous_nodes(6, 120)
        .clusters_per_node(4)
        .seed(13)
        .epochs(2)
        .telemetry(true)
        .fleet(true)
        .trace(trace)
        .selection_cache(true)
        .build()
}

/// A running server: bound listener and worker threads.
pub struct ServerHandle {
    addr: String,
    state: Arc<ServerState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound `host:port` (resolves port 0 to the real port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests a graceful shutdown (same path as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Blocks until a shutdown is requested, then drains: the accept
    /// loops stop, and every worker is joined once it has answered the
    /// query it is running and closed its connection.
    pub fn wait(mut self) -> std::io::Result<()> {
        {
            let mut flag = self.state.shutdown.lock().expect("shutdown flag poisoned");
            while !*flag {
                flag = self
                    .state
                    .shutdown_cv
                    .wait(flag)
                    .expect("shutdown flag poisoned");
            }
        }
        self.state.stopping.store(true, Ordering::SeqCst);
        // Unblock every worker's accept() with one throwaway connection
        // each; workers check `stopping` right after accepting.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(&self.addr);
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        Ok(())
    }
}

/// Binds `addr` and spawns the accept workers, turning on metric
/// recording in `fed`'s telemetry handle. Non-blocking; drive the result
/// with [`ServerHandle::wait`].
pub fn spawn(addr: &str, fed: Federation) -> std::io::Result<ServerHandle> {
    fed.telemetry().set_enabled(true);
    let admission = fed.admission();
    let policy = fed.build_policy(&PolicyKind::query_driven(SERVE_SELECT_L));
    let listener = Arc::new(TcpListener::bind(addr)?);
    let local = listener.local_addr()?.to_string();
    let state = Arc::new(ServerState {
        fed,
        admission,
        policy,
        draining: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
        shutdown: Mutex::new(false),
        shutdown_cv: Condvar::new(),
        next_id: AtomicU64::new(1 << 32),
    });
    let mut workers = Vec::with_capacity(N_WORKERS);
    for i in 0..N_WORKERS {
        let listener = Arc::clone(&listener);
        let state = Arc::clone(&state);
        workers.push(
            std::thread::Builder::new()
                .name(format!("qens-serve-worker-{i}"))
                .spawn(move || {
                    state.fed.telemetry().enter(|| loop {
                        if state.stopping.load(Ordering::SeqCst) {
                            break;
                        }
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if state.stopping.load(Ordering::SeqCst) {
                                    break;
                                }
                                // A peer that reset, or stopped reading
                                // until the write timed out: the socket is
                                // closed by the drop, the worker moves on.
                                if handle_connection(stream, &state).is_err() {
                                    telemetry::counter!("qens_serve_io_errors_total").incr();
                                }
                            }
                            Err(e) => eprintln!("accept error: {e}"),
                        }
                    })
                })?,
        );
    }
    Ok(ServerHandle {
        addr: local,
        state,
        workers,
    })
}

/// Socket options of an accepted connection.
fn configure(stream: &TcpStream) -> std::io::Result<()> {
    // Neither an idle peer nor one that stops reading a large body may
    // pin a worker.
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // A reply is one write (see `write_response`); it leaves at once
    // instead of waiting for the peer's ACK of the previous reply.
    stream.set_nodelay(true)
}

/// Serves one connection: a keep-alive loop of parse → route → respond.
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) -> std::io::Result<()> {
    let mut stream = stream;
    configure(&stream)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut served = 0usize;
    loop {
        let first = served == 0;
        let outcome = read_request(&mut reader, state.admission.body_cap_bytes, first)?;
        let request = match outcome {
            ReadOutcome::Closed => return Ok(()),
            ReadOutcome::Bad { reason } => {
                // Drain what the peer already sent (bounded, under the
                // read timeout) before responding: closing a socket with
                // unread bytes pending RSTs the connection, and the 400
                // would never reach the client.
                let _ = std::io::copy(
                    &mut Read::by_ref(&mut reader).take(1 << 20),
                    &mut std::io::sink(),
                );
                return write_response(
                    &mut stream,
                    "400 Bad Request",
                    "text/plain; charset=utf-8",
                    "",
                    &format!("bad request: {reason}\n"),
                    false,
                );
            }
            ReadOutcome::TooLarge { declared } => {
                telemetry::counter!("qens_serve_body_rejected_total").incr();
                // Drain what we can of the refused body (bounded, under
                // the read timeout) so a client mid-send sees our 413
                // instead of a connection reset; then close — the
                // connection cannot be reused without the full body.
                let _ = std::io::copy(
                    &mut Read::by_ref(&mut reader).take((declared as u64).min(1 << 20)),
                    &mut std::io::sink(),
                );
                return write_response(
                    &mut stream,
                    "413 Content Too Large",
                    "text/plain; charset=utf-8",
                    "",
                    &format!(
                        "declared body of {declared} bytes exceeds the {} byte cap\n",
                        state.admission.body_cap_bytes
                    ),
                    false,
                );
            }
            ReadOutcome::Request(r) => r,
        };
        telemetry::counter!("qens_serve_requests_total").incr();
        served += 1;
        let keep_alive = request.keep_alive
            && served < KEEP_ALIVE_MAX_REQUESTS
            && !state.stopping.load(Ordering::SeqCst);
        let close_after = respond(&mut stream, request, state, keep_alive)?;
        if close_after || !keep_alive {
            return Ok(());
        }
    }
}

/// Routes one request and writes its response. Returns `true` when the
/// connection must close regardless of keep-alive (shutdown).
fn respond(
    stream: &mut TcpStream,
    request: Request,
    state: &Arc<ServerState>,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let method = request.method.as_str();
    let path = request.path.split('?').next().unwrap_or("");
    let tele = state.fed.telemetry();
    match (method, path) {
        ("POST", "/query") => {
            serve_query(stream, &request.body, state, keep_alive)?;
            Ok(false)
        }
        ("POST", "/shutdown") => {
            let loopback = stream
                .peer_addr()
                .map(|a| a.ip().is_loopback())
                .unwrap_or(false);
            if !loopback {
                write_response(
                    stream,
                    "403 Forbidden",
                    "text/plain; charset=utf-8",
                    "",
                    "shutdown is only accepted from loopback peers\n",
                    keep_alive,
                )?;
                return Ok(false);
            }
            // Respond first, then trip the shutdown: the client must see
            // the acknowledgement before the accept loops die.
            write_response(
                stream,
                "200 OK",
                "text/plain; charset=utf-8",
                "",
                "draining in-flight queries, then exiting\n",
                false,
            )?;
            state.request_shutdown();
            Ok(true)
        }
        (_, "/query" | "/shutdown") => {
            write_response(
                stream,
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "Allow: POST\r\n",
                &format!("{path} only accepts POST\n"),
                keep_alive,
            )?;
            Ok(false)
        }
        (m, _) if m != "GET" => {
            write_response(
                stream,
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "Allow: GET\r\n",
                &format!("method {m} not allowed; only GET is supported\n"),
                keep_alive,
            )?;
            Ok(false)
        }
        ("GET", "/healthz") => {
            write_response(
                stream,
                "200 OK",
                "text/plain; charset=utf-8",
                "",
                "ok\n",
                keep_alive,
            )?;
            Ok(false)
        }
        ("GET", "/metrics") => {
            let mut body = telemetry::export::to_prometheus(&crate::metrics_snapshot(&state.fed));
            // The fleet's labeled per-node series (top-K + "other") and
            // skew gauges ride along; silent while the fleet layer is off.
            tele.fleet()
                .to_prometheus(&mut body, telemetry::fleet::PROM_TOP_K);
            write_response(
                stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                "",
                &body,
                keep_alive,
            )?;
            Ok(false)
        }
        ("GET", "/trace") => {
            let body = tele.trace().export_chrome(None);
            write_response(stream, "200 OK", "application/json", "", &body, keep_alive)?;
            Ok(false)
        }
        ("GET", "/profile") => {
            let profile = telemetry::profile::aggregate(&tele.trace().snapshot_events());
            write_response(
                stream,
                "200 OK",
                "text/plain; charset=utf-8",
                "",
                &telemetry::profile::to_folded(&profile),
                keep_alive,
            )?;
            Ok(false)
        }
        ("GET", "/profile.svg") => {
            let profile = telemetry::profile::aggregate(&tele.trace().snapshot_events());
            let unit = match tele.trace().mode() {
                Some(telemetry::trace::Clock::Logical) => "ticks",
                _ => "ns",
            };
            let body = telemetry::profile::to_svg(&profile, "qens live profile", unit);
            write_response(stream, "200 OK", "image/svg+xml", "", &body, keep_alive)?;
            Ok(false)
        }
        ("GET", "/slowest") => {
            let body = tele.profile().slowest_to_json();
            write_response(stream, "200 OK", "application/json", "", &body, keep_alive)?;
            Ok(false)
        }
        ("GET", "/slo") => {
            let body = tele.profile().slo_to_json();
            write_response(stream, "200 OK", "application/json", "", &body, keep_alive)?;
            Ok(false)
        }
        ("GET", "/cache") => {
            write_response(
                stream,
                "200 OK",
                "application/json",
                "",
                &cache_stats_json(tele),
                keep_alive,
            )?;
            Ok(false)
        }
        ("GET", "/nodes") => {
            let mut body = tele.fleet().to_json();
            body.push('\n');
            write_response(stream, "200 OK", "application/json", "", &body, keep_alive)?;
            Ok(false)
        }
        ("GET", p) if p.starts_with("/nodes/") => {
            match node_scorecard_json(tele, &p["/nodes/".len()..]) {
                Some(body) => {
                    write_response(stream, "200 OK", "application/json", "", &body, keep_alive)?
                }
                None => write_response(
                    stream,
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "",
                    &format!(
                        "no scorecard for {p}; ids are node indices (/nodes/3 or /nodes/n3) \
                         below the observed fleet size\n"
                    ),
                    keep_alive,
                )?,
            }
            Ok(false)
        }
        ("GET", "/events") => {
            let tail = request
                .path
                .split_once('?')
                .map(|(_, q)| q)
                .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("n=")))
                .and_then(http::parse_unsigned::<usize>);
            let body = tele.journal().to_jsonl(telemetry::trace::Clock::Wall, tail);
            write_response(
                stream,
                "200 OK",
                "application/x-ndjson",
                "",
                &body,
                keep_alive,
            )?;
            Ok(false)
        }
        ("GET", other) => {
            write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "",
                &format!("no endpoint {other}; try one of: {ENDPOINT_LIST}\n"),
                keep_alive,
            )?;
            Ok(false)
        }
        _ => unreachable!("non-GET methods are rejected above"),
    }
}

/// Renders the selection memo's registry mirror as JSON (the memo
/// itself lives inside the server's policy; its counters are published
/// to the served federation's registry on every lookup).
pub fn cache_stats_json(tele: &telemetry::Telemetry) -> String {
    let snap = tele.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let hits = counter("qens_cache_hits_total");
    let misses = counter("qens_cache_misses_total");
    let lookups = hits + misses;
    let hit_rate = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    format!(
        "{{\"hits\":{hits},\"misses\":{misses},\"invalidations\":{},\"entries\":{},\"hit_rate\":{hit_rate:.6}}}\n",
        counter("qens_cache_invalidations_total"),
        snap.gauge("qens_cache_entries").unwrap_or(0.0) as u64,
    )
}

/// Renders one node's scorecard for `/nodes/<id>`. Accepts a bare index
/// (`3`) or the node display form (`n3`); `None` for an id that is
/// anything but digits after the optional `n` (`+3` and `n+3` too) and
/// for indices outside the observed fleet. The deterministic scorecard JSON
/// gets the live-only wall-time field appended — this endpoint reports
/// what the process measured, not the reproducible export.
fn node_scorecard_json(tele: &telemetry::Telemetry, id: &str) -> Option<String> {
    let idx: u64 = http::parse_unsigned(id.strip_prefix('n').unwrap_or(id))?;
    let card = tele.fleet().scorecard(idx)?;
    let mut body = String::with_capacity(256);
    card.write_json(&mut body);
    body.pop();
    body.push_str(&format!(
        ",\"train_wall_nanos\":{}}}\n",
        card.train_wall_nanos
    ));
    Some(body)
}

/// A cursor over a `POST /query` body for [`parse_query_body`].
struct Scanner<'a> {
    rest: &'a str,
}

impl<'a> Scanner<'a> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
    }

    /// Consumes `c` if it is the next thing after white space.
    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    /// A string's text as written (escapes are not decoded: the two keys
    /// this server knows contain none).
    fn string(&mut self) -> Result<&'a str, &'static str> {
        if !self.eat('"') {
            return Err("expected a quoted key");
        }
        let mut escaped = false;
        for (i, c) in self.rest.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => {
                    let text = &self.rest[..i];
                    self.rest = &self.rest[i + 1..];
                    return Ok(text);
                }
                _ => {}
            }
        }
        Err("unterminated string")
    }

    /// The bare token (a number, if the body is well formed) up to the
    /// next delimiter.
    fn token(&mut self) -> &'a str {
        self.skip_ws();
        let end = self
            .rest
            .find([',', ']', '}', '[', '{', '"', ':', ' ', '\t', '\n', '\r'])
            .unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        token
    }
}

/// Parses and checks a `POST /query` body against the `dim`-dimensional
/// joint space: `{"id": 7, "bounds": [lo, hi, ...]}`, `id` optional. The
/// error is the text of the `400`.
///
/// The body is one flat JSON object read key by key, so text inside a
/// string is never mistaken for a key. Only `"id"` (an unsigned integer)
/// and `"bounds"` (`2·dim` finite numbers, `lo <= hi` per dimension) are
/// known; an unknown or repeated key is refused rather than guessed at.
/// Numbers are read by `str::parse::<f64>`, which is more lenient than
/// JSON (`1.`, `+1`, `inf`, `NaN`); what it yields must still be finite.
/// A hand-rolled scanner — the subset is small enough that a JSON
/// dependency would be overkill (and the workspace builds offline).
fn parse_query_body(body: &[u8], dim: usize) -> Result<(Option<u64>, Vec<f64>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8")?;
    let mut s = Scanner { rest: text };
    if !s.eat('{') {
        return Err("body must be a JSON object like {\"bounds\": [0, 20, 0, 45]}".into());
    }
    let (mut id, mut bounds) = (None, None);
    let mut first = true;
    while !s.eat('}') {
        if !first && !s.eat(',') {
            return Err("expected , or } after a value".into());
        }
        first = false;
        let key = s.string()?;
        if !s.eat(':') {
            return Err("expected : after a key".into());
        }
        match key {
            "id" if id.is_none() => {
                let value = http::parse_unsigned::<u64>(s.token());
                id = Some(value.ok_or("\"id\" must be an unsigned 64-bit integer")?);
            }
            "bounds" if bounds.is_none() => {
                if !s.eat('[') {
                    return Err("missing [ after \"bounds\"".into());
                }
                let mut values = Vec::with_capacity(2 * dim);
                while !s.eat(']') {
                    if !values.is_empty() && !s.eat(',') {
                        return Err("expected , or ] after a bound".into());
                    }
                    values.push(s.token().parse::<f64>().map_err(|_| "non-numeric bound")?);
                }
                bounds = Some(values);
            }
            "id" | "bounds" => return Err(format!("\"{key}\" appears twice")),
            _ => return Err("unknown key: a query has only \"id\" and \"bounds\"".into()),
        }
    }
    s.skip_ws();
    if !s.rest.is_empty() {
        return Err("unexpected text after the closing }".into());
    }
    let bounds = bounds.ok_or("missing \"bounds\" array")?;
    if bounds.len() != 2 * dim {
        return Err(format!(
            "expected {} bounds (lo/hi per dimension of the {dim}-d joint space), got {}",
            2 * dim,
            bounds.len()
        ));
    }
    for pair in bounds.chunks(2) {
        if !pair[0].is_finite() || !pair[1].is_finite() || pair[0] > pair[1] {
            return Err(format!(
                "invalid interval [{}, {}]: bounds must be finite with lo <= hi",
                pair[0], pair[1]
            ));
        }
    }
    Ok((id, bounds))
}

/// The `POST /query` flow: refuse while draining → validate → answer on
/// this thread.
fn serve_query(
    stream: &mut TcpStream,
    body: &[u8],
    state: &ServerState,
    keep_alive: bool,
) -> std::io::Result<()> {
    if state.is_draining() {
        return write_response(
            stream,
            "503 Service Unavailable",
            "application/json",
            "",
            "{\"error\":\"server is draining\"}\n",
            false,
        );
    }
    // The joint dimension, as `SelectionContext::new` checks it: the
    // global space would walk every row of every node per request.
    let dim = state.fed.network().nodes()[0].joint_dim();
    let (id, bounds) = match parse_query_body(body, dim) {
        Ok(parsed) => parsed,
        Err(reason) => {
            return write_response(
                stream,
                "400 Bad Request",
                "application/json",
                "",
                &ingest::error_body(&reason),
                keep_alive,
            )
        }
    };
    let id = id.unwrap_or_else(|| state.next_id.fetch_add(1, Ordering::Relaxed));
    telemetry::counter!("qens_serve_queries_total").incr();
    let (status, reply) = ingest::answer(state, &Query::from_boundary_vec(id, &bounds));
    write_response(stream, status, "application/json", "", &reply, keep_alive)
}

/// Runs the endpoint. Blocking; returns when `--duration` elapses or
/// after a loopback `POST /shutdown`.
pub fn serve(opts: &ServeOptions) -> std::io::Result<()> {
    let handle = spawn(&opts.addr, demo_federation(opts.trace))?;
    println!(
        "serving http://{} ({ENDPOINT_LIST}); POST /shutdown or Ctrl-C to stop",
        handle.addr()
    );
    if let Some(duration) = opts.duration {
        // Sleep on the shutdown flag itself: an earlier `/shutdown` ends
        // the wait, and no timer thread is needed.
        let state = handle.state();
        let flag = state.shutdown.lock().expect("shutdown flag poisoned");
        drop(
            state
                .shutdown_cv
                .wait_timeout_while(flag, duration, |stop| !*stop)
                .expect("shutdown flag poisoned"),
        );
        state.request_shutdown();
    }
    handle.wait()
}

#[cfg(test)]
mod tests {
    use super::http::{get, post, probe_raw, KeepAliveClient, MAX_REQUEST_BYTES};
    use super::*;

    /// A small server for protocol-level tests (tiny federation, fast
    /// build; admission overridable per test).
    fn test_server(admission: Option<AdmissionConfig>) -> ServerHandle {
        let mut builder = FederationBuilder::new()
            .heterogeneous_nodes(4, 60)
            .clusters_per_node(3)
            .seed(7)
            .epochs(2)
            .telemetry(true)
            .selection_cache(true);
        if let Some(a) = admission {
            builder = builder.admission(a);
        } else {
            builder = builder.admission(AdmissionConfig::default());
        }
        spawn("127.0.0.1:0", builder.build()).expect("spawn test server")
    }

    #[test]
    fn http_round_trip_over_a_local_socket() {
        let server = test_server(None);
        let (status, body) = get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn unknown_path_is_404_and_wrong_methods_are_405() {
        let server = test_server(None);
        let (status, body) = get(server.addr(), "/definitely-not-here").unwrap();
        assert_eq!(status, 404);
        assert!(
            body.contains("/slowest") && body.contains("/slo"),
            "404 body must list the endpoints"
        );
        // POST to a GET endpoint.
        let (status, body) = post(server.addr(), "/metrics", "").unwrap();
        assert_eq!(status, 405);
        assert!(body.contains("only GET"), "405 must explain the method");
        // GET to a POST endpoint.
        let (status, body) = get(server.addr(), "/query").unwrap();
        assert_eq!(status, 405);
        assert!(body.contains("POST"), "405 must point at POST");
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn malformed_requests_get_a_400_not_a_dead_socket() {
        let server = test_server(None);
        let addr = server.addr().to_string();
        // Truncated request line (no newline, half-closed).
        let (status, body) = probe_raw(&addr, b"GET /metrics").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("truncated"));
        // Oversized request line.
        let mut oversized = Vec::from(&b"GET /"[..]);
        oversized.resize(MAX_REQUEST_BYTES + 64, b'x');
        oversized.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let (status, _) = probe_raw(&addr, &oversized).unwrap();
        assert_eq!(status, 400);
        // Empty request.
        let (status, body) = probe_raw(&addr, b"").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("empty"));
        // Non-UTF-8 request line.
        let (status, body) = probe_raw(&addr, b"\xff\xfe\xfd barbarism\r\n\r\n").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("UTF-8"));
        // Chunked transfer encoding is rejected, not mis-parsed.
        let (status, body) = probe_raw(
            &addr,
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("chunked"));
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn profile_endpoints_serve_current_buffers() {
        let server = test_server(None);
        // Profile of an empty (or foreign) buffer is still a valid
        // document — the endpoints never fail, they render what's there.
        let (status, _) = get(server.addr(), "/profile").unwrap();
        assert_eq!(status, 200);
        let (status, body) = get(server.addr(), "/slowest").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"slowest\":["));
        let (status, body) = get(server.addr(), "/slo").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"objective_nanos\""));
        let (status, body) = get(server.addr(), "/cache").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"hit_rate\":"));
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn nodes_and_events_endpoints_serve_fleet_data() {
        let server = test_server(None);
        server.state().fed.telemetry().fleet().set_enabled(true);
        // Before any query: /nodes is valid (possibly empty) JSON and
        // /events is empty-or-lines; unknown ids 404.
        let (status, body) = get(server.addr(), "/nodes").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"skew\":{"), "got: {body}");
        for unknown in ["/nodes/not-a-node", "/nodes/9999"] {
            let (status, _) = get(server.addr(), unknown).unwrap();
            assert_eq!(status, 404, "{unknown}");
        }
        // One served query populates the scorecards and the journal.
        let (status, _) = post(
            server.addr(),
            "/query",
            "{\"id\": 21, \"bounds\": [0, 20, 0, 45]}",
        )
        .unwrap();
        assert_eq!(status, 200);
        let (status, body) = get(server.addr(), "/nodes").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("\"last_selected_query\":21") && body.contains("\"gini\":"),
            "scorecards must attribute the served query: {body}"
        );
        for id in ["/nodes/n0", "/nodes/3", "/nodes/n3"] {
            let (status, body) = get(server.addr(), id).unwrap();
            assert!(
                status == 200 && body.contains("\"train_wall_nanos\":"),
                "node ids and display ids must resolve: {id} {status} {body}"
            );
        }
        // Only digits name a node: a sign is not part of an id.
        for signed in ["/nodes/+3", "/nodes/n+3", "/nodes/-3", "/nodes/n"] {
            let (status, _) = get(server.addr(), signed).unwrap();
            assert_eq!(status, 404, "{signed}");
        }
        let lines = |body: &str| body.lines().filter(|l| !l.is_empty()).count();
        let (status, body) = get(server.addr(), "/events?n=4").unwrap();
        assert_eq!(status, 200);
        assert!(lines(&body) <= 4, "the n= cap must bound the tail: {body}");
        assert!(body.contains("\"kind\":\"node_selected\""), "got: {body}");
        // A signed n is no number: like any other non-digit n, it is
        // ignored and the whole journal comes back, not a one-line tail.
        for n in ["x", "+1"] {
            let (status, body) = get(server.addr(), &format!("/events?n={n}")).unwrap();
            assert_eq!(status, 200);
            assert!(lines(&body) > 1, "n={n}: {body}");
        }
        // The fleet series ride along on /metrics.
        let (status, body) = get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        for series in [
            "qens_node_selected_total{",
            "qens_fleet_selection_gini",
            "qens_journal_events_total",
        ] {
            assert!(body.contains(series), "/metrics lacks {series}");
        }
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn query_round_trip_and_keep_alive() {
        let server = test_server(None);
        let (status, body) = post(
            server.addr(),
            "/query",
            "{\"id\": 9, \"bounds\": [0, 20, 0, 45]}",
        )
        .unwrap();
        assert_eq!(status, 200, "body: {body}");
        assert!(
            body.contains("\"query_id\":9")
                && body.contains("\"participants\":[")
                && body.contains("\"loss\":"),
            "the reply carries the selection and the federated answer: {body}"
        );
        // The same rectangle again over one keep-alive socket: a memo
        // hit, still correct.
        let mut ka = KeepAliveClient::connect(server.addr()).unwrap();
        let (s1, b1) = ka
            .request("POST", "/query", "{\"id\": 10, \"bounds\": [0, 20, 0, 45]}")
            .unwrap();
        let (s2, _) = ka.request("GET", "/healthz", "").unwrap();
        assert_eq!((s1, s2), (200, 200));
        assert!(b1.contains("\"query_id\":10"));
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn a_peer_reset_inside_a_request_counts_an_io_error() {
        let server = test_server(None);
        let io_errors = || {
            server
                .state()
                .fed
                .telemetry()
                .snapshot()
                .counter("qens_serve_io_errors_total")
                .unwrap_or(0)
        };
        let before = io_errors();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write as _;
        let body = "{\"id\": 11, \"bounds\": [0, 20, 0, 45]}";
        write!(
            stream,
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        // Wait for the reply but leave it unread: closing a socket with
        // unread bytes sends a reset, not a FIN. The reset lands while the
        // server reads the header block of the next keep-alive request.
        stream.peek(&mut [0u8; 1]).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost").unwrap();
        drop(stream);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while io_errors() == before {
            assert!(
                std::time::Instant::now() < deadline,
                "a reset connection never reached qens_serve_io_errors_total"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let (status, body) = get(server.addr(), "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn oversized_bodies_get_413_without_being_read() {
        let server = test_server(Some(AdmissionConfig {
            body_cap_bytes: 256,
        }));
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::{Read as _, Write as _};
        // Declare a huge body but never send it: the server must answer
        // from the headers alone.
        write!(
            stream,
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "got: {response}");
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn parse_query_body_accepts_the_documented_shape() {
        let (id, bounds) =
            parse_query_body(b"{\"id\": 7, \"bounds\": [0, 20, 0.5, 45]}", 2).unwrap();
        assert_eq!(id, Some(7));
        assert_eq!(bounds, vec![0.0, 20.0, 0.5, 45.0]);
        let (id, bounds) = parse_query_body(b" {\"bounds\":[-1e3,1e3]}\n", 1).unwrap();
        assert_eq!(id, None);
        assert_eq!(bounds, vec![-1000.0, 1000.0]);
        let (id, _) =
            parse_query_body(b"{\"bounds\": [1, 2], \"id\": 18446744073709551615}", 1).unwrap();
        assert_eq!(id, Some(u64::MAX));
        assert!(parse_query_body(b"[]", 1).is_err());
        assert!(parse_query_body(b"{\"bounds\": [1, oops]}", 1).is_err());
        assert!(parse_query_body(b"{}", 1).is_err());
    }

    #[test]
    fn parse_query_body_refuses_what_it_cannot_vouch_for() {
        for hostile in [
            // Not the documented object.
            "",
            "{",
            "}",
            "{\"bounds\": [0, 1, 0, 1]} trailing",
            "{\"bounds\": [0, 1, 0, 1]}}",
            "{{\"bounds\": [0, 1, 0, 1]}",
            "{\"bounds\" [0, 1, 0, 1]}",
            "{bounds: [0, 1, 0, 1]}",
            "{\"bounds\": [0, 1, 0, 1],}",
            "{,\"bounds\": [0, 1, 0, 1]}",
            "{\"bounds\": [0, 1, 0, 1] \"id\": 1}",
            // Brackets.
            "{\"bounds\": [0, 1, 0, 1}",
            "{\"bounds\": 0, 1, 0, 1]}",
            "{\"bounds\": [[0, 1], [0, 1]]}",
            "{\"bounds\": [0, 1, 0, 1]]}",
            "{\"bounds\": [0, 1,, 0, 1]}",
            "{\"bounds\": [0, 1, 0, 1,]}",
            "{\"bounds\": [0 1 0 1]}",
            // Counts and values.
            "{\"bounds\": []}",
            "{\"bounds\": [0, 1, 0]}",
            "{\"bounds\": [0, 1, 0, 1, 0, 1]}",
            "{\"bounds\": [1, 0, 0, 1]}",
            "{\"bounds\": [0, 1, NaN, 1]}",
            "{\"bounds\": [0, inf, 0, 1]}",
            "{\"bounds\": [-inf, 1, 0, 1]}",
            "{\"bounds\": [0, 1e999, 0, 1]}",
            "{\"bounds\": [0, 1, 0, \"1\"]}",
            "{\"bounds\": [0, 1, 0, null]}",
            "{\"bounds\": null}",
            // Ids.
            "{\"id\": -1, \"bounds\": [0, 1, 0, 1]}",
            "{\"id\": +1, \"bounds\": [0, 1, 0, 1]}",
            "{\"id\": 1.0, \"bounds\": [0, 1, 0, 1]}",
            "{\"id\": 18446744073709551616, \"bounds\": [0, 1, 0, 1]}",
            "{\"id\": \"1\", \"bounds\": [0, 1, 0, 1]}",
            "{\"id\": , \"bounds\": [0, 1, 0, 1]}",
            // Keys: repeated, unknown, or only present inside a string.
            "{\"id\": 1, \"id\": 1, \"bounds\": [0, 1, 0, 1]}",
            "{\"bounds\": [0, 1, 0, 1], \"bounds\": [0, 1, 0, 1]}",
            "{\"note\": \"x\", \"bounds\": [0, 1, 0, 1]}",
            "{\"note\": \"\\\"bounds\\\": [0, 1, 0, 1]\"}",
            "{\"\\u0069d\": 1, \"bounds\": [0, 1, 0, 1]}",
            "{\"bounds\": [0, 1, 0, 1], \"note\": \"unterminated}",
        ] {
            let refused = parse_query_body(hostile.as_bytes(), 2);
            assert!(refused.is_err(), "{hostile:?} parsed to {refused:?}");
        }
        assert!(parse_query_body(b"{\"bounds\": [0, 1, 0, \xff]}", 2).is_err());
        // `str::parse::<f64>` is the number grammar: wider than JSON's,
        // and what it yields is still checked.
        let (_, lenient) = parse_query_body(b"{\"bounds\": [-0, +1., .5, 1E1]}", 2).unwrap();
        assert_eq!(lenient, vec![-0.0, 1.0, 0.5, 10.0]);
    }

    #[test]
    fn hostile_query_bodies_never_panic() {
        use linalg::rng::{rng_for, Rng};
        let valid: [&str; 3] = [
            "{\"id\": 7, \"bounds\": [0, 20, 0.5, 45]}",
            "{\"bounds\": [-1.5e2, 3.25, 1e-3, 1e3]}",
            " {\"bounds\":[0,0,0,0],\"id\":4294967296} ",
        ];
        let splices: [&str; 16] = [
            "{",
            "}",
            "[",
            "]",
            ",",
            ":",
            "\"",
            "\\",
            "-",
            "NaN",
            "inf",
            "1e999",
            "\"id\"",
            "\"bounds\"",
            "\u{0}",
            "é",
        ];
        let mut rng = rng_for(0x5EED, 17);
        let mut accepted = 0;
        for round in 0..6000 {
            let mut body = valid[round % valid.len()].as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..body.len());
                match rng.gen_range(0..5u32) {
                    0 => body[at] = rng.gen::<u32>() as u8,
                    1 => body[at] ^= 1 << rng.gen_range(0..8u32),
                    2 => {
                        let splice = splices[rng.gen_range(0..splices.len())];
                        body.splice(at..at, splice.bytes());
                    }
                    3 => body.truncate(at),
                    _ => {
                        body.remove(at);
                    }
                }
                if body.is_empty() {
                    break;
                }
            }
            match parse_query_body(&body, 2) {
                Ok((id, bounds)) => {
                    accepted += 1;
                    // What is accepted is what the engine can take.
                    assert_eq!(bounds.len(), 4);
                    let query = Query::from_boundary_vec(id.unwrap_or(0), &bounds);
                    assert_eq!(query.dim(), 2);
                }
                Err(reason) => {
                    // As the 400's body carries it: no bare quote, no
                    // control byte, so the body stays one JSON string.
                    let body = ingest::error_body(&reason);
                    let escaped = &body["{\"error\":\"".len()..body.len() - "\"}\n".len()];
                    assert!(
                        !escaped.replace("\\\"", "").contains('"')
                            && !escaped.contains(char::is_control),
                        "{escaped}"
                    );
                }
            }
        }
        // Flipping a digit leaves a valid query: the sweep is not all
        // refusals.
        assert!(accepted > 100, "only {accepted} mutants were accepted");
    }

    #[test]
    fn hostile_requests_get_a_4xx_or_a_close_from_a_live_server() {
        let server = test_server(None);
        let addr = server.addr().to_string();
        let body = "{\"id\": 7, \"bounds\": [0, 20, 0.5, 45]}";
        let post_with = |headers: &str, body: &str| {
            format!("POST /query HTTP/1.1\r\nHost: x\r\n{headers}\r\n{body}").into_bytes()
        };
        let length = format!("Content-Length: {}\r\n", body.len());
        let mut probes: Vec<(Vec<u8>, &[u16])> = vec![
            (post_with(&length, body), &[200]),
            (post_with(&format!("{length}{length}"), body), &[400]),
            (post_with("Content-Length: -1\r\n", body), &[400]),
            (
                post_with("Content-Length: 99999999999999999999\r\n", body),
                &[400],
            ),
            (
                post_with("Content-Length: 4611686018427387904\r\n", body),
                &[413],
            ),
            (post_with("Content-Length: 500\r\n", body), &[400]),
            (post_with("", body), &[400]),
        ];
        for hostile in [
            "{\"bounds\": [0, 20, NaN, 45]}",
            "{\"bounds\": [0, inf, 0, 45]}",
            "{\"bounds\": [20, 0, 0, 45]}",
            "{\"bounds\": [0, 20, 0]}",
            "{\"bounds\": [0, 20, 0, 45",
            "{\"note\": \"\\\"bounds\\\": [0, 20, 0, 45]\"}",
            "{\"id\": -3, \"bounds\": [0, 20, 0, 45]}",
        ] {
            let length = format!("Content-Length: {}\r\n", hostile.len());
            probes.push((post_with(&length, hostile), &[400]));
        }
        // Truncations (the probe half-closes, so the server sees EOF) and
        // seeded byte flips of the valid request: any typed refusal, the
        // answer, or a clean close (status 0), never a dead worker.
        let request = post_with(&length, body);
        for cut in (0..request.len()).step_by(7) {
            probes.push((request[..cut].to_vec(), &[0, 400]));
        }
        use linalg::rng::{rng_for, Rng};
        let mut rng = rng_for(0x5EED, 18);
        for _ in 0..48 {
            let mut flipped = request.clone();
            let at = rng.gen_range(0..flipped.len());
            flipped[at] ^= 1 << rng.gen_range(0..8u32);
            probes.push((flipped, &[0, 200, 400, 404, 405, 413]));
        }
        let started = std::time::Instant::now();
        for (request, allowed) in &probes {
            let (status, reply) = probe_raw(&addr, request).unwrap();
            assert!(
                allowed.contains(&status),
                "{:?} got {status} {reply}",
                String::from_utf8_lossy(request)
            );
        }
        assert!(
            started.elapsed() < IO_TIMEOUT,
            "no probe may have waited for the read timeout"
        );
        // All four workers still answer; `wait` joins them and would
        // re-raise a worker's panic.
        for _ in 0..8 {
            assert_eq!(get(&addr, "/healthz").unwrap().0, 200);
        }
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn keep_alive_replies_do_not_wait_for_a_delayed_ack() {
        let server = test_server(None);
        // `KeepAliveClient` leaves TCP_NODELAY off, as most clients do.
        let mut client = KeepAliveClient::connect(server.addr()).unwrap();
        let mut millis: Vec<f64> = (0..32)
            .map(|id| {
                let body = format!("{{\"id\": {id}, \"bounds\": [0, 20, 0, 45]}}");
                let start = std::time::Instant::now();
                let (status, _) = client.request("POST", "/query", &body).unwrap();
                assert_eq!(status, 200);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        millis.sort_by(f64::total_cmp);
        // A reply written as head then body takes the peer's 40 ms
        // delayed-ACK timer on every round trip; one write takes a
        // fraction of a millisecond.
        assert!(millis[16] < 10.0, "median round trip {} ms", millis[16]);
        drop(client);
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn a_peer_that_stops_reading_times_the_write_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();
        configure(&accepted).unwrap();
        // More than the send and receive buffers can ever hold.
        let body = "x".repeat(48 << 20);
        let started = std::time::Instant::now();
        let stalled = write_response(&mut accepted, "200 OK", "text/plain", "", &body, true);
        let kind = stalled.expect_err("nobody reads 48 MB").kind();
        assert!(
            matches!(
                kind,
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "got {kind:?}"
        );
        // Not a reset: the timeout ended it. (A write that got part of
        // its buffer out before the timeout reports the part, and
        // `write_all` waits again, so this can take a few timeouts.)
        let waited = started.elapsed();
        assert!(
            waited >= IO_TIMEOUT && waited < 12 * IO_TIMEOUT,
            "the write gave up after {waited:?}"
        );
    }

    #[test]
    fn a_peer_that_stops_sending_is_dropped_at_the_read_timeout() {
        use std::io::{Read as _, Write as _};
        let server = test_server(None);
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        stalled
            .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"bounds\"")
            .unwrap();
        stalled
            .set_read_timeout(Some(4 * IO_TIMEOUT))
            .expect("a client-side limit, so a server that never closes fails the test");
        let started = std::time::Instant::now();
        let mut reply = Vec::new();
        stalled.read_to_end(&mut reply).unwrap();
        let waited = started.elapsed();
        assert!(reply.is_empty(), "half a body earns a close, not an answer");
        assert!(
            waited >= IO_TIMEOUT - Duration::from_millis(100) && waited < 2 * IO_TIMEOUT,
            "the server hung up after {waited:?}"
        );
        server.request_shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn duration_returns_after_draining() {
        // A tiny duration must bring serve() home on its own.
        let started = std::time::Instant::now();
        let server = test_server(None);
        let state = Arc::clone(server.state());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            state.request_shutdown();
        });
        server.wait().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "shutdown must not hang"
        );
    }
}

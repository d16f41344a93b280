//! Hierarchical query tracing: a structured tree of timed begin/end
//! events on top of the flat metric registry.
//!
//! A per-query selection→train→aggregate pipeline is fundamentally a
//! *tree* — query → selection scoring → round → participant →
//! train/transfer/retry — and the aggregate counters/histograms of the
//! registry cannot say where one slow query actually spent its time.
//! This module records that tree.
//!
//! # Event model
//!
//! * [`Span`] — an RAII begin/end pair with a process-unique span id;
//!   the parent is whatever span is open on the recording thread (a
//!   thread-local stack), so nesting falls out of scope structure. The
//!   same guard fills its name's `_nanos` histogram, if it has one.
//! * [`instant`] — a zero-duration point event (fault fired, standby
//!   promoted, bytes charged).
//! * Every event may carry up to [`MAX_ARGS`] static-key `u64`
//!   arguments (node index, round, bytes, …) and is stamped with the
//!   id of the query whose `query` span is open on the recording thread
//!   (the root span [`crate::profile::QueryObserver::begin`] opens), or
//!   whose pool task the thread is running ([`task_scope`]).
//!
//! # Clocks
//!
//! The collector runs in one of two modes ([`Clock`]):
//!
//! * **Wall** — timestamps are nanoseconds since the trace epoch.
//!   Events may be recorded from any thread (pool workers included);
//!   ordering between threads is scheduling-dependent, exactly like a
//!   real profiler.
//! * **Logical** — the timestamp is a deterministic tick (0, 1, 2, …)
//!   assigned in recording order, and **only deterministic call sites
//!   record**: [`span`]/[`instant`] (leader-serial code) record,
//!   [`wall_span`] (worker/hot-path code) is inert.
//!   Because the leader's event sequence is a pure function of the
//!   simulation (never of thread scheduling), a logical trace — and its
//!   byte-stable JSON export — is bit-identical for any pool size,
//!   mirroring the `faults::FaultTrace` stability contract.
//!
//! # Enablement and cost
//!
//! Tracing is **off by default**; the disabled fast path of every entry
//! point is a single relaxed atomic load — no clock read, no
//! allocation, no lock. A [`Span`] adds one more load, of the telemetry
//! flag, and is just as inert while both are off. Only code turns
//! tracing on: [`set_mode`], e.g.
//! through `FederationBuilder::trace` or `repro serve --trace`. The
//! buffer is bounded ([`MAX_TRACE_EVENTS`]); once full, new events are
//! counted in [`dropped`] and discarded.
//!
//! # Export
//!
//! [`export_chrome`] renders the buffer in the Chrome trace-event JSON
//! format (`{"traceEvents":[…]}`), directly loadable in Perfetto or
//! `chrome://tracing`. Key order is fixed and timestamps are integers
//! in logical mode, so the export is byte-stable.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::{write_key, write_str, write_u64};
use crate::Histogram;

/// Maximum `(key, value)` arguments one event can carry.
pub const MAX_ARGS: usize = 4;

/// Buffered-event cap: recording stops (and [`dropped`] counts) once
/// the buffer holds this many events. Bounds trace memory on long
/// streams (~40 MB worst case at the default cap).
pub const MAX_TRACE_EVENTS: usize = 1 << 18;

/// Which timestamp source the collector uses. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Nanoseconds since the trace epoch; any thread may record.
    Wall,
    /// A deterministic tick per event; only deterministic (leader)
    /// call sites record, so the trace is thread-count independent.
    Logical,
}

/// The mode flag: 0 = off (the start state), 1 = wall, 2 = logical.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The current trace mode (`None` = disabled). One relaxed load on the
/// hot path.
#[inline]
pub fn mode() -> Option<Clock> {
    match MODE.load(Ordering::Relaxed) {
        1 => Some(Clock::Wall),
        2 => Some(Clock::Logical),
        _ => None,
    }
}

/// Turns tracing on (with the given clock) or off. Does **not** clear
/// already-buffered events — call [`clear`] for a fresh trace.
pub fn set_mode(m: Option<Clock>) {
    let code = match m {
        None => 0,
        Some(Clock::Wall) => 1,
        Some(Clock::Logical) => 2,
    };
    MODE.store(code, Ordering::Relaxed);
}

/// Whether any event would be recorded right now.
#[inline]
pub fn is_enabled() -> bool {
    mode().is_some()
}

/// One event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Point event (`"i"`).
    Instant,
}

impl Phase {
    fn chrome(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// A fixed-capacity `(static key, u64 value)` argument set — no
/// allocation per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Args {
    items: [(&'static str, u64); MAX_ARGS],
    len: u8,
}

impl Args {
    fn from_slice(args: &[(&'static str, u64)]) -> Self {
        let mut out = Self::default();
        for &(k, v) in args.iter().take(MAX_ARGS) {
            out.items[out.len as usize] = (k, v);
            out.len += 1;
        }
        out
    }

    /// The populated `(key, value)` pairs.
    pub fn as_slice(&self) -> &[(&'static str, u64)] {
        &self.items[..self.len as usize]
    }
}

/// One buffered trace event (a structured snapshot row; the public view
/// for tests and tooling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (`crate.verb` convention, e.g. `fedlearn.round`).
    pub name: &'static str,
    /// Begin / End / Instant.
    pub phase: Phase,
    /// Logical tick or nanoseconds since the epoch, per [`Clock`].
    pub ts: u64,
    /// Recording thread (0 is the first thread seen; always 0 in
    /// logical mode).
    pub tid: u32,
    /// Span id (begin/end pairs share it; 0 for instants).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Owning query id (`u64::MAX` = outside any query span).
    pub query: u64,
    /// Static-key arguments.
    pub args: Args,
}

struct Collector {
    events: Vec<TraceEvent>,
    next_span: u64,
    tick: u64,
    dropped: u64,
    epoch: Option<Instant>,
    next_tid: u32,
}

impl Collector {
    const fn new() -> Self {
        Self {
            events: Vec::new(),
            next_span: 1,
            tick: 0,
            dropped: 0,
            epoch: None,
            next_tid: 0,
        }
    }
}

fn collector() -> MutexGuard<'static, Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR
        .get_or_init(|| Mutex::new(Collector::new()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

thread_local! {
    /// Open-span stack of this thread (for parent assignment).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's registration-order id (`u32::MAX` = unassigned).
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    /// The query this thread's events belong to (`u64::MAX` = none): set
    /// by [`query_span`] on the thread running the query, and by
    /// [`task_scope`] on whichever thread runs one of its pool tasks, so
    /// queries answered side by side keep separate trees.
    static QUERY: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Discards every buffered event and resets ticks, span ids, the epoch
/// and the dropped counter. The mode is left untouched, and so is the
/// thread-id counter: a thread keeps the id it was given for as long as
/// it lives (pool workers outlive any one trace), so handing the same
/// id out again would put two threads on one track and break the
/// per-thread stack discipline [`validate_structure`] checks.
pub fn clear() {
    let mut c = collector();
    *c = Collector {
        next_tid: c.next_tid,
        ..Collector::new()
    };
}

/// Number of buffered events.
pub fn events_len() -> usize {
    collector().events.len()
}

/// Events discarded because the buffer hit [`MAX_TRACE_EVENTS`].
pub fn dropped() -> u64 {
    collector().dropped
}

/// A structured copy of the buffered events (tests, tooling).
pub fn snapshot_events() -> Vec<TraceEvent> {
    collector().events.clone()
}

/// A structured copy of the buffered events attributed to `query`
/// (the root query span included — it is stamped with its own id).
pub fn snapshot_query(query: u64) -> Vec<TraceEvent> {
    collector()
        .events
        .iter()
        .filter(|e| e.query == query)
        .cloned()
        .collect()
}

/// The distinct query ids seen in the buffer, in first-seen order.
pub fn query_ids() -> Vec<u64> {
    let c = collector();
    let mut out = Vec::new();
    for e in &c.events {
        if e.query != u64::MAX && !out.contains(&e.query) {
            out.push(e.query);
        }
    }
    out
}

fn record(clock: Clock, phase: Phase, name: &'static str, span: u64, parent: u64, args: Args) {
    // The wall timestamp must be taken *outside* the collector lock so
    // contention does not skew durations; logical ticks are assigned
    // under the lock (that is what makes them a total order).
    let wall_now = match clock {
        Clock::Wall => Some(Instant::now()),
        Clock::Logical => None,
    };
    let tid = match clock {
        Clock::Logical => 0,
        Clock::Wall => TID.with(|t| t.get()),
    };
    let mut c = collector();
    if c.events.len() >= MAX_TRACE_EVENTS {
        c.dropped += 1;
        crate::counter!("qens_trace_dropped_total").incr();
        return;
    }
    let ts = match wall_now {
        Some(now) => {
            let epoch = *c.epoch.get_or_insert(now);
            u64::try_from(now.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        }
        None => {
            let t = c.tick;
            c.tick += 1;
            t
        }
    };
    let tid = if tid == u32::MAX {
        let assigned = c.next_tid;
        c.next_tid += 1;
        TID.with(|t| t.set(assigned));
        assigned
    } else {
        tid
    };
    c.events.push(TraceEvent {
        name,
        phase,
        ts,
        tid,
        span,
        parent,
        query: QUERY.with(Cell::get),
        args,
    });
    crate::counter!("qens_trace_events_total").incr();
}

fn alloc_span_id() -> u64 {
    let mut c = collector();
    let id = c.next_span;
    c.next_span += 1;
    id
}

fn current_parent() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Trace name → the `_nanos` histogram a span of that name also fills
/// while telemetry is on. Spans of any other name only trace.
const SERIES: [(&str, &str); 10] = [
    ("cluster.kmeans", "qens_cluster_kmeans_fit_nanos"),
    ("cluster.kmeans.assign", "qens_cluster_kmeans_assign_nanos"),
    ("cluster.kmeans.update", "qens_cluster_kmeans_update_nanos"),
    ("edgesim.quantize_all", "qens_edgesim_quantize_all_nanos"),
    ("fedlearn.aggregate", "qens_fedlearn_aggregate_nanos"),
    ("fedlearn.train", "qens_fedlearn_train_nanos"),
    ("mlkit.stage", "qens_mlkit_stage_nanos"),
    ("mlkit.train", "qens_mlkit_train_nanos"),
    ("selection.index_build", "qens_index_build_nanos"),
    ("selection.select", "qens_selection_select_nanos"),
];

/// The histogram [`SERIES`] maps `name` to, looked up in the registry
/// once per table slot.
fn series(name: &str) -> Option<&'static Histogram> {
    static SLOTS: [OnceLock<Arc<Histogram>>; SERIES.len()] =
        [const { OnceLock::new() }; SERIES.len()];
    let slot = SERIES.iter().position(|&(span, _)| span == name)?;
    Some(SLOTS[slot].get_or_init(|| crate::global().histogram(SERIES[slot].1)))
}

/// RAII timing guard with two sinks: a trace `Begin` on creation and
/// the matching `End` on drop while tracing records its site, and the
/// elapsed nanoseconds into the `_nanos` histogram its name maps to while
/// telemetry is on. With both off it is inert: no clock read, no
/// registry access, nothing on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    id: u64,
    clock: Option<Clock>,
    /// Clear the thread's query on drop (root query spans only).
    owns_query: bool,
    timer: Option<(&'static Histogram, Instant)>,
}

impl Span {
    fn begin(name: &'static str, args: &[(&'static str, u64)], wall_only: bool) -> Self {
        let timer = if crate::enabled() { series(name) } else { None };
        let mut span = Self {
            name,
            id: 0,
            clock: None,
            owns_query: false,
            timer: timer.map(|hist| (hist, Instant::now())),
        };
        let Some(clock) = mode().filter(|&c| !(wall_only && c == Clock::Logical)) else {
            return span;
        };
        span.id = alloc_span_id();
        record(
            clock,
            Phase::Begin,
            name,
            span.id,
            current_parent(),
            Args::from_slice(args),
        );
        SPAN_STACK.with(|s| s.borrow_mut().push(span.id));
        crate::counter!("qens_trace_spans_total").incr();
        span.clock = Some(clock);
        span
    }

    /// Whether this span will record anything on drop.
    pub fn is_recording(&self) -> bool {
        self.clock.is_some() || self.timer.is_some()
    }

    /// Ends the span now instead of at scope end.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.timer {
            hist.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let Some(clock) = self.clock else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Scope discipline means our id is on top; be robust to
            // out-of-order drops anyway (retain everything else).
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                stack.retain(|&x| x != self.id);
            }
        });
        record(
            clock,
            Phase::End,
            self.name,
            self.id,
            current_parent(),
            Args::default(),
        );
        if self.owns_query {
            QUERY.with(|q| q.set(u64::MAX));
        }
    }
}

/// Opens a span from a **deterministic** call site (leader-serial code
/// whose execution order is a pure function of the simulation).
/// Traced in both wall and logical modes.
#[inline]
pub fn span(name: &'static str, args: &[(&'static str, u64)]) -> Span {
    Span::begin(name, args, false)
}

/// Opens a span from a scheduling-dependent call site (pool workers,
/// hot paths). Traced only in wall mode, so logical traces stay
/// thread-count independent; the histogram side is the same as
/// [`span`]'s.
#[inline]
pub fn wall_span(name: &'static str, args: &[(&'static str, u64)]) -> Span {
    Span::begin(name, args, true)
}

/// Opens the root span of one query's pipeline and stamps every event
/// this thread records until it drops with `query_id`. Only
/// [`crate::profile::QueryObserver`] opens it, on the thread that runs
/// the query; other threads may run other queries meanwhile.
pub(crate) fn query_span(query_id: u64) -> Span {
    // Stamp the query id *before* the Begin event records, so the root
    // "query" span is itself attributed to its query — the tree
    // [`snapshot_query`] hands the flight recorder would otherwise miss
    // its root Begin and be unbalanced.
    if mode().is_some() {
        QUERY.with(|q| q.set(query_id));
    }
    let mut s = span("query", &[("query", query_id)]);
    if s.clock.is_some() {
        s.owns_query = true;
    } else {
        QUERY.with(|q| q.set(u64::MAX));
    }
    s
}

/// The query the calling thread records for (`u64::MAX` = none). A pool
/// task captures it when it is submitted and hands it to [`task_scope`].
pub fn current_query() -> u64 {
    QUERY.with(Cell::get)
}

/// Runs the rest of a pool task for `query`, whichever thread picked it
/// up: a worker, its submitter, or another query's submitter helping to
/// drain the queue. Until the guard drops, this thread stamps `query` on
/// its events and starts from an empty span stack, so the task's spans
/// are roots on this thread's track, as on a worker, and never children
/// of a span another query left open here.
pub fn task_scope(query: u64) -> TaskScope {
    TaskScope {
        query: QUERY.with(|q| q.replace(query)),
        stack: SPAN_STACK.with(|s| std::mem::take(&mut *s.borrow_mut())),
    }
}

/// The thread's own query and span stack, put back on drop; see
/// [`task_scope`].
#[derive(Debug)]
pub struct TaskScope {
    query: u64,
    stack: Vec<u64>,
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        QUERY.with(|q| q.set(self.query));
        SPAN_STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.stack));
    }
}

/// Records a point event from a **deterministic** call site (recorded
/// in both modes).
#[inline]
pub fn instant(name: &'static str, args: &[(&'static str, u64)]) {
    let Some(clock) = mode() else { return };
    record(
        clock,
        Phase::Instant,
        name,
        0,
        current_parent(),
        Args::from_slice(args),
    );
}

fn write_event(out: &mut String, e: &TraceEvent, clock: Clock) {
    out.push('{');
    write_key(out, "name");
    write_str(out, e.name);
    out.push(',');
    write_key(out, "cat");
    write_str(out, "qens");
    out.push(',');
    write_key(out, "ph");
    write_str(out, e.phase.chrome());
    out.push(',');
    write_key(out, "ts");
    match clock {
        // Logical ticks export verbatim; wall nanos export as integer
        // microseconds with three decimals (Chrome's ts unit is µs).
        Clock::Logical => write_u64(out, e.ts),
        Clock::Wall => {
            out.push_str(&format!("{}.{:03}", e.ts / 1000, e.ts % 1000));
        }
    }
    out.push(',');
    write_key(out, "pid");
    write_u64(out, 0);
    out.push(',');
    write_key(out, "tid");
    write_u64(out, u64::from(e.tid));
    if e.phase == Phase::Instant {
        out.push(',');
        write_key(out, "s");
        write_str(out, "t");
    }
    out.push(',');
    write_key(out, "args");
    out.push('{');
    let mut first = true;
    if e.span != 0 {
        write_key(out, "span");
        write_u64(out, e.span);
        first = false;
    }
    if e.parent != 0 {
        if !first {
            out.push(',');
        }
        write_key(out, "parent");
        write_u64(out, e.parent);
        first = false;
    }
    if e.query != u64::MAX {
        if !first {
            out.push(',');
        }
        write_key(out, "q");
        write_u64(out, e.query);
        first = false;
    }
    for &(k, v) in e.args.as_slice() {
        if !first {
            out.push(',');
        }
        write_key(out, k);
        write_u64(out, v);
        first = false;
    }
    out.push('}');
    out.push('}');
}

/// Renders the buffer as a Chrome trace-event JSON document
/// (`{"traceEvents":[…],"displayTimeUnit":…,"otherData":{…}}`),
/// loadable in Perfetto / `chrome://tracing`. Pass `Some(query_id)` to
/// export one query's events only.
///
/// Key order, number formatting and event order are all fixed, so two
/// identical buffers export byte-identically — `results/trace.json` is
/// exactly this, byte-diffed by `crates/bench/tests/golden_telemetry.rs`
/// and at two pool sizes by `crates/bench/tests/repro_cli.rs`.
pub fn export_chrome(query: Option<u64>) -> String {
    let c = collector();
    // The clock tag in the export comes from the *current* mode; a
    // mixed buffer (mode switched mid-run without clear()) is the
    // caller's error.
    let clock = mode().unwrap_or(Clock::Logical);
    let mut out = String::with_capacity(256 + c.events.len() * 96);
    out.push('{');
    write_key(&mut out, "traceEvents");
    out.push('[');
    let mut first = true;
    for e in &c.events {
        if let Some(q) = query {
            if e.query != q {
                continue;
            }
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        write_event(&mut out, e, clock);
    }
    out.push_str("\n]");
    out.push(',');
    write_key(&mut out, "displayTimeUnit");
    write_str(&mut out, "ms");
    out.push(',');
    write_key(&mut out, "otherData");
    out.push('{');
    write_key(&mut out, "clock");
    write_str(
        &mut out,
        match clock {
            Clock::Wall => "wall",
            Clock::Logical => "logical",
        },
    );
    out.push(',');
    write_key(&mut out, "dropped");
    write_u64(&mut out, c.dropped);
    out.push('}');
    out.push('}');
    out
}

/// Writes [`export_chrome`] to `path`, creating parent directories.
pub fn write_chrome(path: &std::path::Path, query: Option<u64>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, export_chrome(query))
}

/// Structural validation of the buffered events: every `Begin` has
/// exactly one later `End` with the same span id, parents are opened
/// before their children, and per-thread begin/end nesting is a proper
/// stack. Returns the first violation as an error string.
///
/// Used by `tests/trace_determinism.rs` to pin wall-clock traces, whose
/// cross-thread ordering is scheduling-dependent but whose *structure*
/// must still be a forest.
pub fn validate_structure(events: &[TraceEvent]) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut begun: BTreeMap<u64, usize> = BTreeMap::new(); // span -> begin index
    let mut ended: BTreeSet<u64> = BTreeSet::new();
    let mut stacks: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.phase {
            Phase::Begin => {
                if begun.insert(e.span, i).is_some() {
                    return Err(format!("span {} begun twice (event {i})", e.span));
                }
                if e.parent != 0 {
                    match begun.get(&e.parent) {
                        Some(&pi) if pi < i => {}
                        _ => {
                            return Err(format!(
                                "event {i} ({}) has parent {} not yet begun",
                                e.name, e.parent
                            ))
                        }
                    }
                }
                stacks.entry(e.tid).or_default().push(e.span);
            }
            Phase::End => {
                if !begun.contains_key(&e.span) {
                    return Err(format!("span {} ended but never begun (event {i})", e.span));
                }
                if !ended.insert(e.span) {
                    return Err(format!("span {} ended twice (event {i})", e.span));
                }
                let stack = stacks.entry(e.tid).or_default();
                match stack.pop() {
                    Some(top) if top == e.span => {}
                    other => {
                        return Err(format!(
                            "tid {} stack discipline broken at event {i}: popped {:?}, expected {}",
                            e.tid, other, e.span
                        ))
                    }
                }
            }
            Phase::Instant => {}
        }
    }
    for (&span, &i) in &begun {
        if !ended.contains(&span) {
            return Err(format!("span {span} (begun at event {i}) never ended"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace tests share the process-global collector and mode flag, so
    /// they serialise on the crate test lock like the enablement tests.
    fn locked(clock: Option<Clock>) -> std::sync::MutexGuard<'static, ()> {
        let g = crate::test_lock();
        set_mode(clock);
        clear();
        g
    }

    #[test]
    fn disabled_trace_is_inert() {
        let _g = locked(None);
        let s = span("qens.test.off", &[]);
        assert!(!s.is_recording());
        assert_eq!(s.id, 0);
        drop(s);
        instant("qens.test.off.instant", &[("x", 1)]);
        assert_eq!(events_len(), 0);
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn logical_mode_skips_wall_only_sites() {
        let _g = locked(Some(Clock::Logical));
        let a = span("a", &[]);
        let w = wall_span("w", &[]);
        assert!(a.is_recording());
        assert!(!w.is_recording());
        drop(w);
        drop(a);
        let events = snapshot_events();
        assert_eq!(events.len(), 2); // a begin + a end only
        assert!(events.iter().all(|e| e.name == "a"));
        // Logical ticks are 0, 1, ... and tid is forced to 0.
        assert_eq!(events[0].ts, 0);
        assert_eq!(events[1].ts, 1);
        assert!(events.iter().all(|e| e.tid == 0));
        set_mode(None);
    }

    /// Every switch setting × both constructors × a mapped and an
    /// unmapped name: the trace sees a pair only where its clock admits
    /// the site, the histogram a sample only while telemetry is on and
    /// the name is mapped, the registry no series while telemetry is
    /// off, and with both off the guard holds no timestamp.
    #[test]
    fn one_guard_feeds_the_trace_and_the_histogram() {
        let _g = crate::test_lock();
        let (mapped, series_name) = SERIES[0];
        let series = || {
            crate::global()
                .snapshot()
                .histogram(series_name)
                .map(|h| h.count)
        };
        // Telemetry off first, so the series is still unregistered.
        for telemetry in [false, true] {
            for clock in [None, Some(Clock::Wall), Some(Clock::Logical)] {
                for wall_only in [false, true] {
                    for name in [mapped, "qens.test.unmapped"] {
                        let case = format!(
                            "telemetry {telemetry}, clock {clock:?}, wall_only {wall_only}, {name}"
                        );
                        crate::set_enabled(telemetry);
                        set_mode(clock);
                        clear();
                        let before = series().unwrap_or(0);
                        let guard = if wall_only {
                            wall_span(name, &[])
                        } else {
                            span(name, &[])
                        };
                        let traced = clock.is_some_and(|c| !(wall_only && c == Clock::Logical));
                        let timed = telemetry && name == mapped;
                        assert_eq!(guard.clock.is_some(), traced, "{case}");
                        assert_eq!(guard.timer.is_some(), timed, "{case}");
                        drop(guard);
                        assert_eq!(events_len(), if traced { 2 } else { 0 }, "{case}");
                        let after = series();
                        assert_eq!(after.is_some(), telemetry, "{case}");
                        assert_eq!(after.unwrap_or(0) - before, u64::from(timed), "{case}");
                    }
                }
            }
        }
        crate::set_enabled(false);
        set_mode(None);
    }

    #[test]
    fn spans_nest_and_instants_inherit_the_parent() {
        let _g = locked(Some(Clock::Logical));
        let root = span("root", &[]);
        let root_id = root.id;
        {
            let child = span("child", &[("k", 7)]);
            assert_ne!(child.id, root_id);
            instant("point", &[("v", 3)]);
        }
        drop(root);
        let events = snapshot_events();
        assert_eq!(events.len(), 5);
        let child_begin = &events[1];
        assert_eq!(child_begin.parent, root_id);
        assert_eq!(child_begin.args.as_slice(), &[("k", 7)]);
        let point = &events[2];
        assert_eq!(point.phase, Phase::Instant);
        assert_eq!(point.parent, child_begin.span);
        validate_structure(&events).expect("nested spans are structurally valid");
        set_mode(None);
    }

    #[test]
    fn query_span_stamps_children_until_dropped() {
        let _g = locked(Some(Clock::Logical));
        {
            let _q = query_span(42);
            instant("inside", &[]);
        }
        instant("outside", &[]);
        let events = snapshot_events();
        let inside = events.iter().find(|e| e.name == "inside").unwrap();
        assert_eq!(inside.query, 42);
        let outside = events.iter().find(|e| e.name == "outside").unwrap();
        assert_eq!(outside.query, u64::MAX);
        assert_eq!(query_ids(), vec![42]);
        set_mode(None);
    }

    #[test]
    fn chrome_export_is_byte_stable_and_balanced() {
        let _g = locked(Some(Clock::Logical));
        {
            let _q = query_span(9);
            let _s = span("work", &[("bytes", 128)]);
            instant("fault.dropout", &[("node", 2), ("round", 0)]);
        }
        let a = export_chrome(None);
        let b = export_chrome(None);
        assert_eq!(a, b);
        assert!(a.contains(r#""name":"query""#));
        assert!(a.contains(r#""ph":"B""#) && a.contains(r#""ph":"E""#));
        assert!(a.contains(r#""bytes":128"#));
        assert!(a.contains(r#""clock":"logical""#));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        // Query-filtered export keeps only query 9's events.
        let filtered = export_chrome(Some(9));
        assert!(filtered.contains(r#""name":"work""#));
        let empty = export_chrome(Some(777));
        assert!(!empty.contains(r#""name":"work""#));
        set_mode(None);
    }

    #[test]
    fn wall_mode_records_worker_sites_with_nanos() {
        let _g = locked(Some(Clock::Wall));
        {
            let _s = wall_span("hot", &[]);
            std::hint::black_box(1 + 1);
        }
        let events = snapshot_events();
        assert_eq!(events.len(), 2);
        assert!(events[1].ts >= events[0].ts, "wall time is monotone");
        validate_structure(&events).unwrap();
        set_mode(None);
    }

    #[test]
    fn buffer_cap_drops_and_counts() {
        let _g = locked(Some(Clock::Logical));
        // Simulate a full buffer by filling directly (fast).
        {
            let mut c = collector();
            c.events = Vec::with_capacity(MAX_TRACE_EVENTS);
            for _ in 0..MAX_TRACE_EVENTS {
                c.events.push(TraceEvent {
                    name: "fill",
                    phase: Phase::Instant,
                    ts: 0,
                    tid: 0,
                    span: 0,
                    parent: 0,
                    query: u64::MAX,
                    args: Args::default(),
                });
            }
        }
        instant("overflow", &[]);
        assert_eq!(events_len(), MAX_TRACE_EVENTS);
        assert_eq!(dropped(), 1);
        clear();
        assert_eq!(events_len(), 0);
        assert_eq!(dropped(), 0);
        set_mode(None);
    }

    /// Regression: `clear()` used to restart thread ids at 0 while
    /// long-lived threads (pool workers) kept theirs, so the first new
    /// thread to record after a clear shared a track with an old one
    /// and interleaved spans failed the stack check.
    #[test]
    fn clear_never_hands_a_live_threads_id_out_again() {
        let _g = locked(Some(Clock::Wall));
        let (to_worker, from_main) = std::sync::mpsc::channel::<()>();
        let (to_main, from_worker) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            drop(wall_span("before.clear", &[])); // takes an id
            to_main.send(()).unwrap();
            from_main.recv().unwrap();
            let _outer = wall_span("worker.outer", &[]);
            to_main.send(()).unwrap();
            from_main.recv().unwrap();
        });
        from_worker.recv().unwrap();
        clear();
        to_worker.send(()).unwrap();
        from_worker.recv().unwrap();
        // Opened while the worker's span is open, on a thread (a fresh
        // one, spawned here) that has no id yet.
        std::thread::spawn(|| drop(wall_span("fresh.inner", &[])))
            .join()
            .unwrap();
        to_worker.send(()).unwrap();
        worker.join().unwrap();
        let events = snapshot_events();
        set_mode(None);
        validate_structure(&events).expect("two threads, two tracks");
        let tid_of = |name| events.iter().find(|e| e.name == name).unwrap().tid;
        assert_ne!(tid_of("worker.outer"), tid_of("fresh.inner"));
    }

    #[test]
    fn validate_structure_rejects_malformed_streams() {
        let ev = |phase, span, parent, tid| TraceEvent {
            name: "x",
            phase,
            ts: 0,
            tid,
            span,
            parent,
            query: u64::MAX,
            args: Args::default(),
        };
        // Unbalanced: begin without end.
        assert!(validate_structure(&[ev(Phase::Begin, 1, 0, 0)]).is_err());
        // End without begin.
        assert!(validate_structure(&[ev(Phase::End, 1, 0, 0)]).is_err());
        // Parent begun after child.
        assert!(validate_structure(&[
            ev(Phase::Begin, 2, 1, 0),
            ev(Phase::Begin, 1, 0, 0),
            ev(Phase::End, 1, 0, 0),
            ev(Phase::End, 2, 0, 0),
        ])
        .is_err());
        // A proper little forest passes.
        assert!(validate_structure(&[
            ev(Phase::Begin, 1, 0, 0),
            ev(Phase::Begin, 2, 1, 0),
            ev(Phase::Instant, 0, 2, 0),
            ev(Phase::End, 2, 0, 0),
            ev(Phase::End, 1, 0, 0),
        ])
        .is_ok());
    }
}

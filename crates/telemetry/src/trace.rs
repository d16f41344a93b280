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
//! Each [`crate::Telemetry`] handle has its own store and its own clock
//! switch ([`Store::set_mode`], e.g. through `FederationBuilder::trace`
//! or `repro serve --trace`), off in a fresh handle. A site records
//! into the current handle's store; with no handle entered, or its
//! tracing and telemetry both off, a site is inert: no clock read, no
//! allocation, no lock.
//!
//! # The store
//!
//! The collector keeps whole query trees. A running query's events sit
//! under its query id; when its root `query` span ends they become one
//! finished [`Tree`], shared (not copied) with the flight recorder.
//! Events outside any query (set-up, k-means, index build) sit in one
//! queue of their own. [`MAX_TRACE_EVENTS`] bounds everything retained:
//! past it the oldest finished tree is evicted whole, then the oldest
//! loose events, so a long run keeps its most recent queries. Only when
//! running queries alone fill the store is a new event refused.
//! [`Store::dropped`] counts both the evicted and the refused events.
//!
//! # Export
//!
//! [`Store::export_chrome`] renders the store in the Chrome trace-event JSON
//! format (`{"traceEvents":[…]}`), directly loadable in Perfetto or
//! `chrome://tracing`, merging the trees back into recording order (the
//! sequence number the collector assigns each event). Key order is
//! fixed and timestamps are integers in logical mode, so the export is
//! byte-stable.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json::{write_key, write_str, write_u64};
use crate::registry::Metric;
use crate::{Histogram, Stores};

/// Maximum `(key, value)` arguments one event can carry.
pub const MAX_ARGS: usize = 4;

/// Retained-event bound over the whole store: past it the oldest
/// finished query trees, then the oldest loose events, are evicted (and
/// counted in [`Store::dropped`]). Bounds trace memory on long streams (~45 MB
/// worst case).
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

impl Clock {
    /// The clock's name in exports: `"wall"` or `"logical"`.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Logical => "logical",
        }
    }
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

/// One retained trace event (a structured snapshot row; the public view
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
    /// Recording order: assigned under the collector lock, so it totally
    /// orders the events of all threads (equal to `ts` on the logical
    /// clock).
    pub seq: u64,
}

/// One finished query's events in recording order. The store and the
/// flight recorder share it; neither copies it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tree(Arc<[TraceEvent]>);

impl std::ops::Deref for Tree {
    type Target = [TraceEvent];

    fn deref(&self) -> &[TraceEvent] {
        &self.0
    }
}

/// The trace store: every retained event sits in exactly one of
/// `running`, `finished` and `loose`, and `retained` counts them all.
#[derive(Debug, Default)]
struct Collector {
    /// Running queries' events, by query id.
    running: BTreeMap<u64, Vec<TraceEvent>>,
    /// Finished queries' trees, oldest first; each is non-empty.
    finished: VecDeque<Tree>,
    /// Events outside any query, oldest first.
    loose: VecDeque<TraceEvent>,
    retained: usize,
    /// The next event's sequence number.
    seq: u64,
    /// The last span id handed out (ids start at 1).
    last_span: u64,
    dropped: u64,
    epoch: Option<Instant>,
}

impl Collector {
    /// Makes room for one more event: evicts the oldest finished tree
    /// whole, then the oldest loose events, while the store is at its
    /// bound. `false` (the event is refused) when only running queries
    /// are left.
    fn make_room(&mut self) -> bool {
        while self.retained >= MAX_TRACE_EVENTS {
            let freed = match self.finished.pop_front() {
                Some(tree) => tree.len(),
                None if self.loose.pop_front().is_some() => 1,
                None => {
                    self.count_dropped(1);
                    return false;
                }
            };
            self.retained -= freed;
            self.count_dropped(freed);
        }
        true
    }

    fn count_dropped(&mut self, n: usize) {
        self.dropped += n as u64;
        crate::counter!("qens_trace_dropped_total").add(n as u64);
    }
}

thread_local! {
    /// Open-span stack of this thread (for parent assignment).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's id on wall-clock tracks (`u32::MAX` = unassigned).
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    /// The query this thread's events belong to (`u64::MAX` = none): set
    /// by [`query_span`] on the thread running the query, and by
    /// [`task_scope`] on whichever thread runs one of its pool tasks, so
    /// queries answered side by side keep separate trees.
    static QUERY: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The calling thread's wall-clock track id, handed out once per thread
/// for the life of the process: pool workers outlive any one store, and
/// an id handed out twice would put two threads on one track and break
/// the per-thread stack discipline [`validate_structure`] checks.
fn thread_tid() -> u32 {
    static NEXT_TID: AtomicU32 = AtomicU32::new(0);
    TID.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One handle's trace store and clock switch.
#[derive(Debug, Default)]
pub struct Store {
    /// 0 = off (the start state), 1 = wall, 2 = logical.
    mode: AtomicU8,
    collector: Mutex<Collector>,
}

impl Store {
    /// The trace mode (`None` = disabled).
    #[inline]
    pub fn mode(&self) -> Option<Clock> {
        match self.mode.load(Ordering::Relaxed) {
            1 => Some(Clock::Wall),
            2 => Some(Clock::Logical),
            _ => None,
        }
    }

    /// Turns tracing on (with the given clock) or off. Retained events
    /// stay.
    pub fn set_mode(&self, m: Option<Clock>) {
        let code = match m {
            None => 0,
            Some(Clock::Wall) => 1,
            Some(Clock::Logical) => 2,
        };
        self.mode.store(code, Ordering::Relaxed);
    }

    fn collector(&self) -> MutexGuard<'_, Collector> {
        self.collector.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Events that left the store: evicted once it reached
    /// [`MAX_TRACE_EVENTS`], or refused while running queries alone
    /// filled it.
    pub fn dropped(&self) -> u64 {
        self.collector().dropped
    }

    /// Hands `f` the retained events in recording order, and the
    /// dropped count. Under the lock the finished trees are shared and
    /// the still-running events copied; the merge and `f` run after it
    /// is released.
    fn with_retained<R>(&self, f: impl FnOnce(Vec<&TraceEvent>, u64) -> R) -> R {
        let (trees, open, dropped) = {
            let c = self.collector();
            let trees: Vec<Tree> = c.finished.iter().cloned().collect();
            let running = c.running.values().flatten();
            (
                trees,
                running.chain(&c.loose).cloned().collect::<Vec<_>>(),
                c.dropped,
            )
        };
        let mut events: Vec<&TraceEvent> =
            trees.iter().flat_map(|t| t.iter()).chain(&open).collect();
        events.sort_unstable_by_key(|e| e.seq);
        f(events, dropped)
    }

    /// A structured copy of the retained events, in recording order
    /// (tests, tooling).
    pub fn snapshot_events(&self) -> Vec<TraceEvent> {
        self.with_retained(|events, _| events.into_iter().cloned().collect())
    }

    /// Records one event and returns its span id: `span`, or for a
    /// `Begin` a fresh id assigned under the same lock. The `End` of a
    /// query's root span (`closes_query`) then moves the query's events
    /// into a finished [`Tree`] and returns it too.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        clock: Clock,
        phase: Phase,
        name: &'static str,
        span: u64,
        parent: u64,
        args: Args,
        closes_query: bool,
    ) -> (u64, Option<Tree>) {
        // The wall timestamp must be taken *outside* the collector lock
        // so contention does not skew durations; sequence numbers (the
        // logical ticks) are assigned under the lock (that is what makes
        // them a total order).
        let wall_now = (clock == Clock::Wall).then(Instant::now);
        let tid = wall_now.map_or(0, |_| thread_tid());
        let query = QUERY.with(Cell::get);
        let mut c = self.collector();
        // A span gets its id even when the store refuses its Begin: its
        // End still needs one.
        let span = if phase == Phase::Begin {
            c.last_span += 1;
            c.last_span
        } else {
            span
        };
        if c.make_room() {
            let seq = c.seq;
            c.seq += 1;
            let ts = match wall_now {
                Some(now) => {
                    let epoch = *c.epoch.get_or_insert(now);
                    u64::try_from(now.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
                }
                None => seq,
            };
            let event = TraceEvent {
                name,
                phase,
                ts,
                tid,
                span,
                parent,
                query,
                args,
                seq,
            };
            c.retained += 1;
            if query == u64::MAX {
                c.loose.push_back(event);
            } else {
                c.running.entry(query).or_default().push(event);
            }
            crate::counter!("qens_trace_events_total").incr();
        }
        if !closes_query {
            return (span, None);
        }
        let Some(events) = c.running.remove(&query) else {
            return (span, None);
        };
        let tree = Tree(events.into());
        c.finished.push_back(tree.clone());
        (span, Some(tree))
    }

    /// Renders the store as a Chrome trace-event JSON document
    /// (`{"traceEvents":[…],"displayTimeUnit":…,"otherData":{…}}`),
    /// loadable in Perfetto / `chrome://tracing`. The events are
    /// formatted after the collector lock is released, so recording
    /// never waits on an export.
    ///
    /// Key order, number formatting and event order are all fixed, so
    /// two identical stores export byte-identically —
    /// `results/trace.json` is exactly this, byte-diffed by
    /// `crates/bench/tests/golden_telemetry.rs` and at two pool sizes by
    /// `crates/bench/tests/repro_cli.rs`.
    pub fn export_chrome(&self) -> String {
        // The clock tag in the export comes from the *current* mode; a
        // store filled under two clocks is the caller's error.
        let clock = self.mode().unwrap_or(Clock::Logical);
        self.with_retained(|events, dropped| {
            let mut out = String::with_capacity(256 + events.len() * 96);
            out.push_str(r#"{"traceEvents":["#);
            for (i, e) in events.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                write_event(&mut out, e, clock);
            }
            out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":");
            write_str(&mut out, clock.name());
            out.push_str(r#","dropped":"#);
            write_u64(&mut out, dropped);
            out.push_str("}}");
            out
        })
    }
}

fn current_parent() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Trace name → the `_nanos` histogram a span of that name also fills
/// while telemetry is on. Spans of any other name only trace. The
/// histograms hold the first histogram slots of every registry, in this
/// order.
pub(crate) const SERIES: [(&str, &str); 10] = [
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

/// RAII timing guard with two sinks: a trace `Begin` on creation and
/// the matching `End` on drop while tracing records its site, and the
/// elapsed nanoseconds into the `_nanos` histogram its name maps to while
/// telemetry is on. Both go to the handle current when the span opened,
/// and only while it is still current when the span ends. With no
/// handle entered, or both switches off, it is inert: no clock read, no
/// registry access, nothing on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    id: u64,
    /// The stores the span opened in (an identity, checked on end).
    stores: *const Stores,
    clock: Option<Clock>,
    /// Clear the thread's query on drop (root query spans only).
    owns_query: bool,
    /// The [`SERIES`] slot and the start instant.
    timer: Option<(usize, Instant)>,
}

impl Span {
    fn inert(name: &'static str) -> Self {
        Self {
            name,
            id: 0,
            stores: std::ptr::null(),
            clock: None,
            owns_query: false,
            timer: None,
        }
    }

    /// Opens a span: with no handle entered or its telemetry and tracing
    /// both off, an inlined check and an inert guard; otherwise the
    /// out-of-line [`Span::begin_recording`].
    #[inline]
    fn begin(name: &'static str, args: &[(&'static str, u64)], wall_only: bool) -> Self {
        match crate::with_current(|t| t.enabled() || t.trace.mode().is_some()) {
            Some(true) => Self::begin_recording(name, args, wall_only),
            _ => Self::inert(name),
        }
    }

    fn begin_recording(name: &'static str, args: &[(&'static str, u64)], wall_only: bool) -> Self {
        crate::with_current(|t| {
            let slot = t
                .enabled()
                .then(|| SERIES.iter().position(|&(s, _)| s == name));
            let mut span = Self {
                stores: t,
                timer: slot.flatten().map(|slot| (slot, Instant::now())),
                ..Self::inert(name)
            };
            let Some(clock) = t
                .trace
                .mode()
                .filter(|&c| !(wall_only && c == Clock::Logical))
            else {
                return span;
            };
            (span.id, _) = t.trace.record(
                clock,
                Phase::Begin,
                name,
                0,
                current_parent(),
                Args::from_slice(args),
                false,
            );
            SPAN_STACK.with(|s| s.borrow_mut().push(span.id));
            crate::counter!("qens_trace_spans_total").incr();
            span.clock = Some(clock);
            span
        })
        .unwrap_or_else(|| Self::inert(name))
    }

    /// Whether this span will record anything on drop.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.clock.is_some() || self.timer.is_some()
    }

    /// Ends the span now instead of at scope end.
    pub fn finish(self) {
        drop(self);
    }

    /// Ends the span (once; later calls do nothing): its histogram
    /// sample, then its trace `End`. A root query span also closes its
    /// query and returns the query's finished tree.
    pub(crate) fn end(&mut self) -> Option<Tree> {
        let (timer, clock) = (self.timer.take(), self.clock.take());
        if clock.is_some() {
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
        }
        let tree = crate::with_current(|t| {
            if !std::ptr::eq(t, self.stores) {
                return None;
            }
            if let Some((slot, start)) = timer {
                let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                Histogram::slot(&t.registry, slot).record(nanos);
            }
            let (_, tree) = t.trace.record(
                clock?,
                Phase::End,
                self.name,
                self.id,
                current_parent(),
                Args::default(),
                self.owns_query,
            );
            tree
        });
        if self.owns_query {
            QUERY.with(|q| q.set(u64::MAX));
        }
        tree.flatten()
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.is_recording() {
            self.end();
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
    // "query" span is itself attributed to its query — the finished
    // tree would otherwise miss its root Begin and be unbalanced.
    if crate::with_current(|t| t.trace.mode().is_some()) == Some(true) {
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
/// in both modes) into the current handle's store.
#[inline]
pub fn instant(name: &'static str, args: &[(&'static str, u64)]) {
    crate::with_current(|t| {
        let Some(clock) = t.trace.mode() else { return };
        t.trace.record(
            clock,
            Phase::Instant,
            name,
            0,
            current_parent(),
            Args::from_slice(args),
            false,
        );
    });
}

fn write_event(out: &mut String, e: &TraceEvent, clock: Clock) {
    out.push('{');
    write_key(out, "name");
    write_str(out, e.name);
    out.push_str(r#","cat":"qens","ph":"#);
    write_str(out, e.phase.chrome());
    out.push_str(r#","ts":"#);
    match clock {
        // Logical ticks export verbatim; wall nanos export as integer
        // microseconds with three decimals (Chrome's ts unit is µs).
        Clock::Logical => write_u64(out, e.ts),
        Clock::Wall => out.push_str(&format!("{}.{:03}", e.ts / 1000, e.ts % 1000)),
    }
    out.push_str(r#","pid":0,"tid":"#);
    write_u64(out, u64::from(e.tid));
    if e.phase == Phase::Instant {
        out.push_str(r#","s":"t""#);
    }
    out.push_str(r#","args":{"#);
    // The ids that are set (0 or `u64::MAX` mean unset), then the args.
    let ids = [
        ("span", e.span, 0),
        ("parent", e.parent, 0),
        ("q", e.query, u64::MAX),
    ];
    let ids = ids.into_iter().filter(|&(_, v, unset)| v != unset);
    let fields = ids
        .map(|(k, v, _)| (k, v))
        .chain(e.args.as_slice().iter().copied());
    for (i, (k, v)) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, k);
        write_u64(out, v);
    }
    out.push_str("}}");
}

/// Structural validation of an event stream: every `Begin` has
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
    use crate::Telemetry;

    /// A fresh handle tracing on `clock`.
    fn traced(clock: Option<Clock>) -> Telemetry {
        let tele = Telemetry::new();
        tele.trace().set_mode(clock);
        tele
    }

    #[test]
    fn disabled_trace_is_inert() {
        let tele = traced(None);
        tele.enter(|| {
            let s = span("qens.test.off", &[]);
            assert!(!s.is_recording());
            assert_eq!(s.id, 0);
            drop(s);
            instant("qens.test.off.instant", &[("x", 1)]);
        });
        // With no handle entered, an open handle records nothing either.
        let on = traced(Some(Clock::Logical));
        instant("qens.test.off.instant", &[("x", 1)]);
        drop(span("qens.test.off", &[]));
        for t in [&tele, &on] {
            assert!(t.trace().snapshot_events().is_empty());
            assert_eq!(t.trace().dropped(), 0);
        }
    }

    #[test]
    fn logical_mode_skips_wall_only_sites() {
        let tele = traced(Some(Clock::Logical));
        tele.enter(|| {
            let a = span("a", &[]);
            let w = wall_span("w", &[]);
            assert!(a.is_recording());
            assert!(!w.is_recording());
            drop(w);
            drop(a);
        });
        let events = tele.trace().snapshot_events();
        assert_eq!(events.len(), 2); // a begin + a end only
        assert!(events.iter().all(|e| e.name == "a"));
        // Logical ticks are 0, 1, ... and tid is forced to 0.
        assert_eq!(events[0].ts, 0);
        assert_eq!(events[1].ts, 1);
        assert!(events.iter().all(|e| e.tid == 0));
    }

    /// Every switch setting × both constructors × a mapped and an
    /// unmapped name: the trace sees a pair only where its clock admits
    /// the site, the histogram a sample only while telemetry is on and
    /// the name is mapped, the registry no series while telemetry is
    /// off, and with both off the guard holds no timestamp.
    #[test]
    fn one_guard_feeds_the_trace_and_the_histogram() {
        let (mapped, series_name) = SERIES[0];
        for telemetry in [false, true] {
            for clock in [None, Some(Clock::Wall), Some(Clock::Logical)] {
                for wall_only in [false, true] {
                    for name in [mapped, "qens.test.unmapped"] {
                        let case = format!(
                            "telemetry {telemetry}, clock {clock:?}, wall_only {wall_only}, {name}"
                        );
                        let tele = traced(clock);
                        tele.set_enabled(telemetry);
                        let guard = tele.enter(|| {
                            if wall_only {
                                wall_span(name, &[])
                            } else {
                                span(name, &[])
                            }
                        });
                        let traced = clock.is_some_and(|c| !(wall_only && c == Clock::Logical));
                        let timed = telemetry && name == mapped;
                        assert_eq!(guard.clock.is_some(), traced, "{case}");
                        assert_eq!(guard.timer.is_some(), timed, "{case}");
                        tele.enter(|| drop(guard));
                        let events = tele.trace().snapshot_events().len();
                        assert_eq!(events, if traced { 2 } else { 0 }, "{case}");
                        let samples = tele.snapshot().histogram(series_name).map(|h| h.count);
                        assert_eq!(samples, timed.then_some(1), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn spans_nest_and_instants_inherit_the_parent() {
        let tele = traced(Some(Clock::Logical));
        let root_id = tele.enter(|| {
            let root = span("root", &[]);
            {
                let child = span("child", &[("k", 7)]);
                assert_ne!(child.id, root.id);
                instant("point", &[("v", 3)]);
            }
            root.id
        });
        let events = tele.trace().snapshot_events();
        assert_eq!(events.len(), 5);
        let child_begin = &events[1];
        assert_eq!(child_begin.parent, root_id);
        assert_eq!(child_begin.args.as_slice(), &[("k", 7)]);
        let point = &events[2];
        assert_eq!(point.phase, Phase::Instant);
        assert_eq!(point.parent, child_begin.span);
        validate_structure(&events).expect("nested spans are structurally valid");
    }

    #[test]
    fn query_span_stamps_children_until_dropped() {
        let tele = traced(Some(Clock::Logical));
        tele.enter(|| {
            {
                let _q = query_span(42);
                instant("inside", &[]);
            }
            instant("outside", &[]);
        });
        let events = tele.trace().snapshot_events();
        let inside = events.iter().find(|e| e.name == "inside").unwrap();
        assert_eq!(inside.query, 42);
        let outside = events.iter().find(|e| e.name == "outside").unwrap();
        assert_eq!(outside.query, u64::MAX);
        let root = events.iter().filter(|e| e.name == "query");
        assert!(root.map(|e| e.query).eq([42, 42]));
    }

    #[test]
    fn chrome_export_is_byte_stable_and_balanced() {
        let tele = traced(Some(Clock::Logical));
        tele.enter(|| {
            let _q = query_span(9);
            let _s = span("work", &[("bytes", 128)]);
            instant("fault.dropout", &[("node", 2), ("round", 0)]);
        });
        let a = tele.trace().export_chrome();
        let b = tele.trace().export_chrome();
        assert_eq!(a, b);
        assert!(a.contains(r#""name":"query""#));
        assert!(a.contains(r#""ph":"B""#) && a.contains(r#""ph":"E""#));
        assert!(a.contains(r#""bytes":128"#));
        assert!(a.contains(r#""clock":"logical""#));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn wall_mode_records_worker_sites_with_nanos() {
        let tele = traced(Some(Clock::Wall));
        tele.enter(|| {
            let _s = wall_span("hot", &[]);
            std::hint::black_box(1 + 1);
        });
        let events = tele.trace().snapshot_events();
        assert_eq!(events.len(), 2);
        assert!(events[1].ts >= events[0].ts, "wall time is monotone");
        validate_structure(&events).unwrap();
    }

    /// More than [`MAX_TRACE_EVENTS`] events' worth of wall-traced
    /// queries: the store evicts the oldest queries whole, so the last
    /// (and slowest) query still reaches the flight recorder, the
    /// snapshot and the export, and every tree left is complete.
    #[test]
    fn a_full_store_evicts_whole_old_queries_and_keeps_the_newest() {
        const PER_QUERY: usize = 1024;
        let tele = traced(Some(Clock::Wall));
        let queries = (MAX_TRACE_EVENTS / PER_QUERY + 8) as u64;
        let last = queries - 1;
        tele.enter(|| {
            for id in 0..queries {
                let _q = crate::profile::QueryObserver::begin(id);
                for _ in 0..(PER_QUERY - 2) / 2 {
                    drop(wall_span("work", &[]));
                }
                if id == last {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
            }
        });
        let store = tele.trace();
        let slowest = tele.profile().slowest();
        let events = store.snapshot_events();
        let export = store.export_chrome();
        let (retained, dropped) = (events.len(), store.dropped());
        // The queries ran one after another, so each one's events are a
        // run of the recording order.
        let mut trees: Vec<(u64, Vec<TraceEvent>)> = Vec::new();
        for e in events {
            match trees.last_mut() {
                Some((id, tree)) if *id == e.query => tree.push(e),
                _ => trees.push((e.query, vec![e])),
            }
        }

        let recorded = slowest.iter().find(|e| e.query_id == last);
        let recorded = recorded.expect("the slowest query reaches the flight recorder");
        let (id, tree) = trees.last().expect("the store keeps the newest query");
        assert_eq!(*id, last);
        assert!(
            recorded.events[..] == tree[..],
            "the recorder holds the store's tree"
        );
        assert_eq!(export.matches("\"q\":").count(), retained);
        for (id, events) in &trees {
            validate_structure(events).unwrap_or_else(|e| panic!("query {id}: {e}"));
            assert_eq!((events[0].name, events[0].phase), ("query", Phase::Begin));
            assert_eq!(events.len(), PER_QUERY, "query {id} is kept whole");
        }
        assert!(retained <= MAX_TRACE_EVENTS);
        assert_eq!(retained, trees.len() * PER_QUERY);
        assert_eq!(dropped, (queries as usize * PER_QUERY - retained) as u64);
    }

    /// Regression: a fresh store used to restart thread ids at 0 while
    /// long-lived threads (pool workers) kept theirs, so the first new
    /// thread to record into it shared a track with an old one and
    /// interleaved spans failed the stack check. Ids are process-wide.
    #[test]
    fn clear_never_hands_a_live_threads_id_out_again() {
        let (old, fresh) = (traced(Some(Clock::Wall)), traced(Some(Clock::Wall)));
        let (to_worker, from_main) = std::sync::mpsc::channel::<()>();
        let (to_main, from_worker) = std::sync::mpsc::channel::<()>();
        let worker = {
            let (old, fresh) = (old.clone(), fresh.clone());
            std::thread::spawn(move || {
                old.enter(|| drop(wall_span("before.fresh", &[]))); // takes an id
                to_main.send(()).unwrap();
                from_main.recv().unwrap();
                fresh.enter(|| {
                    let _outer = wall_span("worker.outer", &[]);
                    to_main.send(()).unwrap();
                    from_main.recv().unwrap();
                });
            })
        };
        from_worker.recv().unwrap();
        to_worker.send(()).unwrap();
        from_worker.recv().unwrap();
        // Opened while the worker's span is open, on a thread (a fresh
        // one, spawned here) that has no id yet.
        let inner = fresh.clone();
        std::thread::spawn(move || inner.enter(|| drop(wall_span("fresh.inner", &[]))))
            .join()
            .unwrap();
        to_worker.send(()).unwrap();
        worker.join().unwrap();
        let events = fresh.trace().snapshot_events();
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
            seq: 0,
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

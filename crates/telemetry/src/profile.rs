//! Query profiling on top of the span-tree buffer: folded stacks, a
//! hand-rolled SVG flamegraph, a slow-query flight recorder, and a
//! rolling-window SLO burn-rate tracker.
//!
//! The trace layer ([`crate::trace`]) records *what happened*; this
//! module answers the operator questions that raw span trees cannot:
//!
//! * **Where does the pipeline spend its time?** — [`aggregate`]
//!   collapses the buffered events into per-path statistics
//!   ([`Profile`]): total time, *self* time (total minus child spans)
//!   and call count for every `query;fedlearn.round;…` phase path.
//!   [`to_folded`] renders the classic `flamegraph.pl` folded format;
//!   [`to_svg`] renders a dependency-free SVG flamegraph directly.
//! * **Which queries were the slow ones?** — the [`FlightRecorder`]
//!   keeps the complete span tree of the top-K slowest queries
//!   (slowest first; equal durations break deterministically toward the
//!   lower query id), so the one-in-a-thousand outlier is still fully
//!   inspectable after the fact.
//! * **Are we meeting the latency objective?** — the [`SloTracker`]
//!   classifies every query against a configurable objective and keeps
//!   good/bad counters plus 1x/6x rolling-window burn rates (the
//!   multi-window alerting idiom: a burn rate of 1.0 means the error
//!   budget is being consumed exactly as provisioned).
//!
//! # Clocks and determinism
//!
//! [`aggregate`] works on either trace clock. On the **wall** clock the
//! durations are nanoseconds and include worker spans (`fedlearn.train`,
//! `par.task`); on the **logical** clock they are deterministic ticks,
//! so the folded export and the SVG are *byte-identical for any
//! `QENS_THREADS`* — the same contract as the Chrome trace export,
//! which is what lets `crates/bench/tests/golden_telemetry.rs` diff
//! `results/profile.folded` and `profile.svg` against a fresh run and
//! `crates/bench/tests/repro_cli.rs` diff them at `QENS_THREADS=1` and
//! `4`. The SLO tracker always measures wall time (an objective over
//! logical ticks would be meaningless) and is therefore excluded from
//! the byte-stability contract.
//!
//! # Feeding the profiler
//!
//! [`QueryObserver::begin`] is the single integration point: the
//! federation leader opens one per query, it opens the trace `query`
//! span, and its drop closes that span before it times the query into
//! `qens_fedlearn_run_query_nanos` (while telemetry is on), updates the
//! SLO tracker and offers the query's span tree to the flight recorder.
//! Everything is inert while both telemetry and tracing are disabled.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::{write_f64, write_key, write_str, write_u64};
use crate::trace::{self, Clock, Phase, TraceEvent};

// ---------------------------------------------------------------------------
// Folded-stack aggregation
// ---------------------------------------------------------------------------

/// Per-path timing statistics (one row of a folded profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathStat {
    /// Time spent inside this path, children included.
    pub total: u64,
    /// Time spent inside this path *excluding* child spans.
    pub self_time: u64,
    /// How many spans completed on this path.
    pub count: u64,
}

/// An aggregated profile: phase path (`query;fedlearn.round;…`) →
/// [`PathStat`], in lexicographic path order (a `BTreeMap`, so every
/// rendering below is deterministic given the same events).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// The per-path statistics.
    pub paths: BTreeMap<String, PathStat>,
}

impl Profile {
    /// Sum of root-level (single-segment path) totals — the flamegraph
    /// denominator.
    pub fn root_total(&self) -> u64 {
        self.paths
            .iter()
            .filter(|(p, _)| !p.contains(';'))
            .map(|(_, s)| s.total)
            .sum()
    }

    /// The `n` paths with the largest self time, ties broken by path
    /// (deterministic).
    pub fn top_by_self(&self, n: usize) -> Vec<(&str, PathStat)> {
        let mut rows: Vec<(&str, PathStat)> =
            self.paths.iter().map(|(p, s)| (p.as_str(), *s)).collect();
        rows.sort_by(|a, b| b.1.self_time.cmp(&a.1.self_time).then(a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }
}

/// One span still open while scanning the event stream.
struct OpenSpan {
    path: String,
    start: u64,
    child: u64,
    parent: u64,
}

/// Collapses a trace-event stream into a [`Profile`].
///
/// Parentage follows the recorded `parent` span id (not thread stacks),
/// so wall-mode worker spans whose recording thread had no open span
/// aggregate as root paths — exactly how a sampling profiler would see
/// them. Spans still open at the end of the stream (a truncated buffer)
/// are dropped; an `End` without a matching `Begin` is ignored.
pub fn aggregate(events: &[TraceEvent]) -> Profile {
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    let mut paths: BTreeMap<String, PathStat> = BTreeMap::new();
    for e in events {
        match e.phase {
            Phase::Begin => {
                let path = match open.get(&e.parent) {
                    Some(p) => format!("{};{}", p.path, e.name),
                    None => e.name.to_string(),
                };
                open.insert(
                    e.span,
                    OpenSpan {
                        path,
                        start: e.ts,
                        child: 0,
                        parent: e.parent,
                    },
                );
            }
            Phase::End => {
                let Some(span) = open.remove(&e.span) else {
                    continue;
                };
                let dur = e.ts.saturating_sub(span.start);
                let stat = paths.entry(span.path).or_default();
                stat.total = stat.total.saturating_add(dur);
                stat.self_time = stat
                    .self_time
                    .saturating_add(dur.saturating_sub(span.child));
                stat.count += 1;
                if let Some(parent) = open.get_mut(&span.parent) {
                    parent.child = parent.child.saturating_add(dur);
                }
            }
            Phase::Instant => {}
        }
    }
    Profile { paths }
}

/// Renders a profile in the `flamegraph.pl` folded format: one
/// `path self_time` line per path, lexicographic path order, trailing
/// newline per line. Byte-stable given the same profile.
pub fn to_folded(profile: &Profile) -> String {
    let mut out = String::with_capacity(profile.paths.len() * 48);
    for (path, stat) in &profile.paths {
        out.push_str(path);
        out.push(' ');
        out.push_str(&stat.self_time.to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// SVG flamegraph
// ---------------------------------------------------------------------------

/// Canvas width of the rendered flamegraph in CSS pixels.
const SVG_WIDTH: f64 = 1200.0;
/// Height of one frame row.
const SVG_ROW: f64 = 18.0;
/// Outer margin on every side.
const SVG_PAD: f64 = 10.0;
/// Vertical space reserved for the title line.
const SVG_TITLE: f64 = 26.0;
/// Frames narrower than this many pixels are skipped (unreadable).
const SVG_MIN_W: f64 = 0.3;

/// One node of the flamegraph tree, rebuilt from the flat path map.
#[derive(Debug, Default)]
struct FlameNode {
    stat: PathStat,
    children: BTreeMap<String, FlameNode>,
}

impl FlameNode {
    /// The width-determining value: a node's own total, or the sum of
    /// its children when the node itself never closed (truncated trace).
    fn value(&self) -> u64 {
        let from_children: u64 = self.children.values().map(FlameNode::value).sum();
        self.stat.total.max(from_children)
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FlameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

fn flame_tree(profile: &Profile) -> FlameNode {
    let mut root = FlameNode::default();
    for (path, stat) in &profile.paths {
        let mut node = &mut root;
        for seg in path.split(';') {
            node = node.children.entry(seg.to_string()).or_default();
        }
        node.stat = *stat;
    }
    root
}

/// FNV-1a over the frame name: the deterministic seed of the warm
/// flamegraph palette below.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn frame_color(name: &str) -> String {
    let h = fnv1a(name);
    let r = 200 + (h % 56);
    let g = 60 + ((h >> 8) % 130);
    let b = (h >> 16) % 60;
    format!("rgb({r},{g},{b})")
}

/// Escapes the five XML special characters.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_frame(
    out: &mut String,
    name: &str,
    path: &str,
    node: &FlameNode,
    root_total: u64,
    x: f64,
    depth: usize,
    unit: &str,
) {
    let value = node.value();
    if root_total == 0 {
        return;
    }
    let w = SVG_WIDTH * (value as f64 / root_total as f64);
    if w < SVG_MIN_W {
        return;
    }
    let y = SVG_TITLE + SVG_PAD + depth as f64 * SVG_ROW;
    let pct = 100.0 * value as f64 / root_total as f64;
    out.push_str(&format!(
        "<g><title>{} — total {} {}, self {} {}, {} call{} ({:.2}%)</title>\
         <rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
         fill=\"{}\" rx=\"1\"/>",
        xml_escape(path),
        value,
        unit,
        node.stat.self_time,
        unit,
        node.stat.count,
        if node.stat.count == 1 { "" } else { "s" },
        pct,
        x + SVG_PAD,
        y,
        w,
        SVG_ROW - 1.0,
        frame_color(name),
    ));
    // A label fits roughly every 7 px per character at the 12px font.
    let chars = (w / 7.0) as usize;
    if chars >= 3 {
        let label: String = if name.len() <= chars {
            name.to_string()
        } else {
            let cut: String = name.chars().take(chars.saturating_sub(2)).collect();
            format!("{cut}..")
        };
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"12\" font-family=\"monospace\">{}</text>",
            x + SVG_PAD + 3.0,
            y + SVG_ROW - 5.0,
            xml_escape(&label),
        ));
    }
    out.push_str("</g>\n");
    let mut cx = x;
    for (child_name, child) in &node.children {
        let child_path = format!("{path};{child_name}");
        render_frame(
            out,
            child_name,
            &child_path,
            child,
            root_total,
            cx,
            depth + 1,
            unit,
        );
        cx += SVG_WIDTH * (child.value() as f64 / root_total as f64);
    }
}

/// Renders the profile as a self-contained SVG flamegraph (icicle
/// layout: roots at the top, callees below). No external scripts or
/// fonts; frame order, colors and coordinate formatting are all pure
/// functions of the profile, so two identical profiles render
/// byte-identically.
pub fn to_svg(profile: &Profile, title: &str, unit: &str) -> String {
    let root = flame_tree(profile);
    let root_total = root.value();
    let depth = root.depth().saturating_sub(1).max(1);
    let height = SVG_TITLE + 2.0 * SVG_PAD + depth as f64 * SVG_ROW;
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {:.0} {height:.0}\">\n",
        SVG_WIDTH + 2.0 * SVG_PAD,
        SVG_WIDTH + 2.0 * SVG_PAD,
    ));
    out.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{:.0}\" height=\"{height:.0}\" fill=\"#fdf6ec\"/>\n",
        SVG_WIDTH + 2.0 * SVG_PAD,
    ));
    out.push_str(&format!(
        "<text x=\"{SVG_PAD:.0}\" y=\"18\" font-size=\"14\" font-family=\"monospace\">{} \
         (root total: {root_total} {unit})</text>\n",
        xml_escape(title),
    ));
    let mut x = 0.0;
    for (name, node) in &root.children {
        render_frame(&mut out, name, name, node, root_total, x, 0, unit);
        if root_total > 0 {
            x += SVG_WIDTH * (node.value() as f64 / root_total as f64);
        }
    }
    out.push_str("</svg>\n");
    out
}

// ---------------------------------------------------------------------------
// Slow-query flight recorder
// ---------------------------------------------------------------------------

/// Retained-query capacity of the global flight recorder.
pub const DEFAULT_FLIGHT_K: usize = 8;

/// One retained slow query: its id, end-to-end duration (nanoseconds on
/// the wall clock, tick span on the logical clock) and complete span
/// tree.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// The query id.
    pub query_id: u64,
    /// End-to-end duration in the clock's unit.
    pub duration: u64,
    /// `"wall"` or `"logical"` — which clock produced `duration`.
    pub clock: &'static str,
    /// The query's complete buffered span tree (begin/end/instants).
    pub events: Vec<TraceEvent>,
}

/// A fixed-capacity recorder of the K slowest queries seen so far.
///
/// Ordering is deterministic: slowest first, equal durations break
/// toward the **lower query id** (so re-runs at different thread counts
/// under the logical clock retain an identical set, in an identical
/// order). Re-offering a retained query id keeps whichever observation
/// was slower.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    entries: Vec<FlightEntry>,
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` queries (`cap` 0 records
    /// nothing).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            entries: Vec::new(),
        }
    }

    /// The retained queries, slowest first.
    pub fn entries(&self) -> &[FlightEntry] {
        &self.entries
    }

    /// Offers one completed query. Returns `true` when the query is
    /// retained (inserted or updated), `false` when it was too fast.
    pub fn offer(&mut self, entry: FlightEntry) -> bool {
        if self.cap == 0 {
            return false;
        }
        let qid = entry.query_id;
        if let Some(existing) = self.entries.iter_mut().find(|e| e.query_id == qid) {
            if entry.duration > existing.duration {
                *existing = entry;
                self.sort();
            }
            return true;
        }
        self.entries.push(entry);
        self.sort();
        if self.entries.len() > self.cap {
            self.entries.truncate(self.cap);
            // The offered entry may itself have been the one evicted.
            return self.entries.iter().any(|e| e.query_id == qid);
        }
        true
    }

    fn sort(&mut self) {
        self.entries.sort_by(|a, b| {
            b.duration
                .cmp(&a.duration)
                .then(a.query_id.cmp(&b.query_id))
        });
    }

    /// Drops every retained query.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

fn recorder() -> MutexGuard<'static, FlightRecorder> {
    static RECORDER: OnceLock<Mutex<FlightRecorder>> = OnceLock::new();
    RECORDER
        .get_or_init(|| Mutex::new(FlightRecorder::new(DEFAULT_FLIGHT_K)))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// A copy of the globally retained slowest queries, slowest first.
pub fn slowest() -> Vec<FlightEntry> {
    recorder().entries().to_vec()
}

/// Renders the global flight recorder as a JSON document with a fixed
/// key order:
///
/// ```json
/// {"slowest":[{"query_id":3,"clock":"logical","duration":120,
///   "events":64,"phases":[{"path":"query;fedlearn.select","total":9,
///   "self":4,"count":1}, …]}, …]}
/// ```
///
/// Each entry's `phases` array is the folded profile of that single
/// query's span tree.
pub fn slowest_to_json() -> String {
    let entries = slowest();
    let mut out = String::with_capacity(256 + entries.len() * 256);
    out.push('{');
    write_key(&mut out, "slowest");
    out.push('[');
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        write_key(&mut out, "query_id");
        write_u64(&mut out, e.query_id);
        out.push(',');
        write_key(&mut out, "clock");
        write_str(&mut out, e.clock);
        out.push(',');
        write_key(&mut out, "duration");
        write_u64(&mut out, e.duration);
        out.push(',');
        write_key(&mut out, "events");
        write_u64(&mut out, e.events.len() as u64);
        out.push(',');
        write_key(&mut out, "phases");
        out.push('[');
        let profile = aggregate(&e.events);
        for (j, (path, stat)) in profile.paths.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('{');
            write_key(&mut out, "path");
            write_str(&mut out, path);
            out.push(',');
            write_key(&mut out, "total");
            write_u64(&mut out, stat.total);
            out.push(',');
            write_key(&mut out, "self");
            write_u64(&mut out, stat.self_time);
            out.push(',');
            write_key(&mut out, "count");
            write_u64(&mut out, stat.count);
            out.push('}');
        }
        out.push(']');
        out.push('}');
    }
    out.push(']');
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// SLO burn-rate tracking
// ---------------------------------------------------------------------------

/// The latency objective the tracker classifies queries against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// A query is *good* when its end-to-end wall time is at or under
    /// this many nanoseconds.
    pub objective_nanos: u64,
    /// The availability target (e.g. `0.99` = 1% error budget).
    pub target: f64,
    /// The fast (1x) window length in queries; the slow window is 6x.
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            objective_nanos: 250_000_000, // 250 ms
            target: 0.99,
            window: 64,
        }
    }
}

/// Rolling-window SLO tracking over per-query end-to-end latencies.
///
/// Keeps lifetime good/bad totals plus a circular ring of the last
/// `6 × window` verdicts, from which the 1x (last `window` queries) and
/// 6x (last `6 × window`) burn rates are computed:
///
/// ```text
/// burn_rate = bad_fraction_in_window / (1 - target)
/// ```
///
/// A burn rate of 1.0 consumes the error budget exactly as provisioned;
/// sustained values above ~1 on the 6x window or spikes above ~6 on the
/// 1x window are the classic paging thresholds.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    ring: Vec<bool>,
    next: usize,
    len: usize,
    good_total: u64,
    bad_total: u64,
}

impl SloTracker {
    /// A fresh tracker for `cfg`.
    pub fn new(cfg: SloConfig) -> Self {
        let cap = cfg.window.max(1) * 6;
        Self {
            cfg,
            ring: vec![false; cap],
            next: 0,
            len: 0,
            good_total: 0,
            bad_total: 0,
        }
    }

    /// The configured objective.
    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Classifies one query latency; returns `true` when it met the
    /// objective.
    pub fn observe(&mut self, nanos: u64) -> bool {
        let good = nanos <= self.cfg.objective_nanos;
        let cap = self.ring.len();
        self.ring[self.next] = good;
        self.next = (self.next + 1) % cap;
        self.len = (self.len + 1).min(cap);
        if good {
            self.good_total = self.good_total.saturating_add(1);
        } else {
            self.bad_total = self.bad_total.saturating_add(1);
        }
        good
    }

    /// Lifetime queries meeting the objective.
    pub fn good_total(&self) -> u64 {
        self.good_total
    }

    /// Lifetime queries missing the objective.
    pub fn bad_total(&self) -> u64 {
        self.bad_total
    }

    /// Queries currently held in the ring (saturates at `6 × window`).
    pub fn observed(&self) -> usize {
        self.len
    }

    /// `(bad, considered)` over the most recent `n` verdicts.
    fn bad_in_last(&self, n: usize) -> (usize, usize) {
        let considered = n.min(self.len);
        let cap = self.ring.len();
        let bad = (0..considered)
            .filter(|i| !self.ring[(self.next + cap - 1 - i) % cap])
            .count();
        (bad, considered)
    }

    fn burn_rate_over(&self, n: usize) -> f64 {
        let (bad, considered) = self.bad_in_last(n);
        if considered == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.cfg.target).max(1e-9);
        (bad as f64 / considered as f64) / budget
    }

    /// Burn rate over the last `window` queries.
    pub fn burn_rate_1x(&self) -> f64 {
        self.burn_rate_over(self.cfg.window)
    }

    /// Burn rate over the last `6 × window` queries.
    pub fn burn_rate_6x(&self) -> f64 {
        self.burn_rate_over(self.cfg.window * 6)
    }

    /// Forgets every verdict and zeroes the lifetime totals; the
    /// configuration is kept.
    pub fn reset(&mut self) {
        self.ring.fill(false);
        self.next = 0;
        self.len = 0;
        self.good_total = 0;
        self.bad_total = 0;
    }
}

fn slo() -> MutexGuard<'static, SloTracker> {
    static SLO: OnceLock<Mutex<SloTracker>> = OnceLock::new();
    SLO.get_or_init(|| Mutex::new(SloTracker::new(SloConfig::default())))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Feeds one end-to-end query latency (wall nanoseconds) into the
/// global SLO tracker and mirrors the result into the metric registry:
/// `qens_slo_good_total` / `qens_slo_bad_total` counters and the
/// `qens_slo_burn_rate_1x` / `qens_slo_burn_rate_6x` /
/// `qens_slo_objective_seconds` gauges. The counters and gauges are
/// inert while telemetry is disabled; the tracker itself always
/// records.
pub fn observe_query(nanos: u64) {
    let (good, b1, b6, objective) = {
        let mut t = slo();
        let good = t.observe(nanos);
        (
            good,
            t.burn_rate_1x(),
            t.burn_rate_6x(),
            t.config().objective_nanos,
        )
    };
    if good {
        crate::counter!("qens_slo_good_total").incr();
    } else {
        crate::counter!("qens_slo_bad_total").incr();
    }
    crate::gauge!("qens_slo_burn_rate_1x").set(b1);
    crate::gauge!("qens_slo_burn_rate_6x").set(b6);
    crate::gauge!("qens_slo_objective_seconds").set(objective as f64 / 1e9);
}

/// A point-in-time copy of the global SLO state (for `/slo` and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloView {
    /// The active configuration.
    pub config: SloConfig,
    /// Lifetime good queries.
    pub good_total: u64,
    /// Lifetime bad queries.
    pub bad_total: u64,
    /// Verdicts currently in the ring.
    pub observed: usize,
    /// Fast-window burn rate.
    pub burn_rate_1x: f64,
    /// Slow-window burn rate.
    pub burn_rate_6x: f64,
}

/// Reads the global tracker.
pub fn slo_view() -> SloView {
    let t = slo();
    SloView {
        config: t.config(),
        good_total: t.good_total(),
        bad_total: t.bad_total(),
        observed: t.observed(),
        burn_rate_1x: t.burn_rate_1x(),
        burn_rate_6x: t.burn_rate_6x(),
    }
}

/// Renders the global SLO state as a JSON document with a fixed key
/// order:
///
/// ```json
/// {"objective_nanos":250000000,"target":0.99,"window":64,
///  "observed":12,"good_total":11,"bad_total":1,
///  "burn_rate_1x":8.33,"burn_rate_6x":8.33}
/// ```
pub fn slo_to_json() -> String {
    let v = slo_view();
    let mut out = String::with_capacity(192);
    out.push('{');
    write_key(&mut out, "objective_nanos");
    write_u64(&mut out, v.config.objective_nanos);
    out.push(',');
    write_key(&mut out, "target");
    write_f64(&mut out, v.config.target);
    out.push(',');
    write_key(&mut out, "window");
    write_u64(&mut out, v.config.window as u64);
    out.push(',');
    write_key(&mut out, "observed");
    write_u64(&mut out, v.observed as u64);
    out.push(',');
    write_key(&mut out, "good_total");
    write_u64(&mut out, v.good_total);
    out.push(',');
    write_key(&mut out, "bad_total");
    write_u64(&mut out, v.bad_total);
    out.push(',');
    write_key(&mut out, "burn_rate_1x");
    write_f64(&mut out, v.burn_rate_1x);
    out.push(',');
    write_key(&mut out, "burn_rate_6x");
    write_f64(&mut out, v.burn_rate_6x);
    out.push('}');
    out
}

/// Clears the global flight recorder and SLO tracker (fresh profiling
/// pass; configurations are kept).
pub fn reset() {
    recorder().clear();
    slo().reset();
}

// ---------------------------------------------------------------------------
// Per-query integration point
// ---------------------------------------------------------------------------

/// RAII guard around one query: the root of its trace tree and the
/// observer of its end-to-end latency.
///
/// `begin` opens the trace `query` span, so every event until the drop
/// is stamped with the query id. The drop closes that span first, so
/// its `End` event is buffered, then records the query's nanoseconds
/// into `qens_fedlearn_run_query_nanos` while telemetry is on, feeds
/// the SLO tracker and offers the query's complete span tree to the
/// flight recorder. Inert (no clock read) while both telemetry and
/// tracing are disabled.
#[derive(Debug)]
pub struct QueryObserver {
    query_id: u64,
    start: Option<Instant>,
    span: Option<trace::Span>,
}

impl QueryObserver {
    /// Starts observing `query_id` and opens its trace `query` span.
    pub fn begin(query_id: u64) -> Self {
        // The fleet registry counts queries here — every run_query path
        // opens exactly one observer (batch waves count their own).
        crate::emit(&crate::Event::QueryObserved(query_id));
        let active = crate::enabled() || trace::is_enabled();
        Self {
            query_id,
            start: active.then(Instant::now),
            span: Some(trace::query_span(query_id)),
        }
    }
}

impl Drop for QueryObserver {
    fn drop(&mut self) {
        drop(self.span.take());
        let Some(start) = self.start else { return };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if crate::enabled() {
            crate::histogram!("qens_fedlearn_run_query_nanos").record(nanos);
        }
        observe_query(nanos);
        let Some(clock) = trace::mode() else { return };
        let events = trace::snapshot_query(self.query_id);
        if events.is_empty() {
            return;
        }
        // On the logical clock the duration is the query's tick span —
        // a pure function of the simulation, so the recorder's top-K
        // set and order are thread-count independent.
        let (duration, clock_name) = match clock {
            Clock::Wall => (nanos, "wall"),
            Clock::Logical => {
                let min = events.iter().map(|e| e.ts).min().unwrap_or(0);
                let max = events.iter().map(|e| e.ts).max().unwrap_or(0);
                (max - min + 1, "logical")
            }
        };
        recorder().offer(FlightEntry {
            query_id: self.query_id,
            duration,
            clock: clock_name,
            events,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Args;

    fn ev(phase: Phase, name: &'static str, ts: u64, span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            name,
            phase,
            ts,
            tid: 0,
            span,
            parent,
            query: u64::MAX,
            args: Args::default(),
        }
    }

    /// query(0..10) { select(1..3), round(4..9) { agg(5..7) } }
    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev(Phase::Begin, "query", 0, 1, 0),
            ev(Phase::Begin, "select", 1, 2, 1),
            ev(Phase::End, "select", 3, 2, 1),
            ev(Phase::Begin, "round", 4, 3, 1),
            ev(Phase::Begin, "agg", 5, 4, 3),
            ev(Phase::Instant, "fault", 6, 0, 4),
            ev(Phase::End, "agg", 7, 4, 3),
            ev(Phase::End, "round", 9, 3, 1),
            ev(Phase::End, "query", 10, 1, 0),
        ]
    }

    #[test]
    fn aggregate_computes_self_and_total() {
        let p = aggregate(&sample_events());
        let q = p.paths.get("query").unwrap();
        assert_eq!(q.total, 10);
        // query self = 10 - select(2) - round(5) = 3.
        assert_eq!(q.self_time, 3);
        assert_eq!(q.count, 1);
        let round = p.paths.get("query;round").unwrap();
        assert_eq!(round.total, 5);
        assert_eq!(round.self_time, 3); // 5 - agg(2)
        let agg = p.paths.get("query;round;agg").unwrap();
        assert_eq!(agg.total, 2);
        assert_eq!(agg.self_time, 2);
        assert_eq!(p.root_total(), 10);
    }

    #[test]
    fn aggregate_tolerates_truncated_streams() {
        // Begin without End: dropped. End without Begin: ignored.
        let events = vec![
            ev(Phase::Begin, "open_forever", 0, 1, 0),
            ev(Phase::End, "never_began", 1, 99, 0),
        ];
        let p = aggregate(&events);
        assert!(p.paths.is_empty());
    }

    #[test]
    fn folded_is_sorted_and_byte_stable() {
        let p = aggregate(&sample_events());
        let a = to_folded(&p);
        let b = to_folded(&p);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "query 3\nquery;round 3\nquery;round;agg 2\nquery;select 2\n"
        );
    }

    #[test]
    fn svg_renders_every_visible_frame_byte_stably() {
        let p = aggregate(&sample_events());
        let a = to_svg(&p, "test profile", "ticks");
        let b = to_svg(&p, "test profile", "ticks");
        assert_eq!(a, b);
        assert!(a.starts_with("<svg "));
        assert!(a.trim_end().ends_with("</svg>"));
        for name in ["query", "round", "agg", "select"] {
            assert!(a.contains(&format!(">{name}<")) || a.contains(name));
        }
        // Tooltips carry the full path and both time flavours.
        assert!(a.contains("query;round;agg"));
        assert!(a.contains("self 3 ticks"));
        // Balanced markup.
        assert_eq!(a.matches("<g>").count(), a.matches("</g>").count());
    }

    #[test]
    fn svg_escapes_markup_in_titles() {
        let p = aggregate(&sample_events());
        let svg = to_svg(&p, "a <b> & \"c\"", "ticks");
        assert!(svg.contains("a &lt;b&gt; &amp; &quot;c&quot;"));
    }

    #[test]
    fn flight_recorder_orders_and_ties_deterministically() {
        let mut r = FlightRecorder::new(3);
        let entry = |id, dur| FlightEntry {
            query_id: id,
            duration: dur,
            clock: "logical",
            events: Vec::new(),
        };
        assert!(r.offer(entry(5, 100)));
        assert!(r.offer(entry(2, 100))); // tie: lower id first
        assert!(r.offer(entry(9, 300)));
        let ids: Vec<u64> = r.entries().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![9, 2, 5]);
        // Capacity eviction: a slower query pushes the tail out…
        assert!(r.offer(entry(1, 200)));
        let ids: Vec<u64> = r.entries().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![9, 1, 2]);
        // …and a faster one is rejected outright.
        r.offer(entry(7, 50));
        let ids: Vec<u64> = r.entries().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![9, 1, 2]);
        // Re-offering a retained id keeps the slower observation.
        assert!(r.offer(entry(2, 500)));
        let top = &r.entries()[0];
        assert_eq!((top.query_id, top.duration), (2, 500));
    }

    #[test]
    fn flight_recorder_zero_capacity_records_nothing() {
        let mut r = FlightRecorder::new(0);
        assert!(!r.offer(FlightEntry {
            query_id: 1,
            duration: 1,
            clock: "wall",
            events: Vec::new(),
        }));
        assert!(r.entries().is_empty());
    }

    #[test]
    fn slo_tracker_burn_rates_roll_across_window_boundaries() {
        let cfg = SloConfig {
            objective_nanos: 100,
            target: 0.9, // 10% budget
            window: 2,   // ring holds 12
        };
        let mut t = SloTracker::new(cfg);
        assert_eq!(t.burn_rate_1x(), 0.0, "empty tracker burns nothing");
        // One good, one bad: 1x window = [good, bad] -> 50% bad / 10%.
        assert!(t.observe(50));
        assert!(!t.observe(150));
        assert_eq!(t.good_total(), 1);
        assert_eq!(t.bad_total(), 1);
        assert!((t.burn_rate_1x() - 5.0).abs() < 1e-9);
        // Two more good: the bad verdict leaves the 1x window…
        assert!(t.observe(50));
        assert!(t.observe(50));
        assert_eq!(t.burn_rate_1x(), 0.0);
        // …but stays in the 6x window (4 observed, 1 bad -> 25%/10%).
        assert!((t.burn_rate_6x() - 2.5).abs() < 1e-9);
        // Fill the ring past capacity with good verdicts: the bad one
        // eventually rolls off the 6x window too.
        for _ in 0..12 {
            t.observe(50);
        }
        assert_eq!(t.observed(), 12, "ring saturates at 6x window");
        assert_eq!(t.burn_rate_6x(), 0.0);
        assert_eq!(t.bad_total(), 1, "lifetime totals never roll off");
        t.reset();
        assert_eq!(t.observed(), 0);
        assert_eq!(t.good_total(), 0);
    }

    #[test]
    fn slo_all_bad_pegs_the_burn_rate_at_budget_inverse() {
        let cfg = SloConfig {
            objective_nanos: 10,
            target: 0.99,
            window: 4,
        };
        let mut t = SloTracker::new(cfg);
        for _ in 0..4 {
            t.observe(1_000);
        }
        // 100% bad over a 1% budget = burn rate 100.
        assert!((t.burn_rate_1x() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn slo_config_env_parsing_rejects_nonsense() {
        // The global tracker runs on these defaults.
        let d = SloConfig::default();
        assert_eq!(d.objective_nanos, 250_000_000);
        assert!((d.target - 0.99).abs() < 1e-12);
        assert_eq!(d.window, 64);
    }

    #[test]
    fn slo_json_has_fixed_key_order() {
        let doc = slo_to_json();
        let o = doc.find("\"objective_nanos\"").unwrap();
        let t = doc.find("\"target\"").unwrap();
        let b1 = doc.find("\"burn_rate_1x\"").unwrap();
        let b6 = doc.find("\"burn_rate_6x\"").unwrap();
        assert!(o < t && t < b1 && b1 < b6);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
    }
}

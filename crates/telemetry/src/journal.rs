//! A bounded structured event journal: the fleet's flight log.
//!
//! Where [`crate::trace`] records *spans* (how long things took) and
//! [`crate::fleet`] records *totals* (how often things happened per
//! node), the journal records *incidents*: a fixed-capacity ring of
//! typed events — who was selected, who dropped, who got promoted, what
//! was shed — each attributed to a query and (where meaningful) a node,
//! and stamped with both clocks:
//!
//! * a **logical tick** — one per event, assigned in recording order.
//!   Every recording site sits in leader-serial code whose execution
//!   order is a pure function of the simulation, so the tick sequence
//!   (and the logical JSONL export) is bit-identical at any
//!   `QENS_THREADS` — the same stability contract as
//!   `faults::FaultTrace` and the logical trace clock.
//! * **wall nanoseconds** since the journal epoch (the first event) —
//!   live-debugging context, excluded from the logical export.
//!
//! The ring holds [`DEFAULT_CAPACITY`] events (override with
//! [`set_capacity`]); once full, the *oldest* event is overwritten — a
//! journal answers "what just happened", so the tail survives, and
//! [`overwritten`] counts what the ring forgot.
//!
//! Recording is gated on [`crate::fleet::enabled`]: the disabled fast
//! path is one relaxed atomic load, and a disabled run records nothing
//! — byte-identical to a build without this module.
//!
//! # Export
//!
//! [`to_jsonl`] renders events as JSON lines with a fixed key order
//! (`{"tick":…,"kind":"node_dropped","query":…,"node":…,…}`), one
//! event per line, oldest first. Under [`Clock::Logical`] the output is
//! byte-stable; under [`Clock::Wall`] each line additionally carries
//! `"wall_nanos"`.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::{write_key, write_str, write_u64};
use crate::trace::Clock;

/// Default ring capacity (events held before the oldest is overwritten).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Sentinel for "no query/node attribution" (omitted from the export).
pub const NONE: u64 = u64::MAX;

/// Maximum kind-specific `(key, value)` arguments one event carries.
pub const MAX_ARGS: usize = 2;

/// The typed event vocabulary. Tags ([`Kind::name`]) are stable: they
/// are part of the JSONL format and the Prometheus/docs surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A node made a query's participant list.
    NodeSelected,
    /// A participant left the cohort (dropout, crash or transfer
    /// failure — the `cause` detail says which).
    NodeDropped,
    /// A straggler blew the leader's deadline and its round was
    /// discarded.
    StragglerDeadline,
    /// A ranked standby was promoted into the cohort.
    StandbyPromoted,
    /// A round finished below quorum with no standby left to promote.
    QuorumLost,
    /// The selection memo was dropped after summary epochs moved
    /// under it.
    CacheInvalidated,
    /// The serving batcher shed a query that aged past its deadline.
    AdmissionShed,
}

impl Kind {
    /// The stable lowercase tag used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NodeSelected => "node_selected",
            Kind::NodeDropped => "node_dropped",
            Kind::StragglerDeadline => "straggler_deadline",
            Kind::StandbyPromoted => "standby_promoted",
            Kind::QuorumLost => "quorum_lost",
            Kind::CacheInvalidated => "cache_invalidated",
            Kind::AdmissionShed => "admission_shed",
        }
    }
}

/// One journal entry (the public view for tests and endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Logical tick: one per event, assigned in recording order.
    pub tick: u64,
    /// Wall nanoseconds since the journal epoch (first event = 0).
    pub wall_nanos: u64,
    /// Event type.
    pub kind: Kind,
    /// Owning query id ([`NONE`] = unattributed).
    pub query: u64,
    /// Subject node index ([`NONE`] = fleet-level event).
    pub node: u64,
    /// Optional static `(key, value)` string detail (`("", "")` = none),
    /// e.g. `("cause", "dropout")`.
    pub detail: (&'static str, &'static str),
    /// Kind-specific static-key numeric arguments.
    pub args: [(&'static str, u64); MAX_ARGS],
    /// Populated prefix length of `args`.
    pub args_len: u8,
}

impl Event {
    /// The populated argument pairs.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.args_len as usize]
    }
}

struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    next_tick: u64,
    overwritten: u64,
    epoch: Option<Instant>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::new(),
            capacity,
            next_tick: 0,
            overwritten: 0,
            epoch: None,
        }
    }
}

fn ring() -> MutexGuard<'static, Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring::new(DEFAULT_CAPACITY)))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Discards every event and resets ticks, the epoch and the
/// overwritten counter. Capacity is left untouched.
pub fn clear() {
    let mut r = ring();
    let cap = r.capacity;
    *r = Ring::new(cap);
}

/// Replaces the ring capacity and clears the journal (entries recorded
/// under the old bound would make the tail semantics ambiguous).
///
/// # Panics
/// Panics if `capacity` is 0.
pub fn set_capacity(capacity: usize) {
    assert!(capacity > 0, "journal capacity must be non-zero");
    *ring() = Ring::new(capacity);
}

/// Events currently held (≤ capacity).
pub fn len() -> usize {
    ring().events.len()
}

/// Events ever recorded (monotonic; survives ring wrap-around).
pub fn events_total() -> u64 {
    ring().next_tick
}

/// Events the ring overwrote to make room for newer ones.
pub fn overwritten() -> u64 {
    ring().overwritten
}

/// The last `n` events (all of them when `None`), oldest first.
pub fn tail(n: Option<usize>) -> Vec<Event> {
    let r = ring();
    let take = n.unwrap_or(r.events.len()).min(r.events.len());
    r.events
        .iter()
        .skip(r.events.len() - take)
        .copied()
        .collect()
}

fn record(
    kind: Kind,
    query: u64,
    node: u64,
    detail: (&'static str, &'static str),
    extra: &[(&'static str, u64)],
) {
    if !crate::fleet::enabled() {
        return;
    }
    // The wall stamp is taken outside the lock (contention must not
    // skew it); the tick is assigned under the lock, which is what
    // makes it a total order.
    let now = Instant::now();
    let mut args = [("", 0u64); MAX_ARGS];
    let args_len = extra.len().min(MAX_ARGS);
    args[..args_len].copy_from_slice(&extra[..args_len]);
    let mut r = ring();
    let epoch = *r.epoch.get_or_insert(now);
    let wall_nanos = u64::try_from(now.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    let tick = r.next_tick;
    r.next_tick += 1;
    if r.events.len() >= r.capacity {
        r.events.pop_front();
        r.overwritten += 1;
    }
    r.events.push_back(Event {
        tick,
        wall_nanos,
        kind,
        query,
        node,
        detail,
        args,
        args_len: args_len as u8,
    });
}

/// A node made `query`'s participant list at rank position `rank`
/// (0 = best).
pub fn node_selected(query: u64, node: u64, rank: u64) {
    record(Kind::NodeSelected, query, node, ("", ""), &[("rank", rank)]);
}

/// A participant left the cohort in `round`; `cause` is one of
/// `"dropout"`, `"crash"`, `"transfer"`.
pub fn node_dropped(query: u64, node: u64, round: u64, cause: &'static str) {
    record(
        Kind::NodeDropped,
        query,
        node,
        ("cause", cause),
        &[("round", round)],
    );
}

/// A straggler missed the leader's deadline in `round`.
pub fn straggler_deadline(query: u64, node: u64, round: u64) {
    record(
        Kind::StragglerDeadline,
        query,
        node,
        ("", ""),
        &[("round", round)],
    );
}

/// A ranked standby was promoted into the cohort in `round`.
pub fn standby_promoted(query: u64, node: u64, round: u64) {
    record(
        Kind::StandbyPromoted,
        query,
        node,
        ("", ""),
        &[("round", round)],
    );
}

/// `query`'s round finished with `survivors` reporters and no standby
/// left to promote.
pub fn quorum_lost(query: u64, round: u64, survivors: u64) {
    record(
        Kind::QuorumLost,
        query,
        NONE,
        ("", ""),
        &[("round", round), ("survivors", survivors)],
    );
}

/// The selection memo was dropped at `query`'s lookup because
/// `stale_nodes` nodes' summary epochs had moved.
pub fn cache_invalidated(query: u64, stale_nodes: u64) {
    record(
        Kind::CacheInvalidated,
        query,
        NONE,
        ("", ""),
        &[("stale_nodes", stale_nodes)],
    );
}

/// The serving batcher shed `query` after it aged `age_ms` in the
/// ingestion queue.
pub fn admission_shed(query: u64, age_ms: u64) {
    record(
        Kind::AdmissionShed,
        query,
        NONE,
        ("", ""),
        &[("age_ms", age_ms)],
    );
}

fn write_event(out: &mut String, e: &Event, clock: Clock) {
    out.push('{');
    write_key(out, "tick");
    write_u64(out, e.tick);
    if clock == Clock::Wall {
        out.push(',');
        write_key(out, "wall_nanos");
        write_u64(out, e.wall_nanos);
    }
    out.push(',');
    write_key(out, "kind");
    write_str(out, e.kind.name());
    if e.query != NONE {
        out.push(',');
        write_key(out, "query");
        write_u64(out, e.query);
    }
    if e.node != NONE {
        out.push(',');
        write_key(out, "node");
        write_u64(out, e.node);
    }
    if !e.detail.0.is_empty() {
        out.push(',');
        write_key(out, e.detail.0);
        write_str(out, e.detail.1);
    }
    for &(k, v) in e.args() {
        out.push(',');
        write_key(out, k);
        write_u64(out, v);
    }
    out.push('}');
    out.push('\n');
}

/// Renders the last `tail_n` events (all when `None`) as JSON lines,
/// oldest first. Key order is fixed; under [`Clock::Logical`] every
/// field is deterministic, so the export is byte-stable for any
/// `QENS_THREADS` — `scripts/verify.sh` byte-diffs exactly this.
pub fn to_jsonl(clock: Clock, tail_n: Option<usize>) -> String {
    let events = tail(tail_n);
    let mut out = String::with_capacity(events.len() * 96);
    for e in &events {
        write_event(&mut out, e, clock);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = crate::test_lock();
        crate::fleet::set_enabled(true);
        set_capacity(DEFAULT_CAPACITY);
        g
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let _g = locked();
        crate::fleet::set_enabled(false);
        node_selected(1, 2, 0);
        quorum_lost(1, 0, 1);
        assert_eq!(len(), 0);
        assert_eq!(events_total(), 0);
        crate::fleet::set_enabled(true);
    }

    #[test]
    fn events_carry_typed_fields_and_ticks() {
        let _g = locked();
        node_selected(7, 3, 1);
        node_dropped(7, 3, 0, "dropout");
        admission_shed(9, 125);
        let events = tail(None);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].tick, 0);
        assert_eq!(events[1].tick, 1);
        assert_eq!(events[1].kind, Kind::NodeDropped);
        assert_eq!(events[1].detail, ("cause", "dropout"));
        assert_eq!(events[1].args(), &[("round", 0)]);
        assert_eq!(events[2].node, NONE);
        assert_eq!(events[2].args(), &[("age_ms", 125)]);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_the_tail() {
        let _g = locked();
        set_capacity(3);
        for q in 0..5u64 {
            node_selected(q, 0, 0);
        }
        assert_eq!(len(), 3);
        assert_eq!(overwritten(), 2);
        assert_eq!(events_total(), 5);
        let ticks: Vec<u64> = tail(None).iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
        let last_two: Vec<u64> = tail(Some(2)).iter().map(|e| e.tick).collect();
        assert_eq!(last_two, vec![3, 4]);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn logical_export_is_byte_stable_and_omits_wall() {
        let _g = locked();
        standby_promoted(4, 2, 1);
        quorum_lost(4, 1, 0);
        cache_invalidated(5, 2);
        let a = to_jsonl(Clock::Logical, None);
        let b = to_jsonl(Clock::Logical, None);
        assert_eq!(a, b);
        assert!(a.contains(r#""kind":"standby_promoted""#));
        assert!(a.contains(r#""kind":"quorum_lost""#));
        assert!(a.contains(r#""survivors":0"#));
        assert!(a.contains(r#""stale_nodes":2"#));
        assert!(!a.contains("wall_nanos"));
        assert_eq!(a.lines().count(), 3);
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        // The wall export carries the extra stamp on every line.
        let w = to_jsonl(Clock::Wall, None);
        assert_eq!(w.matches("\"wall_nanos\":").count(), 3);
    }

    #[test]
    fn tail_bound_limits_the_export() {
        let _g = locked();
        for q in 0..10u64 {
            straggler_deadline(q, 1, 0);
        }
        let doc = to_jsonl(Clock::Logical, Some(4));
        assert_eq!(doc.lines().count(), 4);
        assert!(doc.starts_with(r#"{"tick":6"#));
    }
}

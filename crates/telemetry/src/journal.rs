//! A bounded structured event journal: the fleet's flight log.
//!
//! Where [`crate::trace`] records *spans* (how long things took) and
//! [`crate::fleet`] records *totals* (how often things happened per
//! node), the journal records *incidents*: a fixed-capacity ring of the
//! [`Event`]s that name one — who was selected, who dropped, who got
//! promoted, what was shed — each attributed to a query and (where
//! meaningful) a node, and stamped with both clocks:
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
//! [`crate::emit`] feeds the journal while [`crate::fleet::enabled`]:
//! the disabled fast path is one relaxed atomic load, and a disabled run
//! records nothing — byte-identical to a build without this module.
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
use crate::Event;

/// Default ring capacity (events held before the oldest is overwritten).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One journal entry: an [`Event`] stamped with both clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Logical tick: one per entry, assigned in recording order.
    pub tick: u64,
    /// Wall nanoseconds since the journal epoch (first entry = 0).
    pub wall_nanos: u64,
    /// What happened.
    pub event: Event,
}

/// An event's journal line, in export order: the stable tag, the owning
/// query, the subject node (`None` = fleet-level), the `cause` detail
/// and up to two numeric arguments (an empty key ends the list).
type Line = (
    &'static str,
    u64,
    Option<u64>,
    Option<&'static str>,
    [(&'static str, u64); 2],
);

/// The journal's reading of `event`: `None` for the events it does not
/// keep (per-round bookkeeping the scorecards and the trace cover).
/// The tags are stable: they are part of the JSONL format and the
/// Prometheus/docs surface.
fn line(event: &Event) -> Option<Line> {
    const END: (&str, u64) = ("", 0);
    let dropped = |q, n, cause, r| ("node_dropped", q, Some(n), Some(cause), [("round", r), END]);
    let at_round = |kind, q, n, r| (kind, q, Some(n), None, [("round", r), END]);
    let fleet_level = |kind, q, args| (kind, q, None, None, args);
    Some(match *event {
        Event::Selected(q, n, rank, _) => {
            ("node_selected", q, Some(n), None, [("rank", rank), END])
        }
        Event::Dropout(q, n, r) => dropped(q, n, "dropout", r),
        Event::Crash(q, n, r) => dropped(q, n, "crash", r),
        Event::TransferFailed(q, n, r, _) => dropped(q, n, "transfer", r),
        Event::DeadlineMiss(q, n, r) => at_round("straggler_deadline", q, n, r),
        Event::Promoted(q, n, r) => at_round("standby_promoted", q, n, r),
        Event::QuorumLost(q, r, s, ..) => {
            fleet_level("quorum_lost", q, [("round", r), ("survivors", s)])
        }
        Event::CacheInvalidated(q, n) => {
            fleet_level("cache_invalidated", q, [("stale_nodes", n), END])
        }
        Event::AdmissionShed(q, age) => fleet_level("admission_shed", q, [("age_ms", age), END]),
        Event::Straggled(..)
        | Event::LinkLoss(..)
        | Event::RetrySuccess(..)
        | Event::Charged(..)
        | Event::Participated(_)
        | Event::QueryObserved(_)
        | Event::FleetObserved(_) => return None,
    })
}

struct Ring {
    entries: VecDeque<Entry>,
    capacity: usize,
    next_tick: u64,
    overwritten: u64,
    epoch: Option<Instant>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::new(),
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

/// Entries currently held (≤ capacity).
pub fn len() -> usize {
    ring().entries.len()
}

/// Entries ever recorded (monotonic; survives ring wrap-around).
pub fn events_total() -> u64 {
    ring().next_tick
}

/// Entries the ring overwrote to make room for newer ones.
pub fn overwritten() -> u64 {
    ring().overwritten
}

/// The last `n` entries (all of them when `None`), oldest first.
pub fn tail(n: Option<usize>) -> Vec<Entry> {
    let r = ring();
    let take = n.unwrap_or(r.entries.len()).min(r.entries.len());
    r.entries
        .iter()
        .skip(r.entries.len() - take)
        .cloned()
        .collect()
}

/// The journal view of the event stream: keeps `event` if it is an
/// incident ([`crate::emit`] calls it while recording is live).
pub(crate) fn record(event: &Event) {
    if line(event).is_none() {
        return;
    }
    // The wall stamp is taken outside the lock (contention must not
    // skew it); the tick is assigned under the lock, which is what
    // makes it a total order.
    let now = Instant::now();
    let mut r = ring();
    let epoch = *r.epoch.get_or_insert(now);
    let wall_nanos = u64::try_from(now.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    let tick = r.next_tick;
    r.next_tick += 1;
    if r.entries.len() >= r.capacity {
        r.entries.pop_front();
        r.overwritten += 1;
    }
    r.entries.push_back(Entry {
        tick,
        wall_nanos,
        event: event.clone(),
    });
}

fn write_entry(out: &mut String, e: &Entry, clock: Clock) {
    let Some((kind, query, node, cause, args)) = line(&e.event) else {
        return;
    };
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
    write_str(out, kind);
    out.push(',');
    write_key(out, "query");
    write_u64(out, query);
    if let Some(node) = node {
        out.push(',');
        write_key(out, "node");
        write_u64(out, node);
    }
    if let Some(cause) = cause {
        out.push(',');
        write_key(out, "cause");
        write_str(out, cause);
    }
    for (k, v) in args.into_iter().take_while(|(k, _)| !k.is_empty()) {
        out.push(',');
        write_key(out, k);
        write_u64(out, v);
    }
    out.push('}');
    out.push('\n');
}

/// Renders the last `tail_n` entries (all when `None`) as JSON lines,
/// oldest first. Key order is fixed; under [`Clock::Logical`] every
/// field is deterministic, so the export is byte-stable for any
/// `QENS_THREADS` — `results/fleet.json` embeds it, and
/// `crates/bench/tests/golden_telemetry.rs` byte-diffs that file.
pub fn to_jsonl(clock: Clock, tail_n: Option<usize>) -> String {
    let entries = tail(tail_n);
    let mut out = String::with_capacity(entries.len() * 96);
    for e in &entries {
        write_entry(&mut out, e, clock);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit;

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
        emit(&Event::Selected(1, 2, 0, 0));
        emit(&Event::QuorumLost(1, 0, 1, 2, vec![2]));
        assert_eq!(len(), 0);
        assert_eq!(events_total(), 0);
        crate::fleet::set_enabled(true);
    }

    #[test]
    fn events_carry_typed_fields_and_ticks() {
        let _g = locked();
        let dropout = Event::Dropout(7, 3, 0);
        let shed = Event::AdmissionShed(9, 125);
        emit(&Event::Selected(7, 3, 1, 0));
        // Not an incident: the scorecards take it, the journal does not,
        // and it uses up no tick.
        emit(&Event::Participated(3));
        emit(&dropout);
        emit(&shed);
        let entries = tail(None);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].tick, 0);
        assert_eq!(entries[1].tick, 1);
        assert_eq!(entries[1].event, dropout);
        assert_eq!(entries[2].event, shed);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_the_tail() {
        let _g = locked();
        set_capacity(3);
        for q in 0..5u64 {
            emit(&Event::Selected(q, 0, 0, 0));
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
        emit(&Event::Promoted(4, 2, 1));
        emit(&Event::QuorumLost(4, 1, 0, 1, vec![2]));
        emit(&Event::CacheInvalidated(5, 2));
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
            emit(&Event::DeadlineMiss(q, 1, 0));
        }
        let doc = to_jsonl(Clock::Logical, Some(4));
        assert_eq!(doc.lines().count(), 4);
        assert!(doc.starts_with(r#"{"tick":6"#));
    }
}

//! The one event vocabulary of the fleet and fault layers.
//!
//! Every per-node or per-query occurrence — a node selected, dropped,
//! promoted or charged, a memo invalidated — is one [`Event`], emitted
//! once through [`emit`]. Three views fold the stream:
//!
//! * the **trace** records the event's instant, if it has one
//!   ([`crate::trace::instant`]);
//! * the **scorecards** ([`crate::fleet`]) update the node's lifetime
//!   counters;
//! * the **journal** ([`crate::journal`]) keeps the incidents in its
//!   ring and renders them as JSON lines.
//!
//! The round engine keeps each query's fault events as its fault trace
//! (`faults::FaultTrace`), a fourth fold, and counts the query's fault
//! ledger off it. No view can disagree with another about what
//! happened: there is no second call to forget.

use crate::trace::{self, instant};

/// One fleet or fault occurrence. Fields are positional, named in each
/// variant's doc; node indices, query ids and rounds are `u64`, as the
/// views export them.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `(query, node, rank, summary_epoch)`: `node` made `query`'s
    /// participant list at `rank` (0 = best) while its summaries were at
    /// `summary_epoch`.
    Selected(u64, u64, u64, u64),
    /// `(query, node, round)`: `node` silently missed a round.
    Dropout(u64, u64, u64),
    /// `(query, node, round)`: `node` hit its crash schedule.
    Crash(u64, u64, u64),
    /// `(node, round, slowdown)`: `node` trained `slowdown`× slower than
    /// its healthy rate.
    Straggled(u64, u64, f64),
    /// `(node, round, attempt)`: transfer attempt `attempt` (0-based) was
    /// lost and will be retried.
    LinkLoss(u64, u64, u64),
    /// `(node, round, retries)`: the transfer arrived after `retries`
    /// lost attempts.
    RetrySuccess(u64, u64, u64),
    /// `(query, node, round, attempts)`: every transfer attempt was lost;
    /// the report never reached the leader.
    TransferFailed(u64, u64, u64, u64),
    /// `(query, node, round, deadline_s, finish_s)`: the leader stopped
    /// waiting for `node` at the straggler deadline (simulated seconds).
    DeadlineMiss(u64, u64, u64, f64, f64),
    /// `(query, node, round)`: standby `node` was promoted into the
    /// cohort.
    Promoted(u64, u64, u64),
    /// `(query, round, survivors, required, cohort)`: the round ended
    /// below quorum with no standby left; `cohort` lists its nodes.
    QuorumLost(u64, u64, u64, u64, Vec<u64>),
    /// `(node, sim_seconds, wall_nanos, bytes)`: one report's simulated
    /// and measured training time and its uplink bytes.
    Charged(u64, f64, u64, u64),
    /// `(node)`: `node` survived a query to completion.
    Participated(u64),
    /// `(query)`: one query observed end to end.
    QueryObserved(u64),
    /// `(nodes)`: a selection ran against a network of `nodes` nodes.
    FleetObserved(u64),
    /// `(query, stale_nodes)`: the selection memo was dropped at
    /// `query`'s lookup because `stale_nodes` summary epochs had moved.
    CacheInvalidated(u64, u64),
}

/// Records `event` in every live view: its trace instant while tracing
/// is on, the scorecards and the journal while [`crate::fleet::enabled`].
/// With both off it costs two relaxed atomic loads. The views keep the
/// stream's order, so the logical exports are deterministic as long as
/// the events come from leader-serial code, as every round-loop site's
/// do.
pub fn emit(event: &Event) {
    if trace::is_enabled() {
        trace_instant(event);
    }
    if crate::fleet::enabled() {
        crate::fleet::fold(event);
        crate::journal::record(event);
    }
}

/// The trace view: the event's instant under its `crate.verb` name.
fn trace_instant(event: &Event) {
    let (name, args): (_, &[(&str, u64)]) = match *event {
        Event::Dropout(_, n, r) => ("fault.dropout", &[("node", n), ("round", r)]),
        Event::Crash(_, n, r) => ("fault.crash", &[("node", n), ("round", r)]),
        Event::Straggled(n, r, slowdown) => {
            let milli = ("slowdown_milli", (slowdown * 1000.0) as u64);
            ("fault.straggler", &[("node", n), ("round", r), milli])
        }
        Event::LinkLoss(n, r, a) => (
            "fault.link_loss",
            &[("node", n), ("round", r), ("attempt", a)],
        ),
        Event::RetrySuccess(n, r, retries) => (
            "fault.retry_success",
            &[("node", n), ("round", r), ("retries", retries)],
        ),
        Event::TransferFailed(_, n, r, a) => (
            "fault.transfer_failed",
            &[("node", n), ("round", r), ("attempts", a)],
        ),
        Event::DeadlineMiss(_, n, r, ..) => ("fault.deadline_miss", &[("node", n), ("round", r)]),
        Event::Promoted(_, n, r) => ("fault.replacement", &[("standby", n), ("round", r)]),
        Event::QuorumLost(_, r, survivors, required, _) => (
            "fault.quorum_lost",
            &[
                ("round", r),
                ("survivors", survivors),
                ("required", required),
            ],
        ),
        Event::Charged(n, _, _, bytes) => ("edgesim.transfer", &[("node", n), ("bytes", bytes)]),
        Event::Selected(..)
        | Event::Participated(_)
        | Event::QueryObserved(_)
        | Event::FleetObserved(_)
        | Event::CacheInvalidated(..) => return,
    };
    instant(name, args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fleet, journal, trace::Clock};

    /// One table row: the trace instants (`phase name key=value…`), the
    /// logical journal lines and every scorecard field that moved from
    /// empty, then the fleet size and query count when set.
    fn views() -> String {
        let instants: Vec<String> = trace::snapshot_events()
            .iter()
            .map(|e| {
                let args = e.args.as_slice().iter();
                let args: String = args.map(|(k, v)| format!(" {k}={v}")).collect();
                format!("{:?} {}{args}", e.phase, e.name)
            })
            .collect();
        let mut delta = Vec::new();
        for c in fleet::snapshot() {
            let mut card = format!("n{}:", c.node);
            let live = [
                ("train_wall_nanos", c.train_wall_nanos),
                ("last_summary_epoch", c.last_summary_epoch),
            ];
            for (k, v) in c.counters().into_iter().chain(live) {
                if v != 0 {
                    card += &format!(" {k}={v}");
                }
            }
            if c.train_sim_seconds != 0.0 {
                card += &format!(" train_sim_seconds={}", c.train_sim_seconds);
            }
            if c.last_selected_query != u64::MAX {
                card += &format!(" last_selected_query={}", c.last_selected_query);
            }
            delta.push(card);
        }
        if fleet::fleet_size() > 0 {
            delta.push(format!("fleet_size={}", fleet::fleet_size()));
        }
        if fleet::queries() > 0 {
            delta.push(format!("queries={}", fleet::queries()));
        }
        let lines = journal::to_jsonl(Clock::Logical, None).replace('\n', " ");
        let row = format!("{} | {lines}| {}", instants.join(", "), delta.join("; "));
        row.trim_end().to_string()
    }

    /// Each variant emitted once into empty views, against what the
    /// per-view recording calls it replaced wrote into each view.
    #[test]
    fn every_event_renders_its_three_views() {
        let _g = crate::test_lock();
        fleet::set_enabled(true);
        trace::set_mode(Some(Clock::Logical));
        let events = [
            Event::Selected(7, 3, 1, 2),
            Event::Dropout(7, 3, 0),
            Event::Crash(7, 2, 1),
            Event::Straggled(4, 1, 2.5),
            Event::LinkLoss(1, 0, 1),
            Event::RetrySuccess(1, 0, 2),
            Event::TransferFailed(9, 5, 2, 3),
            Event::DeadlineMiss(9, 5, 2, 5.0, 9.25),
            Event::Promoted(4, 2, 1),
            Event::QuorumLost(4, 1, 0, 2, vec![2, 6]),
            Event::Charged(1, 0.5, 100, 4096),
            Event::Participated(1),
            Event::QueryObserved(7),
            Event::FleetObserved(4),
            Event::CacheInvalidated(5, 2),
        ];
        let want = r#"
 | {"tick":0,"kind":"node_selected","query":7,"node":3,"rank":1} | n3: selected=1 last_summary_epoch=2 last_selected_query=7
Instant fault.dropout node=3 round=0 | {"tick":0,"kind":"node_dropped","query":7,"node":3,"cause":"dropout","round":0} | n3: dropped=1
Instant fault.crash node=2 round=1 | {"tick":0,"kind":"node_dropped","query":7,"node":2,"cause":"crash","round":1} | n2: dropped=1
Instant fault.straggler node=4 round=1 slowdown_milli=2500 | | n4: straggled=1
Instant fault.link_loss node=1 round=0 attempt=1 | | n1: retried=1
Instant fault.retry_success node=1 round=0 retries=2 | |
Instant fault.transfer_failed node=5 round=2 attempts=3 | {"tick":0,"kind":"node_dropped","query":9,"node":5,"cause":"transfer","round":2} | n5: dropped=1
Instant fault.deadline_miss node=5 round=2 | {"tick":0,"kind":"straggler_deadline","query":9,"node":5,"round":2} | n5: dropped=1
Instant fault.replacement standby=2 round=1 | {"tick":0,"kind":"standby_promoted","query":4,"node":2,"round":1} | n2: promoted=1
Instant fault.quorum_lost round=1 survivors=0 required=2 | {"tick":0,"kind":"quorum_lost","query":4,"round":1,"survivors":0} | n2: quorum_lost=1; n6: quorum_lost=1
Instant edgesim.transfer node=1 bytes=4096 | | n1: rounds_trained=1 bytes_transferred=4096 train_wall_nanos=100 train_sim_seconds=0.5
 | | n1: participated=1
 | | queries=1
 | | fleet_size=4
 | {"tick":0,"kind":"cache_invalidated","query":5,"stale_nodes":2} |"#;
        let want: Vec<&str> = want.lines().skip(1).collect();
        assert_eq!(want.len(), events.len());
        for (event, want) in events.iter().zip(want) {
            fleet::reset();
            journal::clear();
            trace::clear();
            emit(event);
            assert_eq!(views(), want, "{event:?}");
        }
        trace::set_mode(None);
        trace::clear();
        fleet::reset();
        journal::clear();
    }
}

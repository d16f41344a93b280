//! The record of what actually fired.

use std::fmt::Write;

use telemetry::Event;

/// The ordered record of every fault that fired during one query's
/// federation: the fault variants of [`telemetry::Event`], the same
/// values the round engine emits to the trace, scorecards and journal.
/// Collected serially at the leader (fault decisions are simulated-time,
/// not wall-time), so the order — and therefore the JSON export — is
/// bit-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTrace {
    /// Events in leader observation order.
    pub events: Vec<Event>,
}

/// One fault's JSON row: its `kind` tag, then its exported fields in key
/// order. `None` for the events that are not faults. `Promoted` keeps
/// the export's `replacement` tag and `standby` key; `QuorumLost`'s
/// cohort and every query id stay out of the export.
fn row(event: &Event) -> Option<(&'static str, Vec<(&'static str, String)>)> {
    let u = |x: u64| x.to_string();
    // `{:?}` is the shortest string that parses back to the same float.
    let f = |x: f64| format!("{x:?}");
    Some(match *event {
        Event::Dropout(_, n, r) => ("dropout", vec![("node", u(n)), ("round", u(r))]),
        Event::Crash(_, n, r) => ("crash", vec![("node", u(n)), ("round", u(r))]),
        Event::Straggled(n, r, s) => (
            "straggler",
            vec![("node", u(n)), ("round", u(r)), ("slowdown", f(s))],
        ),
        Event::LinkLoss(n, r, a) => (
            "link_loss",
            vec![("node", u(n)), ("round", u(r)), ("attempt", u(a))],
        ),
        Event::RetrySuccess(n, r, k) => (
            "retry_success",
            vec![("node", u(n)), ("round", u(r)), ("retries", u(k))],
        ),
        Event::TransferFailed(_, n, r, a) => (
            "transfer_failed",
            vec![("node", u(n)), ("round", u(r)), ("attempts", u(a))],
        ),
        Event::DeadlineMiss(_, n, r, deadline, finish) => (
            "deadline_miss",
            vec![
                ("node", u(n)),
                ("round", u(r)),
                ("deadline_seconds", f(deadline)),
                ("finish_seconds", f(finish)),
            ],
        ),
        Event::Promoted(_, n, r) => ("replacement", vec![("standby", u(n)), ("round", u(r))]),
        Event::QuorumLost(_, r, survivors, required, _) => (
            "quorum_lost",
            vec![
                ("round", u(r)),
                ("survivors", u(survivors)),
                ("required", u(required)),
            ],
        ),
        Event::Selected(..)
        | Event::Charged(..)
        | Event::Participated(_)
        | Event::QueryObserved(_)
        | Event::FleetObserved(_)
        | Event::CacheInvalidated(..) => return None,
    })
}

impl FaultTrace {
    /// Records one fault event.
    pub fn push(&mut self, event: Event) {
        debug_assert!(row(&event).is_some(), "not a fault: {event:?}");
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events whose JSON `kind` tag is `kind` (`"dropout"`,
    /// `"replacement"`, …).
    pub fn count(&self, kind: &str) -> usize {
        let tagged = |e: &&Event| row(e).is_some_and(|(k, _)| k == kind);
        self.events.iter().filter(tagged).count()
    }

    /// Deterministic JSON export: an array of fixed-key-order objects.
    /// Two runs with the same seed produce byte-identical output —
    /// `crates/bench/tests/repro_cli.rs` diffs exactly this.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (kind, fields)) in self.events.iter().filter_map(row).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"kind\":\"{kind}\"");
            for (key, value) in fields {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultTrace {
        let mut t = FaultTrace::default();
        t.push(Event::Dropout(9, 1, 0));
        t.push(Event::Straggled(2, 0, 3.5));
        t.push(Event::LinkLoss(2, 0, 0));
        t.push(Event::RetrySuccess(2, 0, 1));
        t.push(Event::Promoted(9, 4, 0));
        t
    }

    #[test]
    fn counts_by_kind() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.count("dropout"), 1);
        assert_eq!(t.count("link_loss"), 1);
        assert_eq!(t.count("replacement"), 1);
        assert_eq!(t.count("crash"), 0);
        assert!(FaultTrace::default().is_empty());
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('[') && a.ends_with(']'));
        assert!(a.contains("\"kind\":\"dropout\",\"node\":1,\"round\":0"));
        assert!(a.contains("\"slowdown\":3.5"));
        assert_eq!(FaultTrace::default().to_json(), "[]");
        // Balanced braces (cheap well-formedness probe).
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "unbalanced JSON: {a}"
        );
    }

    /// Each fault variant against the exact row the export writes for
    /// it: query ids and the quorum cohort stay out, floats keep `{:?}`.
    #[test]
    fn every_event_kind_serialises() {
        let rows = [
            (
                Event::Dropout(7, 0, 0),
                r#"{"kind":"dropout","node":0,"round":0}"#,
            ),
            (
                Event::Crash(7, 0, 1),
                r#"{"kind":"crash","node":0,"round":1}"#,
            ),
            (
                Event::Straggled(0, 0, 2.0),
                r#"{"kind":"straggler","node":0,"round":0,"slowdown":2.0}"#,
            ),
            (
                Event::LinkLoss(0, 0, 3),
                r#"{"kind":"link_loss","node":0,"round":0,"attempt":3}"#,
            ),
            (
                Event::RetrySuccess(0, 0, 2),
                r#"{"kind":"retry_success","node":0,"round":0,"retries":2}"#,
            ),
            (
                Event::TransferFailed(7, 0, 0, 3),
                r#"{"kind":"transfer_failed","node":0,"round":0,"attempts":3}"#,
            ),
            (
                Event::DeadlineMiss(7, 0, 0, 5.0, 9.25),
                r#"{"kind":"deadline_miss","node":0,"round":0,"deadline_seconds":5.0,"finish_seconds":9.25}"#,
            ),
            (
                Event::Promoted(7, 1, 0),
                r#"{"kind":"replacement","standby":1,"round":0}"#,
            ),
            (
                Event::QuorumLost(7, 0, 0, 2, vec![3, 4]),
                r#"{"kind":"quorum_lost","round":0,"survivors":0,"required":2}"#,
            ),
        ];
        for (event, want) in rows {
            let mut t = FaultTrace::default();
            t.push(event);
            assert_eq!(t.to_json(), format!("[{want}]"));
        }
    }
}

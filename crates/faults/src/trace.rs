//! The record of what actually fired.

/// One injected-fault (or fault-reaction) event, in simulated time.
///
/// Every field is a simulated quantity — node indices, round numbers,
/// attempt counts, simulated seconds — never wall-clock time, so a trace
/// is bit-identical across runs and thread counts for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A participant silently missed one round.
    Dropout {
        /// Node index.
        node: usize,
        /// Communication round.
        round: usize,
    },
    /// A participant hit its crash schedule and is permanently dead.
    Crash {
        /// Node index.
        node: usize,
        /// Communication round.
        round: usize,
    },
    /// A participant trained `slowdown`× slower than its healthy rate.
    Straggler {
        /// Node index.
        node: usize,
        /// Communication round.
        round: usize,
        /// Simulated-time multiplier (> 1).
        slowdown: f64,
    },
    /// One model-transfer attempt was lost on the wire.
    LinkLoss {
        /// Node index.
        node: usize,
        /// Communication round.
        round: usize,
        /// 0-based attempt number that was lost.
        attempt: usize,
    },
    /// A transfer eventually succeeded after `retries` lost attempts.
    RetrySuccess {
        /// Node index.
        node: usize,
        /// Communication round.
        round: usize,
        /// Lost attempts before the success.
        retries: usize,
    },
    /// A transfer exhausted its retry budget; the participant's report
    /// never reached the leader this round.
    TransferFailed {
        /// Node index.
        node: usize,
        /// Communication round.
        round: usize,
        /// Attempts made (all lost).
        attempts: usize,
    },
    /// The leader stopped waiting for a participant at the straggler
    /// deadline; its (completed) work was discarded for this round.
    DeadlineMiss {
        /// Node index.
        node: usize,
        /// Communication round.
        round: usize,
        /// The configured deadline in simulated seconds.
        deadline_seconds: f64,
        /// When the participant would actually have finished.
        finish_seconds: f64,
    },
    /// A standby node was promoted from the ranked tail to cover a
    /// failed participant.
    Replacement {
        /// The promoted standby's node index.
        standby: usize,
        /// Communication round of the promotion.
        round: usize,
    },
    /// The round ended below quorum even after exhausting the standby
    /// list.
    QuorumLost {
        /// Communication round.
        round: usize,
        /// Participants that reported.
        survivors: usize,
        /// Quorum the round needed.
        required: usize,
    },
}

impl FaultEvent {
    /// Stable lowercase tag used in the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::Dropout { .. } => "dropout",
            FaultEvent::Crash { .. } => "crash",
            FaultEvent::Straggler { .. } => "straggler",
            FaultEvent::LinkLoss { .. } => "link_loss",
            FaultEvent::RetrySuccess { .. } => "retry_success",
            FaultEvent::TransferFailed { .. } => "transfer_failed",
            FaultEvent::DeadlineMiss { .. } => "deadline_miss",
            FaultEvent::Replacement { .. } => "replacement",
            FaultEvent::QuorumLost { .. } => "quorum_lost",
        }
    }

    /// Serialises one event as a deterministic JSON object (fixed key
    /// order, floats via `{:?}` — shortest round-trip form).
    fn to_json(&self) -> String {
        match self {
            FaultEvent::Dropout { node, round } => {
                format!("{{\"kind\":\"dropout\",\"node\":{node},\"round\":{round}}}")
            }
            FaultEvent::Crash { node, round } => {
                format!("{{\"kind\":\"crash\",\"node\":{node},\"round\":{round}}}")
            }
            FaultEvent::Straggler {
                node,
                round,
                slowdown,
            } => format!(
                "{{\"kind\":\"straggler\",\"node\":{node},\"round\":{round},\"slowdown\":{slowdown:?}}}"
            ),
            FaultEvent::LinkLoss {
                node,
                round,
                attempt,
            } => format!(
                "{{\"kind\":\"link_loss\",\"node\":{node},\"round\":{round},\"attempt\":{attempt}}}"
            ),
            FaultEvent::RetrySuccess {
                node,
                round,
                retries,
            } => format!(
                "{{\"kind\":\"retry_success\",\"node\":{node},\"round\":{round},\"retries\":{retries}}}"
            ),
            FaultEvent::TransferFailed {
                node,
                round,
                attempts,
            } => format!(
                "{{\"kind\":\"transfer_failed\",\"node\":{node},\"round\":{round},\"attempts\":{attempts}}}"
            ),
            FaultEvent::DeadlineMiss {
                node,
                round,
                deadline_seconds,
                finish_seconds,
            } => format!(
                "{{\"kind\":\"deadline_miss\",\"node\":{node},\"round\":{round},\
                 \"deadline_seconds\":{deadline_seconds:?},\"finish_seconds\":{finish_seconds:?}}}"
            ),
            FaultEvent::Replacement { standby, round } => {
                format!("{{\"kind\":\"replacement\",\"standby\":{standby},\"round\":{round}}}")
            }
            FaultEvent::QuorumLost {
                round,
                survivors,
                required,
            } => format!(
                "{{\"kind\":\"quorum_lost\",\"round\":{round},\"survivors\":{survivors},\"required\":{required}}}"
            ),
        }
    }
}

/// The ordered record of every fault that fired during one query's
/// federation. Collected serially at the leader (fault decisions are
/// simulated-time, not wall-time), so the order — and therefore the
/// JSON export — is bit-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTrace {
    /// Events in leader observation order.
    pub events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// Records one event.
    pub fn push(&mut self, event: FaultEvent) {
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

    /// Events of one kind (see [`FaultEvent::kind`]).
    pub fn count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Deterministic JSON export: an array of fixed-key-order objects.
    /// Two runs with the same seed produce byte-identical output —
    /// `crates/bench/tests/repro_cli.rs` diffs exactly this.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
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
        t.push(FaultEvent::Dropout { node: 1, round: 0 });
        t.push(FaultEvent::Straggler {
            node: 2,
            round: 0,
            slowdown: 3.5,
        });
        t.push(FaultEvent::LinkLoss {
            node: 2,
            round: 0,
            attempt: 0,
        });
        t.push(FaultEvent::RetrySuccess {
            node: 2,
            round: 0,
            retries: 1,
        });
        t.push(FaultEvent::Replacement {
            standby: 4,
            round: 0,
        });
        t
    }

    #[test]
    fn counts_by_kind() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.count("dropout"), 1);
        assert_eq!(t.count("link_loss"), 1);
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

    #[test]
    fn every_event_kind_serialises() {
        let events = [
            FaultEvent::Dropout { node: 0, round: 0 },
            FaultEvent::Crash { node: 0, round: 1 },
            FaultEvent::Straggler {
                node: 0,
                round: 0,
                slowdown: 2.0,
            },
            FaultEvent::LinkLoss {
                node: 0,
                round: 0,
                attempt: 3,
            },
            FaultEvent::RetrySuccess {
                node: 0,
                round: 0,
                retries: 2,
            },
            FaultEvent::TransferFailed {
                node: 0,
                round: 0,
                attempts: 3,
            },
            FaultEvent::DeadlineMiss {
                node: 0,
                round: 0,
                deadline_seconds: 5.0,
                finish_seconds: 9.25,
            },
            FaultEvent::Replacement {
                standby: 1,
                round: 0,
            },
            FaultEvent::QuorumLost {
                round: 0,
                survivors: 0,
                required: 2,
            },
        ];
        for e in events {
            let mut t = FaultTrace::default();
            let kind = e.kind();
            t.push(e);
            let json = t.to_json();
            assert!(
                json.contains(&format!("\"kind\":\"{kind}\"")),
                "{kind} missing from {json}"
            );
        }
    }
}

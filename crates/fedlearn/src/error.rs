//! Federation error types.

/// Why a query round could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// The selection policy returned no participants (nothing overlaps
    /// the query region under the configured thresholds).
    NoParticipants {
        /// The query that found no support.
        query_id: u64,
    },
    /// Every selected participant's training set was empty (possible when
    /// supporting clusters exist but hold no samples after filtering).
    NoTrainingData {
        /// The affected query.
        query_id: u64,
    },
    /// The federation configuration cannot be executed as given (e.g.
    /// multi-round refinement with an aggregation rule that produces no
    /// single weight vector to re-broadcast). Recoverable: callers such
    /// as the repro binary and bench sweeps can skip the combination
    /// instead of crashing.
    UnsupportedConfig {
        /// The query whose round was refused.
        query_id: u64,
        /// Human-readable explanation of the rejected combination.
        reason: String,
    },
    /// A communication round ended with fewer reporting participants than
    /// the configured quorum even after promoting every available ranked
    /// standby. Recoverable: stream runners record the failed query and
    /// move on.
    QuorumLost {
        /// The query whose federation collapsed.
        query_id: u64,
        /// The communication round that fell below quorum.
        round: usize,
        /// Participants that still reported that round.
        survivors: usize,
        /// The survivor count the quorum rule demanded.
        required: usize,
    },
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::NoParticipants { query_id } => {
                write!(
                    f,
                    "query {query_id}: no node overlaps the requested data region"
                )
            }
            FederationError::NoTrainingData { query_id } => {
                write!(
                    f,
                    "query {query_id}: selected participants hold no training data"
                )
            }
            FederationError::UnsupportedConfig { query_id, reason } => {
                write!(f, "query {query_id}: unsupported configuration: {reason}")
            }
            FederationError::QuorumLost {
                query_id,
                round,
                survivors,
                required,
            } => {
                write!(
                    f,
                    "query {query_id}: quorum lost in round {round}: \
                     {survivors} of the required {required} participants reported \
                     (standby list exhausted)"
                )
            }
        }
    }
}

impl std::error::Error for FederationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_query() {
        let e = FederationError::NoParticipants { query_id: 42 };
        assert!(e.to_string().contains("42"));
        let e = FederationError::NoTrainingData { query_id: 7 };
        assert!(e.to_string().contains("7"));
        let e = FederationError::UnsupportedConfig {
            query_id: 9,
            reason: "multi-round refinement requires FedAvg".into(),
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains("FedAvg"));
        let e = FederationError::QuorumLost {
            query_id: 13,
            round: 2,
            survivors: 1,
            required: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("13") && msg.contains("round 2"));
        assert!(msg.contains("1 of the required 3"));
    }
}

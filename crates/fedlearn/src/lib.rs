//! Distributed learning over selected edge nodes (§IV).
//!
//! Given a query and a participant [`selection::Selection`], the leader
//! broadcasts an initial model (plus the global-space scaler), every
//! participant trains it locally - *incrementally over its supporting
//! clusters only* when the query-driven policy selected it, over its
//! whole dataset for the baselines - and the leader aggregates the
//! returned local models by plain prediction averaging (Eq. 6), by
//! ranking-weighted averaging (Eq. 7), or by FedAvg-style weight
//! averaging (an extension variant used in the ablations). Resource use
//! (samples, sample-visits, simulated and wall time, bytes) is recorded
//! per query - Figs. 8 and 9 read straight from that ledger.
//!
//! * [`aggregate`] - the global-model representations and Eq. 6/7.
//! * [`round`] - the round engine: selection -> local training ->
//!   aggregation, for one query ([`run_query`]) or for a batch whose
//!   queries share each training wave on the [`par`] pool ([`run_batch`],
//!   bit-identical to a [`run_query`] loop).
//! * [`stream`] - running a whole query workload and summarising it.
//! * [`error`] - federation error types.

pub mod aggregate;
pub mod error;
pub mod round;
pub mod stream;

pub use aggregate::{Aggregation, GlobalModel};
pub use error::FederationError;
pub use round::{run_batch, run_query, FederationConfig, RoundOutcome, StageOrder};
pub use stream::{run_stream, QueryResult, StreamResult};

/// [`run_batch`]'s contract tests: every row of the batch table runs
/// bit-identically to a [`run_query`] loop.
#[cfg(test)]
mod batch {
    mod tests {
        use crate::round::tests::{assert_batch_matches_loop, BatchCase};

        /// One shared wave, same bits as one wave per query, on the
        /// default pool.
        #[test]
        fn batched_matches_unbatched_bitwise() {
            assert_batch_matches_loop(BatchCase::FaultFree, &[None]);
        }

        /// A live fault plan batches too: the batch no longer falls back
        /// to `run_query`, and still matches it bit for bit.
        #[test]
        fn non_batchable_configs_fall_back_to_run_query() {
            assert_batch_matches_loop(BatchCase::UnreliableEdge, &[None]);
        }

        /// Multi-round refinement and a straggler deadline, which the
        /// batch gate once sent back to `run_query`, run through the
        /// shared wave and match the loop bit for bit.
        #[test]
        fn batchable_gates_on_rounds_faults_and_deadline() {
            assert_batch_matches_loop(BatchCase::ThreeRounds, &[None]);
            assert_batch_matches_loop(BatchCase::StragglerDeadline, &[None]);
        }

        /// Same bits at any worker count, the inline path included, for
        /// every row of the table.
        #[test]
        fn batched_is_bit_identical_across_thread_counts() {
            for case in BatchCase::ALL {
                assert_batch_matches_loop(case, &[Some(1), Some(2), Some(4)]);
            }
        }
    }
}

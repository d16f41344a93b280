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
//! * [`round`] - the round engine: one query's selection -> local
//!   training on the [`par`] pool -> aggregation ([`run_query`]).
//! * [`stream`] - running a whole query workload and summarising it.
//! * [`error`] - federation error types.

pub mod aggregate;
pub mod error;
pub mod round;
pub mod stream;

pub use aggregate::{Aggregation, GlobalModel};
pub use error::FederationError;
pub use round::{run_query, FederationConfig, RoundOutcome, StageOrder};
pub use stream::{run_stream, QueryResult, StreamResult};

//! Deterministic, seeded fault injection for the simulated edge
//! federation.
//!
//! The paper's premise (§III-A) is that edge nodes are unreliable,
//! resource-constrained participants — yet an un-instrumented simulator
//! only ever exercises the happy path. This crate is the chaos layer:
//! a [`FaultSpec`] describes *how much* chaos to inject (per-node
//! dropout probability, straggler slowdown distributions, transient
//! link-loss probability, crash-at-round schedules) and a [`FaultPlan`]
//! turns it into a **pure deterministic oracle** — every injected event
//! is a function of `(seed, query, node, round, attempt)` only, computed
//! through the in-tree xoshiro/SplitMix64 mix, so:
//!
//! * the same seed produces the same faults on every platform, for any
//!   thread count and any order of evaluation (the oracle is `&self`
//!   and never consumes shared RNG state);
//! * two queries with different ids see different (but individually
//!   reproducible) fault patterns;
//! * a [`FaultTrace`] of what actually fired can be compared
//!   byte-for-byte across runs — the workspace's determinism invariant
//!   extended to failure scenarios.
//!
//! The *reaction* policies live here too: [`RetryPolicy`] (capped
//! exponential backoff for lost transfers), [`Quorum`] (how many
//! survivors a round needs) and the combined [`FaultTolerance`]
//! knob consumed by `fedlearn`'s round engine.
//!
//! A fault is recorded as the [`telemetry::Event`] the round engine
//! emits for it, so the fault trace is one more fold of that event
//! stream. The crate is std-only and depends on `linalg` (for the RNG
//! derivation) and `telemetry` (for the event), so it can sit below
//! `edgesim` in the crate graph.

pub mod plan;
pub mod spec;
pub mod trace;

pub use plan::{FaultPlan, ParticipantFate};
pub use spec::{FaultSpec, FaultTolerance, Quorum, RetryPolicy};
pub use trace::FaultTrace;

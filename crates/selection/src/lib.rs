//! Node-selection policies for query-driven distributed learning.
//!
//! Implements the paper's contribution and the mechanisms it compares
//! against (§III-C, §V-C):
//!
//! * [`QueryDriven`] - the paper: per-cluster data-overlap `h_ik` (Eq. 2)
//!   against the query rectangle, supporting clusters `h_ik >= ε`, node
//!   potential `p_i = Σ h_ik` (Eq. 3), ranking `r_i = p_i K'/K` (Eq. 4),
//!   top-ℓ or `r_i >= ψ` selection (Eq. 5). Selected participants train
//!   only on their supporting clusters' data (§IV-A).
//! * [`RandomSelection`] - ℓ nodes uniformly at random (Ye et al. \[6\]).
//! * [`GameTheory`] - Hammoud et al. \[7\]: the leader trains a local model
//!   first, every node evaluates it on its own data, and the nodes where
//!   it performs *worst* (most different data) are selected.
//! * [`AllNodes`] - every node, all data (the upper-cost baseline).
//!
//! The related-work mechanisms the paper surveys but does not evaluate
//! against - data-centric composite scoring (Saha et al. \[8\]) and
//! fairness-aware stochastic selection (Huang et al. \[12\]) - live in
//! [`literature`].
//!
//! All policies implement [`SelectionPolicy`] and return the same
//! [`Selection`] structure, so the distributed-learning loop is policy
//! agnostic.
//!
//! [`QueryDriven`] has two candidate sources and one scoring loop: it
//! scores every node, or — built with [`QueryDriven::indexed`] — only
//! the nodes a deterministic two-level spatial index over per-node
//! summary hulls ([`geom::index`]) cannot rule out, which makes
//! selection sublinear at fleet scale without changing what is
//! selected — see [`indexed`].
//!
//! [`CachedQueryDriven`] puts a memo of answers in front of it: a
//! bit-exact repeat of a rectangle on an unchanged fleet gets the stored
//! [`Selection`] back, everything else runs the policy — see [`cache`].
//!
//! [`reference`] is Eq. 2–5 written out naively, the oracle the tests
//! compare all of the above against.

pub mod baselines;
pub mod cache;
mod epochs;
pub mod indexed;
pub mod literature;
pub mod policy;
pub mod query_driven;
pub mod reference;

pub use baselines::{AllNodes, GameTheory, RandomSelection};
pub use cache::{CacheConfig, CacheStats, CachedQueryDriven};
pub use geom::index::GridConfig;
pub use indexed::IndexStats;
pub use literature::{DataCentric, FairStochastic};
pub use policy::{
    Participant, Ranked, Selection, SelectionContext, SelectionOverhead, SelectionPolicy,
    SupportingCluster, WithoutSelectivity,
};
pub use query_driven::{QueryDriven, RankingRule, SelectionCap, RESERVE_PER_SLOT};

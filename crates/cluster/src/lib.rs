//! k-means data quantisation and cluster summaries.
//!
//! Each edge node in the paper quantises its local data space with k-means
//! (Eq. 1, K = 5 in the evaluation) and shares only per-cluster summaries
//! (the cluster's per-dimension min/max rectangle and member count) with
//! the leader - O(1) communication per node.
//!
//! * [`kmeans`] - k-means++ initialisation, Lloyd iterations to a
//!   movement tolerance, empty-cluster repair.
//! * [`summary`] - [`summary::ClusterSummary`]: the boundary rectangle,
//!   representative and size of a fitted cluster; [`SummaryTable`]: a
//!   node's summaries as the leader keeps them, flat and without the
//!   representative.
//! * [`quality`] - the quantisation loss of Eq. 1, which
//!   [`MiniBatchKMeans::loss`] reports.
//! * [`minibatch`] - mini-batch k-means for nodes whose data streams in.
//! * [`estimate`] - summary-based cardinality estimation: how many samples
//!   a query would touch, computed by the leader with zero communication
//!   (`EdgeNode::estimated_query_cardinality`).
//! * [`privacy`] - differentially-private summary release (Laplace noise
//!   on boundaries and counts before anything leaves the node).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod estimate;
pub mod kmeans;
pub mod minibatch;
pub mod privacy;
pub mod quality;
pub mod summary;

pub use kmeans::{KMeans, KMeansConfig};
pub use minibatch::MiniBatchKMeans;
pub use summary::{ClusterSummary, ClusterView, SummaryTable};

//! The commonly used surface of the `qens` workspace in one import.

pub use crate::builder::{Federation, FederationBuilder};
pub use crate::experiment::{
    compare_policies, selectivity_comparison, PolicyComparison, SelectivitySeries,
};
pub use crate::policy_kind::PolicyKind;
pub use crate::serve_config::AdmissionConfig;

pub use airdata::scenario;
pub use airdata::Feature;
pub use edgesim::{
    CostModel, EdgeNetwork, EdgeNode, LinkProfile, NodeId, QueryAccounting, SpaceScaler,
};
pub use faults::{FaultSpec, FaultTolerance, FaultTrace, Quorum, RetryPolicy};
pub use fedlearn::{
    Aggregation, FederationConfig, FederationError, GlobalModel, RoundOutcome, StageOrder,
    StreamResult,
};
pub use geom::{HyperRect, Interval, OverlapCase, Query};
pub use mlkit::{DenseDataset, Model, ModelKind, Regressor, TrainConfig};
pub use selection::{
    AllNodes, CacheStats, CachedQueryDriven, DataCentric, FairStochastic, GameTheory, QueryDriven,
    RandomSelection, Selection, SelectionContext, SelectionPolicy, WithoutSelectivity,
};
pub use workload::{QueryWorkload, WorkloadConfig, WorkloadKind};

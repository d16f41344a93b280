//! Query/cluster overlap geometry for query-driven node selection.
//!
//! The paper (Aladwani et al., ICDE DASC 2023, §III-C) summarises each
//! k-means cluster by its per-dimension bounding box and expresses an
//! analytics query as a hyper-rectangle
//! `q = [q_1^min, q_1^max, ..., q_d^min, q_d^max]`. The *data overlapping
//! rate* between a cluster and a query is the mean over dimensions of a
//! per-dimension interval overlap ratio with five cases (the paper's
//! Fig. 3/4); this crate implements that ratio both as the explicit
//! five-case match and as the equivalent closed-form interval Jaccard,
//! plus the hyper-rectangle machinery built on top of it.
//!
//! * [`interval`] - 1-D intervals, the five overlap cases, and the ratio.
//! * [`rect`] - d-dimensional hyper-rectangles, `h_ik` (Eq. 2), volumes.
//! * [`query`] - analytics queries as bounded regions of the data space.
//! * [`index`] - a deterministic two-level spatial index for sublinear
//!   candidate generation over many rectangles.

pub mod index;
pub mod interval;
pub mod query;
pub mod rect;

pub use index::{GridConfig, Probe, SpatialIndex, SpatialIndexBuilder};
pub use interval::{Interval, OverlapCase};
pub use query::Query;
pub use rect::{overlap_rate, HyperRect};

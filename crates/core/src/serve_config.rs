//! Admission-control configuration for the query-serving front end.
//!
//! The serving subsystem (`repro serve`) sits between untrusted HTTP
//! clients and the federation engine, so it needs explicit back-pressure
//! knobs: how many queries may wait in the ingestion queue before the
//! server answers 429, how stale a queued query may get before the
//! batcher sheds it with 503, how many compatible queries one federation
//! wave may coalesce, and how large a request body the parser accepts at
//! all. The config lives in `core` (not `bench`) because the builder
//! carries it alongside the cache config: callers pin it with
//! `FederationBuilder::admission`, and a federation that never does
//! gets [`AdmissionConfig::default`]. No environment variable is read.

/// Back-pressure and batching knobs for the serving front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Ingestion-queue capacity. A `POST /query` arriving while this
    /// many queries are already waiting is rejected with `429` and
    /// `Retry-After` instead of growing the queue without bound. `0` is
    /// a deterministic test hook: every query is rejected at the door.
    pub queue_depth: usize,
    /// Per-request staleness budget in milliseconds, measured from
    /// enqueue to the moment the batcher picks the query up. `None`
    /// waits forever; `Some(0)` is a deterministic test hook that sheds
    /// every dequeued query with `503`.
    pub deadline_ms: Option<u64>,
    /// Most queries one federation wave may coalesce. The batcher only
    /// merges queries whose quantized bucket keys match
    /// ([`selection::CacheConfig::compatibility_key`]); this caps how
    /// long a popular bucket can keep one wave growing. Floored at 1.
    pub batch_max: usize,
    /// Largest `Content-Length` the HTTP layer accepts; bigger bodies
    /// get `413` without the server reading (or buffering) them.
    pub body_cap_bytes: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            deadline_ms: None,
            batch_max: 8,
            body_cap_bytes: 64 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = AdmissionConfig::default();
        assert!(cfg.queue_depth > 0);
        assert_eq!(cfg.deadline_ms, None);
        assert!(cfg.batch_max >= 1);
        assert!(cfg.body_cap_bytes >= 16 * 1024);
    }

    fn admitted(cfg: Option<AdmissionConfig>) -> AdmissionConfig {
        let mut builder = crate::FederationBuilder::new().homogeneous_nodes(2, 20);
        if let Some(cfg) = cfg {
            builder = builder.admission(cfg);
        }
        builder.build().admission()
    }

    #[test]
    fn from_parts_parses_each_knob() {
        let pinned = AdmissionConfig {
            queue_depth: 5,
            deadline_ms: Some(250),
            batch_max: 3,
            body_cap_bytes: 1024,
        };
        assert_eq!(admitted(Some(pinned)), pinned);
    }

    #[test]
    fn zero_hooks_are_honoured_but_batch_is_floored() {
        let cfg = admitted(Some(AdmissionConfig {
            queue_depth: 0,
            deadline_ms: Some(0),
            batch_max: 0,
            ..AdmissionConfig::default()
        }));
        assert_eq!(cfg.queue_depth, 0, "queue 0 = reject-everything hook");
        assert_eq!(
            cfg.deadline_ms,
            Some(0),
            "deadline 0 = shed-everything hook"
        );
        assert_eq!(cfg.batch_max, 1, "a wave always fits one query");
    }

    #[test]
    fn garbage_and_off_fall_back_to_defaults() {
        assert_eq!(admitted(None), AdmissionConfig::default());
    }
}

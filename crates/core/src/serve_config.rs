//! Admission-control configuration for the query-serving front end.
//!
//! The serving subsystem (`repro serve`) sits between untrusted HTTP
//! clients and the federation engine, so it needs explicit back-pressure
//! knobs: how many queries may wait in the ingestion queue before the
//! server answers 429, how stale a queued query may get before the
//! batcher sheds it with 503, how many compatible queries one federation
//! wave may coalesce, and how large a request body the parser accepts at
//! all. The config lives in `core` (not `bench`) because the builder
//! resolves it alongside the cache config and experiments pass it
//! programmatically.

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

impl AdmissionConfig {
    /// Builds a config from raw environment-variable values. Separated
    /// from [`AdmissionConfig::from_env`] so tests can exercise the
    /// parsing without mutating process-wide environment state.
    ///
    /// Unset, empty or unparseable values keep the defaults. For the
    /// deadline, `"none"`/`"off"` (or unset) means no deadline; a parsed
    /// number — including 0 — is honoured, because 0 is the
    /// shed-everything test hook.
    pub fn from_parts(
        queue: Option<&str>,
        deadline_ms: Option<&str>,
        batch: Option<&str>,
        body_cap: Option<&str>,
    ) -> Self {
        let mut cfg = Self::default();
        if let Some(n) = queue.and_then(|v| v.trim().parse::<usize>().ok()) {
            cfg.queue_depth = n;
        }
        if let Some(v) = deadline_ms {
            let v = v.trim();
            if !matches!(v, "" | "none" | "off") {
                if let Ok(ms) = v.parse::<u64>() {
                    cfg.deadline_ms = Some(ms);
                }
            }
        }
        if let Some(n) = batch.and_then(|v| v.trim().parse::<usize>().ok()) {
            cfg.batch_max = n.max(1);
        }
        if let Some(n) = body_cap.and_then(|v| v.trim().parse::<usize>().ok()) {
            cfg.body_cap_bytes = n;
        }
        cfg
    }

    /// Reads `QENS_SERVE_QUEUE`, `QENS_SERVE_DEADLINE_MS`,
    /// `QENS_SERVE_BATCH` and `QENS_SERVE_BODY_CAP` on top of the
    /// defaults (parsing rules in [`AdmissionConfig::from_parts`]).
    pub fn from_env() -> Self {
        let get = |k: &str| std::env::var(k).ok();
        let (q, d, b, c) = (
            get("QENS_SERVE_QUEUE"),
            get("QENS_SERVE_DEADLINE_MS"),
            get("QENS_SERVE_BATCH"),
            get("QENS_SERVE_BODY_CAP"),
        );
        Self::from_parts(q.as_deref(), d.as_deref(), b.as_deref(), c.as_deref())
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

    #[test]
    fn from_parts_parses_each_knob() {
        let cfg = AdmissionConfig::from_parts(Some("5"), Some("250"), Some("3"), Some("1024"));
        assert_eq!(cfg.queue_depth, 5);
        assert_eq!(cfg.deadline_ms, Some(250));
        assert_eq!(cfg.batch_max, 3);
        assert_eq!(cfg.body_cap_bytes, 1024);
    }

    #[test]
    fn zero_hooks_are_honoured_but_batch_is_floored() {
        let cfg = AdmissionConfig::from_parts(Some("0"), Some("0"), Some("0"), None);
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
        let cfg =
            AdmissionConfig::from_parts(Some("not-a-number"), Some("off"), Some(""), Some("-1"));
        assert_eq!(cfg, AdmissionConfig::default());
        assert_eq!(
            AdmissionConfig::from_parts(None, None, None, None),
            AdmissionConfig::default()
        );
    }
}

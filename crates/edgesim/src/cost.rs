//! Deterministic compute/communication cost model.
//!
//! The paper times training on the authors' hardware; absolute seconds are
//! not reproducible, but the *relative* claim of Fig. 8 — query-driven
//! data selectivity cuts training time in proportion to the data it skips
//! — only needs a cost model that is monotone in work done. The model
//! here charges time per sample-visit (scaled by the node's capacity) and
//! per byte on the wire (plus a per-message latency), which is exactly
//! how the dominant costs of on-node SGD and model shipping scale.

/// A node's uplink to the leader.
///
/// The default cost model assumes one shared link profile; heterogeneous
/// deployments attach a [`LinkProfile`] per node
/// ([`crate::EdgeNetwork::with_random_links`]) and the federation charges
/// each participant's transfers at its own link speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Uplink/downlink bandwidth in bytes/second.
    pub bytes_per_second: f64,
    /// One-way latency in seconds.
    pub latency_seconds: f64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        Self {
            bytes_per_second: 10e6,
            latency_seconds: 0.02,
        }
    }
}

impl LinkProfile {
    /// Seconds to ship `bytes` one way over this link.
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.latency_seconds + bytes as f64 / self.bytes_per_second
    }

    /// Per-link fault hook: the extra simulated seconds charged for
    /// `failed_attempts` lost transfers of `bytes` each, retried under
    /// `retry`'s capped exponential backoff. Each lost attempt pays the
    /// full wire time (the bytes were sent — and lost) plus the backoff
    /// wait before the next try. Zero failed attempts cost exactly
    /// nothing, keeping fault-free accounting bit-identical.
    pub fn retry_penalty_seconds(
        &self,
        bytes: usize,
        failed_attempts: usize,
        retry: &faults::RetryPolicy,
    ) -> f64 {
        (1..=failed_attempts)
            .map(|k| self.transfer_seconds(bytes) + retry.backoff_before(k))
            .sum()
    }
}

/// Cost-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Seconds one sample-visit (one sample in one epoch) costs on a
    /// capacity-1.0 node.
    pub seconds_per_sample_visit: f64,
    /// Wire bandwidth in bytes/second between any node and the leader.
    pub bytes_per_second: f64,
    /// One-way message latency in seconds.
    pub latency_seconds: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // ~25 µs per sample-visit (a small Keras model on a weak edge
        // CPU), 10 MB/s uplink, 20 ms latency.
        Self {
            seconds_per_sample_visit: 25e-6,
            bytes_per_second: 10e6,
            latency_seconds: 0.02,
        }
    }
}

impl CostModel {
    /// Simulated time for a node of `capacity` to perform
    /// `sample_visits` (= Σ samples × epochs) of training.
    ///
    /// # Panics
    /// Panics if `capacity <= 0`.
    pub fn training_seconds(&self, sample_visits: usize, capacity: f64) -> f64 {
        assert!(capacity > 0.0, "capacity must be positive");
        sample_visits as f64 * self.seconds_per_sample_visit / capacity
    }

    /// Simulated time to ship `bytes` one way.
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.latency_seconds + bytes as f64 / self.bytes_per_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_time_scales_with_work_and_capacity() {
        let m = CostModel::default();
        let t1 = m.training_seconds(1000, 1.0);
        let t2 = m.training_seconds(2000, 1.0);
        let t3 = m.training_seconds(1000, 2.0);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
        assert!((t3 - 0.5 * t1).abs() < 1e-12);
        assert_eq!(m.training_seconds(0, 1.0), 0.0);
    }

    #[test]
    fn transfer_includes_latency() {
        let m = CostModel {
            seconds_per_sample_visit: 1.0,
            bytes_per_second: 100.0,
            latency_seconds: 0.5,
        };
        assert!((m.transfer_seconds(100) - 1.5).abs() < 1e-12);
        assert!((m.transfer_seconds(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CostModel::default().training_seconds(10, 0.0);
    }

    #[test]
    fn retry_penalty_is_zero_for_no_failures() {
        let retry = faults::RetryPolicy::default();
        assert_eq!(
            LinkProfile::default().retry_penalty_seconds(1000, 0, &retry),
            0.0
        );
    }

    #[test]
    fn retry_penalty_sums_wire_time_and_backoff() {
        let link = LinkProfile {
            bytes_per_second: 100.0,
            latency_seconds: 0.5,
        };
        let retry = faults::RetryPolicy {
            max_attempts: 4,
            base_backoff_seconds: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_seconds: 1.5,
        };
        // One lost 100-byte transfer: wire time 1.5 s + backoff_before(1) = 1.0 s.
        let one = link.retry_penalty_seconds(100, 1, &retry);
        assert!((one - 2.5).abs() < 1e-12);
        // Two losses: + wire 1.5 + backoff_before(2) capped at 1.5.
        let two = link.retry_penalty_seconds(100, 2, &retry);
        assert!((two - (2.5 + 3.0)).abs() < 1e-12);
    }
}

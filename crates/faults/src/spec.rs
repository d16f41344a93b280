//! What chaos to inject, and how the federation reacts to it.

/// Declarative description of the faults to inject into a federation.
///
/// All probabilities are per-event (per node-round for dropouts and
/// stragglers, per transfer attempt for link losses); `seed` fully
/// determines every draw through [`crate::FaultPlan`]'s pure oracle.
/// [`FaultSpec::none`] is the inert spec: zero probabilities, no crash
/// schedule — a plan built from it injects nothing and the round engine
/// behaves bit-identically to a fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed driving every injected event (mixed with the query id, node
    /// id, round and attempt indices).
    pub seed: u64,
    /// Probability that a participant silently drops out for one round
    /// (selected, broadcast received, never reports). Transient: the
    /// node may participate again next round.
    pub dropout_probability: f64,
    /// Probability that a participant straggles for one round.
    pub straggler_probability: f64,
    /// Simulated-time slowdown factor range `[lo, hi]` (uniform draw,
    /// both `>= 1`) applied to a straggling participant's training.
    pub straggler_slowdown: (f64, f64),
    /// Probability that one model transfer *attempt* is lost on the
    /// wire (each retry redraws independently).
    pub link_loss_probability: f64,
    /// Permanent crashes: `(node_index, round)` — the node is dead from
    /// that communication round on (for the affected query's rounds and
    /// all later ones).
    pub crash_at_round: Vec<(usize, usize)>,
}

impl FaultSpec {
    /// The inert spec: nothing ever fires.
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout_probability: 0.0,
            straggler_probability: 0.0,
            straggler_slowdown: (1.0, 1.0),
            link_loss_probability: 0.0,
            crash_at_round: Vec::new(),
        }
    }

    /// A dropout-only spec (the Fig. 8-under-faults sweep axis).
    pub fn dropout(seed: u64, p: f64) -> Self {
        Self {
            seed,
            dropout_probability: p,
            ..Self::none()
        }
    }

    /// A moderately hostile edge deployment: occasional dropouts,
    /// stragglers running 2–6× slower, lossy links.
    pub fn unreliable_edge(seed: u64) -> Self {
        Self {
            seed,
            dropout_probability: 0.15,
            straggler_probability: 0.2,
            straggler_slowdown: (2.0, 6.0),
            link_loss_probability: 0.1,
            crash_at_round: Vec::new(),
        }
    }

    /// Sets the dropout probability.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout_probability = p;
        self
    }

    /// Sets the per-attempt link-loss probability.
    pub fn with_link_loss(mut self, p: f64) -> Self {
        self.link_loss_probability = p;
        self
    }

    /// Sets the straggler probability and slowdown range.
    pub fn with_stragglers(mut self, p: f64, slowdown: (f64, f64)) -> Self {
        self.straggler_probability = p;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Schedules a permanent crash of `node` at communication `round`.
    pub fn with_crash(mut self, node: usize, round: usize) -> Self {
        self.crash_at_round.push((node, round));
        self
    }

    /// True when no fault can ever fire (the plan is a no-op).
    pub fn is_inert(&self) -> bool {
        self.dropout_probability <= 0.0
            && self.straggler_probability <= 0.0
            && self.link_loss_probability <= 0.0
            && self.crash_at_round.is_empty()
    }

    /// Validates ranges, returning a human-readable complaint.
    ///
    /// Probabilities must lie in `[0, 1]` and slowdowns must be `>= 1`
    /// with a non-inverted range.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("dropout_probability", self.dropout_probability),
            ("straggler_probability", self.straggler_probability),
            ("link_loss_probability", self.link_loss_probability),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        let (lo, hi) = self.straggler_slowdown;
        if !(lo >= 1.0 && lo <= hi && hi.is_finite()) {
            return Err(format!(
                "straggler_slowdown range ({lo}, {hi}) invalid: need 1 <= lo <= hi < inf"
            ));
        }
        Ok(())
    }
}

/// Capped exponential backoff for retried model transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total transfer attempts per round (first try included); at least 1.
    pub max_attempts: usize,
    /// Simulated seconds waited before the first retry.
    pub base_backoff_seconds: f64,
    /// Multiplier applied per further retry.
    pub backoff_multiplier: f64,
    /// Ceiling on any single backoff wait.
    pub max_backoff_seconds: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_seconds: 0.5,
            backoff_multiplier: 2.0,
            max_backoff_seconds: 8.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated seconds waited before retry number `retry` (1-based:
    /// the wait after the first failed attempt is `backoff_before(1)`).
    /// Capped at [`RetryPolicy::max_backoff_seconds`].
    pub fn backoff_before(&self, retry: usize) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        let exp = self.backoff_multiplier.powi(retry as i32 - 1);
        (self.base_backoff_seconds * exp).min(self.max_backoff_seconds)
    }
}

/// How many survivors a communication round needs before the leader
/// aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quorum {
    /// At least this many reporting participants (floored at 1).
    AtLeast(usize),
    /// At least this fraction of the *originally selected* cohort
    /// (rounded up, floored at 1). `Fraction(1.0)` keeps the cohort at
    /// full strength by promoting a standby for every failure.
    Fraction(f64),
}

impl Default for Quorum {
    fn default() -> Self {
        Quorum::AtLeast(1)
    }
}

impl Quorum {
    /// The concrete survivor count required for a cohort of `selected`
    /// initially chosen participants. Always at least 1.
    pub fn required(&self, selected: usize) -> usize {
        match *self {
            Quorum::AtLeast(n) => n.max(1),
            Quorum::Fraction(f) => {
                let f = f.clamp(0.0, 1.0);
                ((f * selected as f64).ceil() as usize).max(1)
            }
        }
    }
}

/// The federation's complete reaction policy to injected faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTolerance {
    /// Transfer retry/backoff policy.
    pub retry: RetryPolicy,
    /// Simulated-seconds straggler deadline per round: once a
    /// participant's simulated train+transfer time exceeds it, the
    /// leader stops waiting and aggregates whoever reported. `None`
    /// waits forever (the pre-fault behaviour).
    pub straggler_deadline_seconds: Option<f64>,
    /// Minimum surviving cohort before ranked standbys are promoted —
    /// and, when the standby list runs dry, before the round fails with
    /// a quorum-lost error.
    pub quorum: Quorum,
}

impl FaultTolerance {
    /// Full-strength tolerance: keep the cohort at its selected size via
    /// ranked replacements (quorum = 100% of the selection).
    pub fn full_strength() -> Self {
        Self {
            quorum: Quorum::Fraction(1.0),
            ..Self::default()
        }
    }

    /// Sets the straggler deadline.
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.straggler_deadline_seconds = Some(seconds);
        self
    }

    /// Sets the quorum rule.
    pub fn with_quorum(mut self, quorum: Quorum) -> Self {
        self.quorum = quorum;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_spec_is_inert() {
        assert!(FaultSpec::none().is_inert());
        assert!(!FaultSpec::dropout(1, 0.2).is_inert());
        assert!(!FaultSpec::none().with_crash(0, 1).is_inert());
        assert!(!FaultSpec::none().with_link_loss(0.5).is_inert());
        assert!(!FaultSpec::none()
            .with_stragglers(0.1, (2.0, 3.0))
            .is_inert());
    }

    #[test]
    fn validate_catches_bad_ranges() {
        assert!(FaultSpec::none().validate().is_ok());
        assert!(FaultSpec::unreliable_edge(1).validate().is_ok());
        assert!(FaultSpec::dropout(0, 1.5).validate().is_err());
        assert!(FaultSpec::dropout(0, -0.1).validate().is_err());
        assert!(FaultSpec::none()
            .with_link_loss(f64::NAN)
            .validate()
            .is_err());
        let bad_slow = FaultSpec::none().with_stragglers(0.1, (0.5, 2.0));
        assert!(bad_slow.validate().is_err());
        let inverted = FaultSpec::none().with_stragglers(0.1, (4.0, 2.0));
        assert!(inverted.validate().is_err());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_before(0), 0.0);
        assert!((r.backoff_before(1) - 0.5).abs() < 1e-12);
        assert!((r.backoff_before(2) - 1.0).abs() < 1e-12);
        assert!((r.backoff_before(3) - 2.0).abs() < 1e-12);
        // Capped at max_backoff_seconds.
        assert!((r.backoff_before(20) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn quorum_required_floors_at_one() {
        assert_eq!(Quorum::AtLeast(0).required(5), 1);
        assert_eq!(Quorum::AtLeast(3).required(5), 3);
        assert_eq!(Quorum::Fraction(0.0).required(5), 1);
        assert_eq!(Quorum::Fraction(0.5).required(5), 3); // ceil(2.5)
        assert_eq!(Quorum::Fraction(1.0).required(4), 4);
        assert_eq!(Quorum::Fraction(2.0).required(4), 4); // clamped
        assert_eq!(Quorum::default().required(10), 1);
    }

    #[test]
    fn tolerance_builders_compose() {
        let t = FaultTolerance::full_strength()
            .with_deadline(12.5)
            .with_retry(RetryPolicy {
                max_attempts: 5,
                ..RetryPolicy::default()
            });
        assert_eq!(t.quorum, Quorum::Fraction(1.0));
        assert_eq!(t.straggler_deadline_seconds, Some(12.5));
        assert_eq!(t.retry.max_attempts, 5);
        assert_eq!(FaultTolerance::default().straggler_deadline_seconds, None);
    }
}

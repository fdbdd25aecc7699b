//! Cluster, timeout and view-change policy configuration.
//!
//! All durations in this module are expressed in **milliseconds of simulated
//! time** (`f64`), matching the units the paper reports (timeout ranges like
//! `[300, 600 ms]`, netem delays of `10 ± 5 ms`, rotation policies of 10 / 30
//! seconds). The simulator converts them into its internal tick representation.

use crate::ids::ReplicaSet;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// Timer configuration for failure detection and elections (§4.2.1, §6.2).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct TimeoutConfig {
    /// Lower bound of the randomized follower/candidate timeout (ms).
    pub base_timeout_ms: f64,
    /// Amount of randomization ε added on top of the base timeout (ms); the
    /// effective timeout is drawn uniformly from `[base, base + randomization]`.
    pub randomization_ms: f64,
    /// How long a client waits for `f + 1` Notifs before complaining (ms).
    pub client_timeout_ms: f64,
    /// How long a follower waits for the leader to commit a complained-about
    /// transaction before broadcasting `ConfVC` (ms).
    pub complaint_grace_ms: f64,
}

impl Default for TimeoutConfig {
    fn default() -> Self {
        // The paper's §6.2 setting: timeouts drawn from [800, 1200] ms,
        // 1 s client patience.
        TimeoutConfig {
            base_timeout_ms: 800.0,
            randomization_ms: 400.0,
            client_timeout_ms: 1000.0,
            complaint_grace_ms: 300.0,
        }
    }
}

impl TimeoutConfig {
    /// The paper's normal-operation example range `[300, 600] ms` for Δ=30 ms.
    pub fn fast() -> Self {
        TimeoutConfig {
            base_timeout_ms: 300.0,
            randomization_ms: 300.0,
            client_timeout_ms: 400.0,
            complaint_grace_ms: 100.0,
        }
    }
}

/// When servers trigger view changes beyond failure detection (§4.2.1 and the
/// r10 / r30 policies of §6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum ViewChangePolicy {
    /// Only change views when a leader failure is confirmed.
    OnFailureOnly,
    /// Rotate leadership every `interval_ms` of simulated time (the paper's
    /// timing policy; r10 = 10 000 ms, r30 = 30 000 ms).
    Timing {
        /// Rotation interval in milliseconds.
        interval_ms: f64,
    },
}

impl ViewChangePolicy {
    /// The paper's `r10` policy: rotate every 10 seconds.
    pub fn r10() -> Self {
        ViewChangePolicy::Timing {
            interval_ms: 10_000.0,
        }
    }

    /// The paper's `r30` policy: rotate every 30 seconds.
    pub fn r30() -> Self {
        ViewChangePolicy::Timing {
            interval_ms: 30_000.0,
        }
    }
}

/// Full cluster configuration shared by PrestigeBFT and the baselines.
///
/// # Examples
///
/// Quorum sizes derive from `n`, and the builder setters compose:
///
/// ```
/// use prestige_types::{ClusterConfig, TimeoutConfig, ViewChangePolicy};
///
/// let config = ClusterConfig::new(4)
///     .with_batch_size(500)
///     .with_timeouts(TimeoutConfig::fast())
///     .with_policy(ViewChangePolicy::r10());
/// assert_eq!(config.f(), 1);
/// assert_eq!(config.quorum(), 3);
/// assert_eq!(config.batch_size, 500);
/// assert_eq!(
///     config.policy,
///     ViewChangePolicy::Timing { interval_ms: 10_000.0 }
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct ClusterConfig {
    /// The replica set (`n`, and derived `f` and quorum sizes).
    pub replicas: ReplicaSet,
    /// Maximum number of transactions per txBlock (batch size β).
    pub batch_size: usize,
    /// Client payload size `m` in bytes (32 or 64 in the paper).
    pub payload_size: usize,
    /// Timer configuration.
    pub timeouts: TimeoutConfig,
    /// View-change policy.
    pub policy: ViewChangePolicy,
    /// How many committed instances between certified checkpoints: at every
    /// multiple of this height a replica broadcasts a signed state-digest
    /// share, and `2f + 1` matching shares form a checkpoint certificate
    /// that anchors log garbage collection and far-behind catch-up. Every
    /// server's shares also set the horizon the block store is pruned
    /// below, so the interval is positive.
    pub checkpoint_interval: u64,
}

impl ClusterConfig {
    /// A sensible default cluster of `n` servers: β=100, m=32, default timers.
    pub fn new(n: u32) -> Self {
        ClusterConfig {
            replicas: ReplicaSet::new(n),
            batch_size: 100,
            payload_size: 32,
            timeouts: TimeoutConfig::default(),
            policy: ViewChangePolicy::OnFailureOnly,
            checkpoint_interval: 64,
        }
    }

    /// Convenience accessor for `f`.
    pub fn f(&self) -> u32 {
        self.replicas.f()
    }

    /// Convenience accessor for `n`.
    pub fn n(&self) -> u32 {
        self.replicas.n()
    }

    /// Convenience accessor for the 2f+1 quorum.
    pub fn quorum(&self) -> u32 {
        self.replicas.quorum()
    }

    /// Builder-style setter for the batch size β.
    pub fn with_batch_size(mut self, beta: usize) -> Self {
        self.batch_size = beta;
        self
    }

    /// Builder-style setter for the payload size m.
    pub fn with_payload_size(mut self, m: usize) -> Self {
        self.payload_size = m;
        self
    }

    /// Builder-style setter for the view-change policy.
    pub fn with_policy(mut self, policy: ViewChangePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style setter for the timeout configuration.
    pub fn with_timeouts(mut self, timeouts: TimeoutConfig) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Builder-style setter for the checkpoint interval, which must be
    /// positive: checkpoints also bound the block store.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint_interval must be positive");
        self.checkpoint_interval = interval;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_config_quorums() {
        let c = ClusterConfig::new(4);
        assert_eq!(c.f(), 1);
        assert_eq!(c.quorum(), 3);
        assert_eq!(c.n(), 4);
    }

    #[test]
    fn builder_setters_compose() {
        let c = ClusterConfig::new(16)
            .with_batch_size(3000)
            .with_payload_size(64)
            .with_policy(ViewChangePolicy::r10());
        assert_eq!(c.batch_size, 3000);
        assert_eq!(c.payload_size, 64);
        assert_eq!(
            c.policy,
            ViewChangePolicy::Timing {
                interval_ms: 10_000.0
            }
        );
    }

    #[test]
    fn timeout_defaults_match_paper_ranges() {
        let t = TimeoutConfig::default();
        assert_eq!(t.base_timeout_ms, 800.0);
        assert_eq!(t.base_timeout_ms + t.randomization_ms, 1200.0);
        let fast = TimeoutConfig::fast();
        assert_eq!(fast.base_timeout_ms, 300.0);
        assert_eq!(fast.base_timeout_ms + fast.randomization_ms, 600.0);
    }

    #[test]
    fn policies() {
        assert_eq!(
            ViewChangePolicy::r30(),
            ViewChangePolicy::Timing {
                interval_ms: 30_000.0
            }
        );
    }

    #[test]
    fn checkpoint_interval_defaults_and_composes() {
        let c = ClusterConfig::new(4);
        assert_eq!(c.checkpoint_interval, 64);
        let c = c.with_checkpoint_interval(16);
        assert_eq!(c.checkpoint_interval, 16);
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval must be positive")]
    fn a_zero_checkpoint_interval_is_refused() {
        let _ = ClusterConfig::new(4).with_checkpoint_interval(0);
    }
}

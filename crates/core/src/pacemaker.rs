//! Timers and view-change policies.
//!
//! The pacemaker owns everything time-related on a server: the randomized
//! timeout used while waiting for view-change confirmations and election
//! votes (§4.2.1: "a timer with a random timeout ... sufficiently greater than
//! network latency"), the batch flush cadence of a leader, and the
//! policy-driven rotations of §6.2 (`r10`, `r30`).

use prestige_sim::{SimDuration, SimRng};
use prestige_types::{TimeoutConfig, ViewChangePolicy};

/// Timer tags used by [`PrestigeServer`](crate::PrestigeServer) and
/// [`PrestigeClient`](crate::PrestigeClient) to distinguish timer kinds.
pub mod timer_tags {
    /// Policy-driven rotation check (the `r10` / `r30` timing policies).
    pub const POLICY: u64 = 1;
    /// A relayed complaint is waiting for the leader to commit.
    pub const COMPLAINT: u64 = 2;
    /// Waiting for `f + 1` ReVC replies after broadcasting ConfVC.
    pub const CONF_VC: u64 = 3;
    /// Modeled proof-of-work completion (redeemer → candidate transition).
    pub const POW_DONE: u64 = 4;
    /// Candidate election timeout (split-vote detection).
    pub const ELECTION: u64 = 5;
    /// Leader batch flush.
    pub const BATCH: u64 = 6;
    /// Client progress check.
    pub const CLIENT_CHECK: u64 = 7;
    /// Byzantine repeated-view-change attack trigger.
    pub const ATTACK: u64 = 8;
    /// Randomized back-off before campaigning for a policy-driven rotation.
    pub const POLICY_CAMPAIGN: u64 = 9;
    /// Periodic recovery-plane repair tick: a server whose committed tip has
    /// stalled requests the missing committed blocks or certified ordered
    /// batches from a rotating peer instead of waiting for the
    /// client-complaint → view-change path.
    pub const SYNC_REPAIR: u64 = 10;
}

/// Server-side timing logic.
#[derive(Debug, Clone)]
pub struct Pacemaker {
    timeouts: TimeoutConfig,
    policy: ViewChangePolicy,
    /// When true the randomized component is suppressed (used by the F1
    /// timeout-mimicry attack so faulty servers collide with correct ones).
    deterministic_timeout: bool,
}

impl Pacemaker {
    /// Creates a pacemaker from the cluster's timeout configuration and
    /// view-change policy.
    pub fn new(timeouts: TimeoutConfig, policy: ViewChangePolicy) -> Self {
        Pacemaker {
            timeouts,
            policy,
            deterministic_timeout: false,
        }
    }

    /// Suppresses timeout randomization (F1 attack behaviour).
    pub fn set_deterministic_timeout(&mut self, on: bool) {
        self.deterministic_timeout = on;
    }

    /// The timeout configuration.
    pub fn timeouts(&self) -> &TimeoutConfig {
        &self.timeouts
    }

    /// The view-change policy.
    pub fn policy(&self) -> &ViewChangePolicy {
        &self.policy
    }

    /// Draws a randomized view-change / election timeout from
    /// `[base, base + randomization]`.
    pub fn election_timeout(&self, rng: &mut SimRng) -> SimDuration {
        let base = self.timeouts.base_timeout_ms;
        if self.deterministic_timeout || self.timeouts.randomization_ms <= 0.0 {
            return SimDuration::from_ms(base);
        }
        let jitter = rng.uniform(0.0, self.timeouts.randomization_ms);
        SimDuration::from_ms(base + jitter)
    }

    /// How long a follower waits for a complained-about transaction to commit
    /// before broadcasting `ConfVC`.
    pub fn complaint_grace(&self) -> SimDuration {
        SimDuration::from_ms(self.timeouts.complaint_grace_ms)
    }

    /// The leader's batch flush interval. Scaled well below the client
    /// timeout so partially filled batches still commit promptly.
    pub fn batch_interval(&self) -> SimDuration {
        SimDuration::from_ms((self.timeouts.client_timeout_ms / 50.0).clamp(1.0, 20.0))
    }

    /// The policy rotation interval, if a timing policy is configured.
    pub fn rotation_interval(&self) -> Option<SimDuration> {
        match self.policy {
            ViewChangePolicy::Timing { interval_ms } => Some(SimDuration::from_ms(interval_ms)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_timeout_within_configured_range() {
        let pm = Pacemaker::new(TimeoutConfig::default(), ViewChangePolicy::OnFailureOnly);
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let t = pm.election_timeout(&mut rng).as_ms();
            assert!((800.0..=1200.0).contains(&t), "timeout {t} out of range");
        }
    }

    #[test]
    fn deterministic_timeout_removes_jitter() {
        let mut pm = Pacemaker::new(TimeoutConfig::default(), ViewChangePolicy::OnFailureOnly);
        pm.set_deterministic_timeout(true);
        let mut rng = SimRng::new(2);
        assert_eq!(pm.election_timeout(&mut rng).as_ms(), 800.0);
        assert_eq!(pm.election_timeout(&mut rng).as_ms(), 800.0);
    }

    #[test]
    fn zero_randomization_is_deterministic() {
        let cfg = TimeoutConfig {
            randomization_ms: 0.0,
            ..TimeoutConfig::default()
        };
        let pm = Pacemaker::new(cfg, ViewChangePolicy::OnFailureOnly);
        let mut rng = SimRng::new(3);
        assert_eq!(pm.election_timeout(&mut rng).as_ms(), 800.0);
    }

    #[test]
    fn rotation_interval_follows_policy() {
        let r10 = Pacemaker::new(TimeoutConfig::default(), ViewChangePolicy::r10());
        assert_eq!(r10.rotation_interval(), Some(SimDuration::from_secs(10.0)));
        let none = Pacemaker::new(TimeoutConfig::default(), ViewChangePolicy::OnFailureOnly);
        assert_eq!(none.rotation_interval(), None);
    }

    #[test]
    fn derived_intervals() {
        let pm = Pacemaker::new(TimeoutConfig::default(), ViewChangePolicy::OnFailureOnly);
        assert!(pm.batch_interval().as_ms() >= 1.0);
        assert!(pm.complaint_grace().as_ms() > 0.0);
        assert_eq!(pm.timeouts().base_timeout_ms, 800.0);
    }
}

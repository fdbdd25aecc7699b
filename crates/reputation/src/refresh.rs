//! The penalty refresh mechanism (§4.2.5).
//!
//! Under partial synchrony a long pre-GST period can trigger timeouts on
//! correct servers and penalize them through no fault of their own. The paper
//! therefore allows a refresh: when at least `f + 1` (non-faulty) servers have
//! penalties above a threshold π, a server may broadcast `Ref` messages;
//! collecting `2f + 1` of them forms an `rs_QC` that authorizes resetting its
//! `rp` and `ci` to the initial values.
//!
//! This module provides the bookkeeping side: deciding when a refresh is
//! *eligible* (the `f + 1`-above-π precondition) and tracking collected `Ref`
//! endorsements per view. The QC assembly itself reuses
//! `prestige_crypto::QcBuilder` in the protocol core.

use prestige_types::{ServerId, View};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The refresh threshold π (§4.2.5): a penalty above it counts towards the
/// `f + 1` overloaded servers a refresh needs.
pub const REFRESH_THRESHOLD_PI: i64 = 8;

/// Tracks refresh eligibility and collected endorsements.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RefreshTracker {
    /// Servers that must observe penalties above π before a refresh is
    /// allowed (`f + 1`).
    required_overloaded: u32,
    /// Endorsements collected per (view, refreshing server).
    endorsements: BTreeMap<(View, ServerId), BTreeSet<ServerId>>,
}

impl RefreshTracker {
    /// Creates a tracker for a cluster tolerating `f` faults (so `f + 1`
    /// overloaded servers are required).
    pub fn new(f: u32) -> Self {
        RefreshTracker {
            required_overloaded: f + 1,
            endorsements: BTreeMap::new(),
        }
    }

    /// Whether a refresh may be initiated given the current penalty map: at
    /// least `f + 1` servers must have `rp > π`.
    pub fn refresh_allowed(&self, penalties: &BTreeMap<ServerId, i64>) -> bool {
        let overloaded = penalties
            .values()
            .filter(|rp| **rp > REFRESH_THRESHOLD_PI)
            .count() as u32;
        overloaded >= self.required_overloaded
    }

    /// Records an endorsement (`Ref` message) from `endorser` for `server`'s
    /// refresh in `view`. Returns the number of distinct endorsements so far.
    pub fn record_endorsement(&mut self, view: View, server: ServerId, endorser: ServerId) -> u32 {
        let set = self.endorsements.entry((view, server)).or_default();
        set.insert(endorser);
        set.len() as u32
    }

    /// Number of distinct endorsements collected for `server`'s refresh in
    /// `view`.
    pub fn endorsement_count(&self, view: View, server: ServerId) -> u32 {
        self.endorsements
            .get(&(view, server))
            .map(|s| s.len() as u32)
            .unwrap_or(0)
    }

    /// Clears endorsements recorded for views older than `view` (they can no
    /// longer form a valid `rs_QC`).
    pub fn prune_below(&mut self, view: View) {
        self.endorsements.retain(|(v, _), _| *v >= view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn penalties(vals: &[(u32, i64)]) -> BTreeMap<ServerId, i64> {
        vals.iter().map(|(id, rp)| (ServerId(*id), *rp)).collect()
    }

    #[test]
    fn refresh_requires_f_plus_one_overloaded() {
        let tracker = RefreshTracker::new(1); // f = 1 → need 2 overloaded
        assert!(!tracker.refresh_allowed(&penalties(&[(0, 9), (1, 2), (2, 1), (3, 1)])));
        assert!(tracker.refresh_allowed(&penalties(&[(0, 9), (1, 10), (2, 1), (3, 1)])));
    }

    #[test]
    fn penalty_exactly_at_threshold_does_not_count() {
        let tracker = RefreshTracker::new(1);
        assert!(!tracker.refresh_allowed(&penalties(&[(0, 8), (1, 8), (2, 8), (3, 8)])));
    }

    #[test]
    fn endorsements_are_deduplicated_per_view_and_target() {
        let mut tracker = RefreshTracker::new(1);
        let v = View(3);
        assert_eq!(tracker.record_endorsement(v, ServerId(0), ServerId(1)), 1);
        assert_eq!(tracker.record_endorsement(v, ServerId(0), ServerId(1)), 1);
        assert_eq!(tracker.record_endorsement(v, ServerId(0), ServerId(2)), 2);
        assert_eq!(tracker.endorsement_count(v, ServerId(0)), 2);
        // A different target server accumulates separately.
        assert_eq!(tracker.endorsement_count(v, ServerId(1)), 0);
        // A different view accumulates separately.
        assert_eq!(tracker.endorsement_count(View(4), ServerId(0)), 0);
    }

    #[test]
    fn pruning_discards_stale_views() {
        let mut tracker = RefreshTracker::new(1);
        tracker.record_endorsement(View(2), ServerId(0), ServerId(1));
        tracker.record_endorsement(View(5), ServerId(0), ServerId(1));
        tracker.prune_below(View(4));
        assert_eq!(tracker.endorsement_count(View(2), ServerId(0)), 0);
        assert_eq!(tracker.endorsement_count(View(5), ServerId(0)), 1);
    }
}

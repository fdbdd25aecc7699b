//! The penalty refresh mechanism (§4.2.5).
//!
//! Under partial synchrony a long pre-GST period can trigger timeouts on
//! correct servers and penalize them through no fault of their own. The paper
//! therefore allows a refresh: when at least `f + 1` (non-faulty) servers have
//! penalties above a threshold π, a server may broadcast `Ref` messages;
//! collecting `2f + 1` of them forms an `rs_QC` that authorizes resetting its
//! `rp` and `ci` to the initial values.
//!
//! This module holds the eligibility rule, the `f + 1`-above-π
//! precondition. The QC assembly itself reuses `prestige_crypto::QcBuilder`
//! in the protocol core, one collector per server and view.

use prestige_types::ServerId;
use std::collections::BTreeMap;

/// The refresh threshold π (§4.2.5): a penalty above it counts towards the
/// `f + 1` overloaded servers a refresh needs.
pub const REFRESH_THRESHOLD_PI: i64 = 8;

/// Whether a refresh may be initiated given the current penalty map in a
/// cluster tolerating `f` faults: at least `f + 1` servers must have
/// `rp > π`.
pub fn refresh_allowed(penalties: &BTreeMap<ServerId, i64>, f: u32) -> bool {
    let overloaded = penalties.values().filter(|rp| **rp > REFRESH_THRESHOLD_PI);
    overloaded.count() > f as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn penalties(vals: &[(u32, i64)]) -> BTreeMap<ServerId, i64> {
        vals.iter().map(|(id, rp)| (ServerId(*id), *rp)).collect()
    }

    #[test]
    fn refresh_requires_f_plus_one_overloaded() {
        // f = 1 → need 2 overloaded
        assert!(!refresh_allowed(
            &penalties(&[(0, 9), (1, 2), (2, 1), (3, 1)]),
            1
        ));
        assert!(refresh_allowed(
            &penalties(&[(0, 9), (1, 10), (2, 1), (3, 1)]),
            1
        ));
    }

    #[test]
    fn penalty_exactly_at_threshold_does_not_count() {
        assert!(!refresh_allowed(
            &penalties(&[(0, 8), (1, 8), (2, 8), (3, 8)]),
            1
        ));
    }
}

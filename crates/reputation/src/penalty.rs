//! Step 1 of CalcRP — penalization (Eq. 1 of the paper).
//!
//! A server's penalty is increased by the number of views it attempts to jump
//! when campaigning: `rp_temp(V') = rp(V) + (V' − V)`. Correct servers always
//! increment their view by exactly one, so the increase is 1; a Byzantine
//! server that tries to leap many views ahead (to overload the view data
//! structure or to skip ahead of competitors) pays proportionally.

use prestige_types::View;

/// Every server's penalty at genesis and after a refresh: `rp(1) = 1`.
pub const INITIAL_RP: i64 = 1;

/// Applies Eq. 1: the temporary penalty after penalization.
///
/// `current_rp` is the server's penalty recorded in the vcBlock of
/// `current_view`; `new_view` is the view being campaigned for. Campaigns for
/// a view at or below the current view make no sense and are clamped to a
/// zero increase (the protocol rejects them elsewhere).
pub fn penalize(current_rp: i64, current_view: View, new_view: View) -> i64 {
    let jump = new_view.delta(current_view).max(0);
    current_rp + jump
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_server_increments_by_one() {
        // Appendix C: S1 campaigns for V2 from V1 with rp(1)=1 → rp_temp = 2.
        assert_eq!(penalize(1, View(1), View(2)), 2);
    }

    #[test]
    fn repeated_campaigns_accumulate() {
        // S1 keeps repossessing leadership from V1 to V5 without replication:
        // rp climbs 1 → 2 → 3 → 4 → 5 (Appendix C example 1).
        let mut rp = 1;
        for v in 1..5u64 {
            rp = penalize(rp, View(v), View(v + 1));
        }
        assert_eq!(rp, 5);
    }

    #[test]
    fn view_jump_is_penalized_proportionally() {
        // A Byzantine server campaigning 10 views ahead pays 10.
        assert_eq!(penalize(1, View(1), View(11)), 11);
    }

    #[test]
    fn non_advancing_campaign_adds_nothing() {
        assert_eq!(penalize(3, View(5), View(5)), 3);
        assert_eq!(penalize(3, View(5), View(4)), 3);
    }
}

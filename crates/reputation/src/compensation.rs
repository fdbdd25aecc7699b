//! Step 2 of CalcRP — compensating good behaviour history (Eqs. 2–4).
//!
//! Two criteria feed the compensation:
//!
//! * **Incremental log responsiveness** `δtx = (ti − ci)/ti` (Eq. 2): `ti` is
//!   the sequence number of the server's latest committed txBlock and `ci` is
//!   the compensation index — how many txBlocks were already consumed by past
//!   compensations. A server must keep replicating *more* blocks after each
//!   compensation to keep earning it.
//! * **Leadership zealousness** `δvc = 1 − sigmoid((rp − μ_P)/σ_P)` (Eq. 3):
//!   the z-score of the current penalty against the server's own penalty
//!   history; penalties that grow slowly (or not at all) earn more.
//!
//! The deduction applied to the penalized value is
//! `δ = rp_temp · Cδ · δtx · δvc`, and the final penalty is
//! `rp' = rp_temp − ⌊δ⌋` (Eq. 4). Because `0 ≤ δtx ≤ 1` and `0 < δvc < 1`,
//! the deduction is always a strict fraction of `rp_temp`.

use crate::history::PenaltyHistory;

/// Every server's compensation index at genesis and after a refresh: no
/// txBlock consumed yet, `ci = 1`.
pub const INITIAL_CI: u64 = 1;

/// The paper's `Cδ` of Eq. 4, weighting `δtx·δvc` against the penalty. The
/// paper runs with 1; applications may weight it differently (§3).
pub const C_DELTA: f64 = 1.0;

/// The logistic sigmoid `1 / (1 + e^(-x))`.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Eq. 2 — incremental log responsiveness.
///
/// `ti` is the latest committed sequence number, `ci` the compensation index.
/// The result is clamped to `[0, 1]`: a server whose log has not advanced
/// past its compensation index earns nothing, and the paper's invariant
/// `0 ≤ δtx ≤ 1` always holds (the genesis case `ti = 0` is defined as 0).
pub fn delta_tx(ti: u64, ci: u64) -> f64 {
    if ti == 0 {
        return 0.0;
    }
    let raw = (ti as f64 - ci as f64) / ti as f64;
    raw.clamp(0.0, 1.0)
}

/// Eq. 3 — leadership zealousness.
///
/// `current_rp` is the penalty recorded for the server in the *current* view
/// (before penalization) and `history` is the penalty set `P` collected from
/// all vcBlocks. Returns a value in `(0, 1)`: higher when the current penalty
/// is not ahead of its own history.
pub fn delta_vc(current_rp: i64, history: &PenaltyHistory) -> f64 {
    // The sigmoid saturates in floating point for extreme z-scores; clamp to
    // the open interval (0, 1) the paper states, so a wildly penalized server
    // gets an (effectively zero) compensation factor rather than exactly zero.
    (1.0 - sigmoid(history.z_score(current_rp))).clamp(1e-12, 1.0 - 1e-12)
}

/// Eq. 4 — the compensation deduction `δ` (before flooring).
pub fn deduction(rp_temp: i64, c_delta: f64, d_tx: f64, d_vc: f64) -> f64 {
    rp_temp as f64 * c_delta * d_tx * d_vc
}

/// Applies Eq. 4 end to end: `rp' = rp_temp − ⌊δ⌋`, never dropping below 1
/// (the initial penalty — the deduction is a strict fraction of `rp_temp`, so
/// this floor only matters for degenerate configurations of `Cδ > 1`).
pub fn compensate(rp_temp: i64, c_delta: f64, d_tx: f64, d_vc: f64) -> i64 {
    let delta = deduction(rp_temp, c_delta, d_tx, d_vc);
    (rp_temp - delta.floor() as i64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_shape() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // Strictly increasing.
        assert!(sigmoid(1.0) > sigmoid(0.5));
    }

    #[test]
    fn delta_tx_paper_examples() {
        // Figure 4a example 2: ci=1, ti=10 → 0.9.
        assert!((delta_tx(10, 1) - 0.9).abs() < 1e-12);
        // Figure 4a example 3: ci=10, ti=50 → 0.8.
        assert!((delta_tx(50, 10) - 0.8).abs() < 1e-12);
        // Figure 4c row 3: ci=20, ti=50 → 0.6.
        assert!((delta_tx(50, 20) - 0.6).abs() < 1e-12);
        // Figure 4c row 4: ci=20, ti=100 → 0.8.
        assert!((delta_tx(100, 20) - 0.8).abs() < 1e-12);
        // Appendix C example 6: ci=20, ti=400 → 0.95.
        assert!((delta_tx(400, 20) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn delta_tx_boundaries() {
        // No progress since the last compensation → 0 (Figure 4c row 1).
        assert_eq!(delta_tx(1, 1), 0.0);
        // Initial state ti=0 is defined as 0.
        assert_eq!(delta_tx(0, 1), 0.0);
        // Regression (ci > ti, e.g. after a refresh race) clamps to 0.
        assert_eq!(delta_tx(5, 10), 0.0);
        // Huge progress approaches but never exceeds 1.
        assert!(delta_tx(1_000_000, 1) < 1.0);
    }

    #[test]
    fn delta_vc_paper_examples() {
        // P = {1,2,3,4,5}, rp = 5 → z ≈ 1.41, δvc ≈ 0.19.
        let p = PenaltyHistory::new(vec![1, 2, 3, 4, 5]);
        assert!((delta_vc(5, &p) - 0.19).abs() < 0.01);

        // P = {1,2,3,4,5,5}, rp = 5 → δvc ≈ 0.25.
        let p = PenaltyHistory::new(vec![1, 2, 3, 4, 5, 5]);
        assert!((delta_vc(5, &p) - 0.25).abs() < 0.01);

        // P5 = {1,2,3,4} + ten 5s, rp = 5 → δvc ≈ 0.36.
        let mut vals = vec![1, 2, 3, 4];
        vals.extend(std::iter::repeat_n(5, 10));
        let p = PenaltyHistory::new(vals);
        assert!((delta_vc(5, &p) - 0.36).abs() < 0.01);
    }

    #[test]
    fn delta_vc_rewards_stable_penalties() {
        // A server whose penalty stayed flat relative to history earns more
        // than one whose penalty is racing ahead.
        let stable = PenaltyHistory::new(vec![3, 3, 3, 3, 3]);
        let racing = PenaltyHistory::new(vec![1, 2, 3, 4, 5]);
        assert!(delta_vc(3, &stable) > delta_vc(5, &racing));
    }

    #[test]
    fn delta_vc_is_bounded() {
        let p = PenaltyHistory::new(vec![1, 5, 9]);
        for rp in [-100, 0, 1, 5, 9, 100] {
            let v = delta_vc(rp, &p);
            assert!(v > 0.0 && v < 1.0, "δvc out of range for rp={rp}: {v}");
        }
    }

    #[test]
    fn deduction_and_compensation_paper_rows() {
        // Figure 4c row 2: δ = 6 · 1 · ~0.95..1 · 0.19 ≈ 1.14 → floor 1 → rp 5.
        let p = PenaltyHistory::new(vec![1, 2, 3, 4, 5]);
        let d_vc = delta_vc(5, &p);
        let d_tx = delta_tx(20, 1);
        let rp = compensate(6, 1.0, d_tx, d_vc);
        assert_eq!(rp, 5);

        // Figure 4c row 3: δ ≈ 0.89 → floor 0 → rp 6.
        let p = PenaltyHistory::new(vec![1, 2, 3, 4, 5, 5]);
        let rp = compensate(6, 1.0, delta_tx(50, 20), delta_vc(5, &p));
        assert_eq!(rp, 6);

        // Figure 4c row 4: δ ≈ 1.2 → floor 1 → rp 5.
        let rp = compensate(6, 1.0, delta_tx(100, 20), delta_vc(5, &p));
        assert_eq!(rp, 5);
    }

    #[test]
    fn deduction_is_always_less_than_rp_temp() {
        // 0 ≤ δ < rp_temp for Cδ = 1 since δtx ≤ 1 and δvc < 1.
        let p = PenaltyHistory::new(vec![1, 1, 2, 8]);
        for rp_temp in 1..50i64 {
            let d = deduction(rp_temp, 1.0, 1.0, delta_vc(1, &p));
            assert!(d >= 0.0 && d < rp_temp as f64);
        }
    }

    /// `Cδ` scales the compensation, as §3 describes for applications that
    /// want to weight δtx·δvc differently (Figure 4c row 4's inputs).
    #[test]
    fn c_delta_scales_compensation() {
        let p = PenaltyHistory::new(vec![1, 2, 3, 4, 5, 5]);
        let (d_tx, d_vc) = (delta_tx(100, 20), delta_vc(5, &p));
        assert!(deduction(6, 2.0, d_tx, d_vc) > deduction(6, 0.1, d_tx, d_vc));
        assert!(compensate(6, 2.0, d_tx, d_vc) < compensate(6, 0.1, d_tx, d_vc));
    }

    #[test]
    fn compensation_never_drops_below_one() {
        assert_eq!(compensate(1, 10.0, 1.0, 0.99), 1);
    }
}

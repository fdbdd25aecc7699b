//! The reputation engine: Algorithm 1 (`CalcRP`) end to end.
//!
//! The engine is deliberately *pure*: it takes a snapshot of the information a
//! server reads from its state machine (the current vcBlock's view and the
//! server's rp/ci in it, the penalty history across all vcBlocks, and the
//! latest committed txBlock sequence number) and returns the would-be new
//! penalty and compensation index. Nothing is written back — per §3
//! ("Features"), the engine acts as a consultant and only VC consensus
//! installs the result, and only for the elected leader.

use crate::compensation::{deduction, delta_tx, delta_vc, C_DELTA, INITIAL_CI};
use crate::history::PenaltyHistory;
use crate::penalty::{penalize, INITIAL_RP};
use crate::refresh::REFRESH_THRESHOLD_PI;
use prestige_types::{SeqNum, View};
use serde::{Deserialize, Serialize};

/// Everything `CalcRP` reads (Algorithm 1's `Require:` line), decoupled from
/// block storage so the engine can be driven by the protocol core, by voters
/// re-verifying a candidate (criterion C4), and directly by tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalcRpInput {
    /// The current view `V` (from the current vcBlock).
    pub current_view: View,
    /// The view being campaigned for, `V'`.
    pub new_view: View,
    /// The server's penalty recorded in the current vcBlock, `rp(V)`.
    pub current_rp: i64,
    /// The server's compensation index recorded in the current vcBlock.
    pub current_ci: u64,
    /// The sequence number of the server's latest committed txBlock (`ti`).
    pub latest_tx_seq: SeqNum,
    /// The penalty history `P`: the server's rp in every vcBlock from the
    /// current one back to genesis (order irrelevant).
    pub penalty_history: Vec<i64>,
}

/// The result of one `CalcRP` evaluation, including the intermediate values
/// (useful for traces, the walkthrough example, and the figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpOutcome {
    /// The penalized-but-uncompensated value `rp_temp(V')` (Eq. 1).
    pub rp_temp: i64,
    /// Incremental log responsiveness `δtx` (Eq. 2).
    pub delta_tx: f64,
    /// Leadership zealousness `δvc` (Eq. 3).
    pub delta_vc: f64,
    /// The raw deduction `δ` before flooring (Eq. 4).
    pub delta: f64,
    /// The new penalty `rp(V')`.
    pub new_rp: i64,
    /// The new compensation index. Updated to `ti` only when a compensation
    /// was actually granted (⌊δ⌋ ≥ 1), i.e. when txBlocks were consumed; this
    /// matches the progression of the paper's worked examples (Appendix C:
    /// ci stays 20 through the uncompensated campaign of example ③ and only
    /// advances when compensation lands in examples ② and ④).
    pub new_ci: u64,
    /// Whether a compensation was granted.
    pub compensated: bool,
}

/// The reputation engine. One per server; stateless, and every constant it
/// applies is the paper's (`Cδ`, `rp(1)`, `ci`, π).
///
/// # Examples
///
/// The paper's Appendix C campaign for view 6 after replicating 20 txBlocks:
/// the view jump raises the penalty to 6, but the replication history earns a
/// compensation of 1, so the installed penalty stays 5 and the compensation
/// index advances to the consumed log position:
///
/// ```
/// use prestige_reputation::{CalcRpInput, ReputationEngine};
/// use prestige_types::{SeqNum, View};
///
/// let engine = ReputationEngine;
/// let outcome = engine.calc_rp(&CalcRpInput {
///     current_view: View(5),
///     new_view: View(6),
///     current_rp: 5,
///     current_ci: 1,
///     latest_tx_seq: SeqNum(20),
///     penalty_history: vec![1, 2, 3, 4, 5],
/// });
/// assert!(outcome.compensated);
/// assert_eq!(outcome.rp_temp, 6);
/// assert_eq!(outcome.new_rp, 5);
/// assert_eq!(outcome.new_ci, 20);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReputationEngine;

impl ReputationEngine {
    /// Algorithm 1 — Calculate-Reputation-Penalty.
    ///
    /// Returns the would-be new penalty and compensation index for a server
    /// campaigning for `input.new_view`. The caller decides whether to install
    /// it (only after a successful election).
    pub fn calc_rp(&self, input: &CalcRpInput) -> RpOutcome {
        // Step 1: penalization (Eq. 1).
        let rp_temp = penalize(input.current_rp, input.current_view, input.new_view);

        // Step 2: compensation (Eqs. 2–4).
        let ti = input.latest_tx_seq.0;
        let ci = input.current_ci;
        let d_tx = delta_tx(ti, ci);
        let history = PenaltyHistory::new(input.penalty_history.clone());
        let d_vc = delta_vc(input.current_rp, &history);
        let delta = deduction(rp_temp, C_DELTA, d_tx, d_vc);
        let floor = delta.floor() as i64;
        let compensated = floor >= 1;
        let new_rp = (rp_temp - floor).max(1);
        let new_ci = if compensated { ti.max(ci) } else { ci };

        RpOutcome {
            rp_temp,
            delta_tx: d_tx,
            delta_vc: d_vc,
            delta,
            new_rp,
            new_ci,
            compensated,
        }
    }

    /// The initial penalty/compensation pair used at genesis and after a
    /// refresh (§4.2.5).
    pub fn initial_values(&self) -> (i64, u64) {
        (INITIAL_RP, INITIAL_CI)
    }

    /// Whether a penalty has crossed the refresh threshold π.
    pub fn exceeds_refresh_threshold(&self, rp: i64) -> bool {
        rp > REFRESH_THRESHOLD_PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ReputationEngine {
        ReputationEngine
    }

    /// Appendix C, first campaign: S1 goes from V1 (rp=1, ci=1, ti=0 — no
    /// replication) to V2: penalty only.
    #[test]
    fn appendix_c_first_campaign_no_replication() {
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(1),
            new_view: View(2),
            current_rp: 1,
            current_ci: 1,
            latest_tx_seq: SeqNum(0),
            penalty_history: vec![1],
        });
        assert_eq!(out.rp_temp, 2);
        assert_eq!(out.delta_tx, 0.0);
        assert_eq!(out.new_rp, 2);
        assert_eq!(out.new_ci, 1);
        assert!(!out.compensated);
    }

    /// Figure 4c row ①: repeated leadership repossession without replication —
    /// rp keeps increasing (5 → 6 for the V6 campaign).
    #[test]
    fn fig4c_row1_no_compensation_without_replication() {
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(5),
            new_view: View(6),
            current_rp: 5,
            current_ci: 1,
            latest_tx_seq: SeqNum(1),
            penalty_history: vec![1, 2, 3, 4, 5],
        });
        assert_eq!(out.rp_temp, 6);
        assert_eq!(out.delta_tx, 0.0);
        assert!((out.delta_vc - 0.19).abs() < 0.01);
        assert_eq!(out.new_rp, 6);
        assert!(!out.compensated);
    }

    /// Figure 4c row ② / Appendix C campaign for V6 after replicating 20
    /// txBlocks: compensation of 1, rp stays 5, ci advances to 20.
    #[test]
    fn fig4c_row2_compensation_after_replication() {
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(5),
            new_view: View(6),
            current_rp: 5,
            current_ci: 1,
            latest_tx_seq: SeqNum(20),
            penalty_history: vec![1, 2, 3, 4, 5],
        });
        assert_eq!(out.rp_temp, 6);
        assert!((out.delta_vc - 0.19).abs() < 0.01);
        assert!(out.delta >= 1.0 && out.delta < 2.0);
        assert_eq!(out.new_rp, 5);
        assert_eq!(out.new_ci, 20);
        assert!(out.compensated);
    }

    /// Figure 4c row ③ / Appendix C campaign for V7 with ti=50, ci=20:
    /// δ ≈ 0.89 → no compensation, rp rises to 6, ci unchanged.
    #[test]
    fn fig4c_row3_insufficient_incremental_progress() {
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(6),
            new_view: View(7),
            current_rp: 5,
            current_ci: 20,
            latest_tx_seq: SeqNum(50),
            penalty_history: vec![1, 2, 3, 4, 5, 5],
        });
        assert_eq!(out.rp_temp, 6);
        assert!((out.delta_tx - 0.6).abs() < 1e-12);
        assert!((out.delta_vc - 0.25).abs() < 0.01);
        assert!((out.delta - 0.89).abs() < 0.02);
        assert_eq!(out.new_rp, 6);
        assert_eq!(out.new_ci, 20);
        assert!(!out.compensated);
    }

    /// Figure 4c row ④: with ti=100 the same campaign earns compensation
    /// (δ ≈ 1.2), rp stays 5, ci advances to 100.
    #[test]
    fn fig4c_row4_more_replication_earns_compensation() {
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(6),
            new_view: View(7),
            current_rp: 5,
            current_ci: 20,
            latest_tx_seq: SeqNum(100),
            penalty_history: vec![1, 2, 3, 4, 5, 5],
        });
        assert!((out.delta_tx - 0.8).abs() < 1e-12);
        assert!((out.delta - 1.2).abs() < 0.03);
        assert_eq!(out.new_rp, 5);
        assert_eq!(out.new_ci, 100);
    }

    /// Figure 4c row ⑤ / Appendix C example ⑤: the server stays a follower
    /// from V7 to V14 (penalty history fills with 5s), then campaigns for V15
    /// with ti=50, ci=20: δvc ≈ 0.36, δ ≈ 1.29 → compensated, rp stays 5.
    #[test]
    fn fig4c_row5_patience_earns_compensation() {
        let mut history = vec![1, 2, 3, 4];
        history.extend(std::iter::repeat_n(5, 10));
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(14),
            new_view: View(15),
            current_rp: 5,
            current_ci: 20,
            latest_tx_seq: SeqNum(50),
            penalty_history: history,
        });
        assert_eq!(out.rp_temp, 6);
        assert!((out.delta_vc - 0.36).abs() < 0.01);
        assert!((out.delta - 1.29).abs() < 0.03);
        assert_eq!(out.new_rp, 5);
        assert_eq!(out.new_ci, 50);
    }

    /// Appendix C example ⑥: same as ⑤ but with 400 txBlocks replicated:
    /// δtx = 0.95, δ ≈ 2.05 → compensation of 2, rp drops to 4.
    #[test]
    fn appendix_c_example6_strong_history_reduces_penalty() {
        let mut history = vec![1, 2, 3, 4];
        history.extend(std::iter::repeat_n(5, 10));
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(14),
            new_view: View(15),
            current_rp: 5,
            current_ci: 20,
            latest_tx_seq: SeqNum(400),
            penalty_history: history,
        });
        assert!((out.delta_tx - 0.95).abs() < 1e-12);
        assert!((out.delta - 2.05).abs() < 0.05);
        assert_eq!(out.new_rp, 4);
        assert_eq!(out.new_ci, 400);
    }

    /// The deduction is a fraction of rp_temp, so rp can decrease by at most
    /// rp_temp − 1 and never goes below 1.
    #[test]
    fn new_rp_never_below_one() {
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(1),
            new_view: View(2),
            current_rp: 1,
            current_ci: 1,
            latest_tx_seq: SeqNum(1_000_000),
            penalty_history: vec![1],
        });
        assert!(out.new_rp >= 1);
    }

    /// Verifiability (criterion C4): two engines produce identical outcomes
    /// for identical inputs.
    #[test]
    fn calc_rp_is_deterministic() {
        let input = CalcRpInput {
            current_view: View(9),
            new_view: View(10),
            current_rp: 4,
            current_ci: 7,
            latest_tx_seq: SeqNum(33),
            penalty_history: vec![1, 2, 2, 3, 4],
        };
        assert_eq!(engine().calc_rp(&input), engine().calc_rp(&input));
    }

    #[test]
    fn refresh_threshold_detection() {
        assert_eq!(REFRESH_THRESHOLD_PI, 8);
        let e = engine();
        assert!(!e.exceeds_refresh_threshold(8));
        assert!(e.exceeds_refresh_threshold(9));
        assert_eq!(e.initial_values(), (1, 1));
    }

    /// Byzantine view-jumping is penalized proportionally and cannot be fully
    /// compensated away in one step.
    #[test]
    fn view_jump_attack_accumulates_penalty() {
        let out = engine().calc_rp(&CalcRpInput {
            current_view: View(2),
            new_view: View(50),
            current_rp: 2,
            current_ci: 1,
            latest_tx_seq: SeqNum(100),
            penalty_history: vec![1, 2],
        });
        assert_eq!(out.rp_temp, 50);
        assert!(
            out.new_rp > 2,
            "a 48-view jump must leave a visible penalty"
        );
    }
}

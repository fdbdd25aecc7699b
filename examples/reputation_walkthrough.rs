//! Step-by-step reputation calculations — the paper's Appendix C, executable.
//!
//! Run with `cargo run --example reputation_walkthrough`.
//!
//! Replays the exact scenarios of Figure 4 / Appendix C against the
//! reputation engine and prints every intermediate quantity (rp_temp, δtx,
//! δvc, δ) so the numbers can be compared line by line with the paper.

use prestigebft::prelude::*;
use prestigebft::reputation::RpOutcome;

fn show(label: &str, outcome: &RpOutcome) {
    println!(
        "{label}\n    rp_temp = {}, δtx = {:.2}, δvc = {:.2}, δ = {:.2}  →  new rp = {}, new ci = {}{}",
        outcome.rp_temp,
        outcome.delta_tx,
        outcome.delta_vc,
        outcome.delta,
        outcome.new_rp,
        outcome.new_ci,
        if outcome.compensated { "  (compensated)" } else { "" }
    );
}

fn main() {
    let engine = ReputationEngine;
    println!("== Appendix C walkthrough: server S1 in a 4-server cluster ==\n");

    // ① S1 held leadership from V1 to V5 without replicating anything and now
    //   campaigns for V6: penalty only, rp 5 → 6.
    let case1 = engine.calc_rp(&CalcRpInput {
        current_view: View(5),
        new_view: View(6),
        current_rp: 5,
        current_ci: 1,
        latest_tx_seq: SeqNum(1),
        penalty_history: vec![1, 2, 3, 4, 5],
    });
    show(
        "① repeated repossession without replication (campaign for V6):",
        &case1,
    );

    // ② S1 replicated 20 txBlocks in V5 first: compensation of 1, rp stays 5.
    let case2 = engine.calc_rp(&CalcRpInput {
        current_view: View(5),
        new_view: View(6),
        current_rp: 5,
        current_ci: 1,
        latest_tx_seq: SeqNum(20),
        penalty_history: vec![1, 2, 3, 4, 5],
    });
    show(
        "② 20 txBlocks replicated before campaigning for V6:",
        &case2,
    );

    // ③ In V6 it replicates 30 more (50 total) and campaigns for V7 with
    //   ci = 20: δ ≈ 0.89 → no compensation, rp 5 → 6.
    let case3 = engine.calc_rp(&CalcRpInput {
        current_view: View(6),
        new_view: View(7),
        current_rp: 5,
        current_ci: 20,
        latest_tx_seq: SeqNum(50),
        penalty_history: vec![1, 2, 3, 4, 5, 5],
    });
    show(
        "③ only 50 txBlocks total (ci = 20) when campaigning for V7:",
        &case3,
    );

    // ④ With 100 txBlocks total, the same campaign earns compensation.
    let case4 = engine.calc_rp(&CalcRpInput {
        current_view: View(6),
        new_view: View(7),
        current_rp: 5,
        current_ci: 20,
        latest_tx_seq: SeqNum(100),
        penalty_history: vec![1, 2, 3, 4, 5, 5],
    });
    show("④ 100 txBlocks total when campaigning for V7:", &case4);

    // ⑤ S1 stays a follower from V7 to V14 (its penalty history fills with
    //   5s), then campaigns for V15: δvc ≈ 0.36 → compensated.
    let mut history = vec![1, 2, 3, 4];
    history.extend(std::iter::repeat_n(5, 10));
    let case5 = engine.calc_rp(&CalcRpInput {
        current_view: View(14),
        new_view: View(15),
        current_rp: 5,
        current_ci: 20,
        latest_tx_seq: SeqNum(50),
        penalty_history: history.clone(),
    });
    show("⑤ patient follower from V7–V14, campaigns for V15:", &case5);

    // ⑥ Same patience plus 400 replicated txBlocks: compensation of 2,
    //   rp drops to 4.
    let case6 = engine.calc_rp(&CalcRpInput {
        current_view: View(14),
        new_view: View(15),
        current_rp: 5,
        current_ci: 20,
        latest_tx_seq: SeqNum(400),
        penalty_history: history,
    });
    show("⑥ patient follower with 400 txBlocks replicated:", &case6);

    println!("\nThese outcomes match Figure 4c rows ①–⑤ and Appendix C example ⑥ of the paper.");
    println!("The same engine, with the same inputs, runs inside every voter when it verifies a candidate (criterion C4).");
}

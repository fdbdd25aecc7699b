//! Figure 12 — time cost to start a new view change as attacks accumulate.
//!
//! Paper result to reproduce (shape): the cost of starting a view change
//! (dominated by the reputation puzzle) stays in the millisecond range for
//! correct servers but grows exponentially for attackers — from milliseconds
//! to minutes and then hours as their penalty climbs past rp ≈ 8 — because the
//! expected work is `2^(8·rp)` hash attempts.
//!
//! This experiment drives the reputation engine and the PoW cost model
//! directly with the attack trace the paper uses (each attack = one successful
//! leadership repossession without replication progress for the attackers,
//! and normal compensated behaviour for correct servers), which is exactly the
//! quantity Figure 12 plots.

use crate::Scale;
use prestige_crypto::PowSolver;
use prestige_metrics::Table;
use prestige_reputation::{CalcRpInput, ReputationEngine};
use prestige_types::{SeqNum, View};

/// Simulates the rp trajectory of an attacker that repossesses leadership on
/// every attack without replicating, and of a correct server that wins
/// leadership legitimately with healthy replication in between.
fn rp_trajectories(attacks: usize, colluders: u32) -> (Vec<i64>, Vec<i64>) {
    let engine = ReputationEngine;
    let mut attacker_rp = 1i64;
    let mut attacker_ci = 1u64;
    let mut attacker_history = vec![1i64];
    let mut correct_rp = 1i64;
    let mut correct_ci = 1u64;
    let mut correct_history = vec![1i64];
    let mut view = View(1);
    let mut log_len = 0u64;

    let mut attacker_series = Vec::with_capacity(attacks);
    let mut correct_series = Vec::with_capacity(attacks);

    for attack in 0..attacks {
        // The attacker seizes the next view; colluders share the work but the
        // recorded penalty follows the same trajectory.
        let next = view.next();
        let out = engine.calc_rp(&CalcRpInput {
            current_view: view,
            new_view: next,
            current_rp: attacker_rp,
            current_ci: attacker_ci,
            latest_tx_seq: SeqNum(log_len),
            penalty_history: attacker_history.clone(),
        });
        attacker_rp = out.new_rp;
        attacker_ci = out.new_ci;
        attacker_history.push(attacker_rp);
        attacker_series.push(attacker_rp);
        view = next;
        // Its reign commits nothing (F4+F2).

        // A correct server then recovers leadership and replicates for the
        // rest of the rotation era before the next attack lands.
        view = view.next();
        log_len += 100 / colluders.max(1) as u64;

        // The *particular* correct server we track shares rotations with the
        // other correct servers, so it only campaigns once in a while; its
        // penalty is re-evaluated only when it actually wins (unsuccessful or
        // absent campaigns never change rp).
        if attack % 8 == 7 {
            let next = view.next();
            let out = engine.calc_rp(&CalcRpInput {
                current_view: view,
                new_view: next,
                current_rp: correct_rp,
                current_ci: correct_ci,
                latest_tx_seq: SeqNum(log_len),
                penalty_history: correct_history.clone(),
            });
            correct_rp = out.new_rp;
            correct_ci = out.new_ci;
            view = next;
        }
        correct_series.push(correct_rp);
        // Every installed view records both servers' (unchanged or updated)
        // penalties in its vcBlock, which is what the history set collects.
        attacker_history.push(attacker_rp);
        correct_history.push(correct_rp);
    }
    (attacker_series, correct_series)
}

/// Runs the attack-cost projection.
pub fn run(scale: Scale) -> Vec<Table> {
    let attacks = match scale {
        Scale::Quick => 20,
        Scale::Full => 20,
    };
    // The paper's SHA-256 rate on its Skylake vCPUs, the one every server
    // solves at.
    let solver = PowSolver::PAPER_MODEL;
    let mut table = Table::new(
        "Figure 12 — expected time cost to start a view change (ms) vs number of attacks",
        &[
            "attack #",
            "faulty rp (f=1)",
            "faulty cost ms (f=1)",
            "correct cost ms (f=1)",
            "faulty rp (f=3)",
            "faulty cost ms (f=3)",
            "correct cost ms (f=3)",
        ],
    );
    let (a1, c1) = rp_trajectories(attacks, 1);
    let (a3, c3) = rp_trajectories(attacks, 3);
    for i in 0..attacks {
        let cost = |rp: i64| solver.expected_solve_ms(rp.max(0) as u32);
        table.push_row(vec![
            (i + 1).to_string(),
            a1[i].to_string(),
            format!("{:.3e}", cost(a1[i])),
            format!("{:.3}", cost(c1[i])),
            a3[i].to_string(),
            format!("{:.3e}", cost(a3[i])),
            format!("{:.3}", cost(c3[i])),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacker_penalty_grows_and_correct_stays_low() {
        let (attacker, correct) = rp_trajectories(20, 1);
        let attacker_final = attacker.last().copied().unwrap();
        let correct_final = correct.last().copied().unwrap();
        assert!(
            attacker_final >= 5,
            "attacker rp only reached {attacker_final}"
        );
        assert!(correct.iter().all(|rp| *rp <= 4), "correct rp {correct:?}");
        assert!(attacker_final > correct_final);
        // The attacker's penalty never falls below where it started.
        assert!(attacker.windows(2).all(|w| w[1] + 1 >= w[0]));
    }

    #[test]
    fn attack_cost_is_exponential() {
        let solver = PowSolver::PAPER_MODEL;
        let (attacker, _) = rp_trajectories(20, 3);
        let early = solver.expected_solve_ms(attacker[0].max(0) as u32);
        let late = solver.expected_solve_ms(attacker.last().copied().unwrap() as u32);
        assert!(late > early * 1e6, "late {late} vs early {early}");
    }
}

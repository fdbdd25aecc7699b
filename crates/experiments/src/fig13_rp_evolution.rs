//! Figure 13 — evolution of server reputation penalties under f=3 attacks.
//!
//! Paper result to reproduce (shape): the three attackers' penalties climb as
//! they repossess leadership without replicating, until the required
//! computation locks them out; correct servers' penalties stay near the
//! initial value (occasionally compensated back down after they reclaim
//! leadership).

use crate::runner::{fault_experiment, run as run_one};
use crate::Scale;
use prestige_core::AttackStrategy;
use prestige_metrics::Table;
use prestige_workloads::{FaultPlan, Scenario};

/// The one run: n = 16, f = 3, F4+F2.
fn scenario(scale: Scale) -> Scenario {
    let (duration_ms, rotation_ms) = match scale {
        Scale::Quick => (40_000, 3_000),
        Scale::Full => (300_000, 10_000),
    };
    Scenario {
        name: "fig13_pb_f3".to_string(),
        seed: 133,
        servers: 16,
        rotation_ms,
        fault_plan: FaultPlan::RepeatedVcQuiet {
            count: 3,
            strategy: AttackStrategy::Always,
        },
        duration_ms,
        ..fault_experiment()
    }
}

/// The experiment's scenarios: its one run.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    vec![scenario(scale)]
}

/// Runs the reputation-evolution experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let scenario = scenario(scale);
    let n = scenario.servers;
    let outcome = run_one(&scenario, 0.05, None);

    let mut table = Table::new(
        "Figure 13 — final reputation penalties after repeated VC attacks (n=16, f=3; S14–S16 faulty)",
        &["server", "behaviour", "final rp", "elections won", "campaigns", "total puzzle time (ms)"],
    );
    for ((id, server), rp) in (0..).zip(&outcome.servers).zip(&outcome.rp) {
        let behaviour = if id >= n - 3 { "faulty" } else { "correct" };
        table.push_row(vec![
            format!("S{}", id + 1),
            behaviour.to_string(),
            rp.to_string(),
            server.elections_won.to_string(),
            server.campaigns_started.to_string(),
            format!("{:.1}", server.pow_ms_total),
        ]);
    }

    // A second table with the attackers' penalty trajectory over their
    // campaigns (the x-axis of the paper's Figure 13).
    let mut trajectory = Table::new(
        "Figure 13 (series) — attackers' penalty per campaign",
        &["campaign #", "S14 rp", "S15 rp", "S16 rp"],
    );
    let attackers = &outcome.campaign_rps[(n - 3) as usize..];
    let rounds = attackers.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rounds {
        let cells = attackers
            .iter()
            .map(|rps| rps.get(r).map_or("—".into(), i64::to_string));
        trajectory.push_row([(r + 1).to_string()].into_iter().chain(cells).collect());
    }
    vec![table, trajectory]
}

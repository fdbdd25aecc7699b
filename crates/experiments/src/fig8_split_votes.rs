//! Figure 8 — split votes under different timeout randomization.
//!
//! Paper result to reproduce (shape): with no randomization a noticeable
//! fraction of view changes suffers split votes; adding ε ≈ 50 ms of
//! randomization eliminates them without faults, and even F1 timeout attacks
//! cannot re-create them once ε > 100 ms.

use crate::runner::{base, run as run_one};
use crate::Scale;
use prestige_metrics::Table;
use prestige_types::TimeoutConfig;
use prestige_workloads::{FaultPlan, Scenario};

/// One row per attack setting, `n` and randomization ε.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let (ns, duration_ms, rotation_ms): (Vec<u32>, u64, u64) = match scale {
        Scale::Quick => (vec![4, 16], 20_000, 600),
        Scale::Full => (vec![4, 16, 64], 120_000, 800),
    };
    let mut rows = Vec::new();
    for attack in [false, true] {
        for &n in &ns {
            for eps in [0u64, 10, 50, 100, 200] {
                let f = (n - 1) / 3;
                rows.push(Scenario {
                    name: format!("{}n{n}_eps{eps}", if attack { "byz_" } else { "" }),
                    seed: 100 + n as u64 + eps,
                    servers: n,
                    clients: 2,
                    concurrency: 40,
                    batch_size: 50,
                    // Frequent policy rotations drive many view changes; the
                    // randomization ε is what the figure sweeps.
                    rotation_ms,
                    timeouts: TimeoutConfig {
                        base_timeout_ms: 300.0,
                        randomization_ms: eps as f64,
                        client_timeout_ms: 400.0,
                        complaint_grace_ms: 100.0,
                    },
                    fault_plan: if attack {
                        FaultPlan::TimeoutAttack { count: f.max(1) }
                    } else {
                        FaultPlan::None
                    },
                    duration_ms,
                    ..base()
                });
            }
        }
    }
    rows
}

/// Runs the split-vote sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 8 — split votes vs timeout randomization",
        &[
            "series",
            "n",
            "epsilon (ms)",
            "view changes",
            "split-vote retries",
            "split-vote rate",
        ],
    );
    for s in scenarios(scale) {
        let outcome = run_one(&s, 0.0, None);
        let view_changes = outcome.reference.views_installed.max(1);
        let retries: u64 = outcome.servers.iter().map(|s| s.election_timeouts).sum();
        table.push_row(vec![
            s.name,
            s.servers.to_string(),
            format!("{:.0}", s.timeouts.randomization_ms),
            view_changes.to_string(),
            retries.to_string(),
            format!("{:.1}%", 100.0 * retries as f64 / view_changes as f64),
        ]);
    }
    vec![table]
}

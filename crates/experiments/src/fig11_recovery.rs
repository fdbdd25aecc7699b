//! Figure 11 — throughput recovery over time under F4+F2 (pb_r10_quiet).
//!
//! Paper result to reproduce (shape): right after the attack begins the
//! system makes little progress; as the reputation engine penalizes the
//! attackers their campaigns become unaffordable, correct servers regain
//! leadership, and normalized throughput climbs back toward the fault-free
//! level (≈87% at t = 1000 s in the paper).

use crate::runner::{fault_experiment, run as run_one};
use crate::Scale;
use prestige_core::AttackStrategy;
use prestige_metrics::{throughput_series, Table};
use prestige_workloads::{FaultPlan, Scenario};

/// One run per fault count, `f = 0` first (the normalization base).
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let (duration_ms, rotation_ms, fault_counts): (u64, u64, &[u32]) = match scale {
        Scale::Quick => (40_000, 3_000, &[0, 1, 3]),
        Scale::Full => (1_000_000, 10_000, &[0, 1, 3, 5]),
    };
    let row = |&f: &u32| Scenario {
        name: format!("pb_r10_quiet_f{f}"),
        seed: 91 + f as u64,
        servers: 16,
        rotation_ms,
        fault_plan: match f {
            0 => FaultPlan::None,
            count => FaultPlan::RepeatedVcQuiet {
                count,
                strategy: AttackStrategy::Always,
            },
        },
        duration_ms,
        ..fault_experiment()
    };
    fault_counts.iter().map(row).collect()
}

/// Runs the recovery time series.
pub fn run(scale: Scale) -> Vec<Table> {
    let window_ms = match scale {
        Scale::Quick => 5000.0,
        Scale::Full => 50_000.0,
    };
    let mut table = Table::new(
        "Figure 11 — normalized throughput recovery under F4+F2 (pb_r10_quiet, n=16)",
        &["time (s)", "f=0", "f=1", "f=3", "f=5"],
    );

    let mut series: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut base_tps = 1.0;
    for s in scenarios(scale) {
        let outcome = run_one(&s, 0.05, Some(window_ms));
        let end_ms = s.duration_ms as f64;
        series.push(throughput_series(&outcome.commits, end_ms, window_ms));
        if s.fault_plan == FaultPlan::None {
            base_tps = outcome.tps.max(1.0);
        }
    }

    let windows = series.iter().map(|s| s.len()).min().unwrap_or(0);
    for w in 0..windows {
        let time_s = series[0][w].0 / 1000.0 + window_ms / 1000.0;
        let mut row = vec![format!("{time_s:.0}")];
        for s in &series {
            row.push(format!("{:.0}%", 100.0 * s[w].1 / base_tps));
        }
        // Pad missing fault counts (quick mode runs fewer of them).
        while row.len() < 5 {
            row.push("—".to_string());
        }
        table.push_row(row);
    }
    vec![table]
}

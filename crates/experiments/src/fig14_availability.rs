//! Figure 14 — availability under different attack strategies.
//!
//! Paper result to reproduce (shape): under f=3 repeated view-change
//! attackers, PrestigeBFT's availability climbs toward 100% over time for
//! both attack strategies — S1 attackers get priced out by their penalties,
//! and S2 attackers must behave correctly for ever longer stretches to stay
//! compensable — while HotStuff remains degraded for the whole run.

use crate::runner::{fault_experiment, run as run_one};
use crate::Scale;
use prestige_core::AttackStrategy;
use prestige_metrics::{availability_series, Table};
use prestige_workloads::{FaultPlan, ProtocolChoice, Scenario};

/// One run per series: PrestigeBFT under S1 and S2 attackers, HotStuff
/// under quiet ones (n = 16, f = 3).
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let (duration_ms, rotation_ms) = match scale {
        Scale::Quick => (60_000, 3_000),
        Scale::Full => (10_000_000, 10_000),
    };
    let series = [
        (
            "pb-S1",
            ProtocolChoice::Prestige,
            FaultPlan::RepeatedVcQuiet {
                count: 3,
                strategy: AttackStrategy::Always,
            },
        ),
        (
            "pb-S2",
            ProtocolChoice::Prestige,
            FaultPlan::RepeatedVcQuiet {
                count: 3,
                strategy: AttackStrategy::WhenCompensable,
            },
        ),
        (
            "hs",
            ProtocolChoice::HotStuff,
            FaultPlan::Quiet { count: 3 },
        ),
    ];
    let row = |(label, protocol, fault_plan)| Scenario {
        name: format!("fig14_{label}"),
        seed: 140,
        protocol,
        servers: 16,
        rotation_ms,
        fault_plan,
        duration_ms,
        ..fault_experiment()
    };
    series.map(row).to_vec()
}

/// Runs the availability comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    let window_ms = match scale {
        Scale::Quick => 2000.0,
        Scale::Full => 100_000.0,
    };
    let mut all_series = Vec::new();
    for s in scenarios(scale) {
        let outcome = run_one(&s, 0.05, Some(window_ms));
        let end_ms = s.duration_ms as f64;
        all_series.push(availability_series(&outcome.commits, end_ms, window_ms));
    }

    let mut table = Table::new(
        "Figure 14 — cumulative availability under attacks (n=16, f=3)",
        &["time (s)", "pb-S1", "pb-S2", "hs"],
    );
    let windows = all_series.iter().map(|s| s.len()).min().unwrap_or(0);
    for w in 0..windows {
        let time_s = all_series[0][w].0 / 1000.0;
        let mut row = vec![format!("{time_s:.0}")];
        for s in &all_series {
            row.push(format!("{:.0}%", 100.0 * s[w].1));
        }
        table.push_row(row);
    }
    vec![table]
}

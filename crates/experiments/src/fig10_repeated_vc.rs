//! Figure 10 — throughput under repeated view-change attacks (F4 combined
//! with F2 or F3).
//!
//! Paper result to reproduce (shape): this is the attack designed to hurt an
//! *active* view-change protocol — faulty servers campaign whenever they are
//! not the leader and then stall replication once elected. HotStuff's passive
//! schedule is unaffected by the campaigning itself but still suffers its
//! usual drop from the faulty reigns; PrestigeBFT takes a moderate hit early
//! on and then suppresses the attackers through their growing reputation
//! penalties.

use crate::fig9_benign_byz::FaultFigure;
use crate::Scale;
use prestige_core::AttackStrategy;
use prestige_metrics::Table;
use prestige_workloads::{FaultPlan, Scenario};

const FIGURE: FaultFigure = FaultFigure {
    title: "Figure 10 — throughput under repeated VC attacks",
    seed: 31,
    quick: (25_000, &[0, 3]),
    full: (180_000, &[0, 1, 3, 5]),
    attacks: [
        ("quiet", |count| FaultPlan::RepeatedVcQuiet {
            count,
            strategy: AttackStrategy::Always,
        }),
        ("equiv", |count| FaultPlan::RepeatedVcEquivocate {
            count,
            strategy: AttackStrategy::Always,
        }),
    ],
};

/// Every row of the repeated view-change attack sweep.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    FIGURE.scenarios(scale)
}

/// Runs the repeated view-change attack sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    FIGURE.run(scale)
}

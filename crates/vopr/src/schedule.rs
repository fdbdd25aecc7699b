//! Schedules: the seeded generator of falsification runs.
//!
//! A schedule is a [`Scenario`] — the one description the simulator host and
//! the real runtime both run (`prestige_workloads::scenario`) — drawn as a
//! pure function of its seed: cluster shape, workload, base network,
//! Byzantine fault plan, and 1–3 injected faults. A failing run therefore
//! replays bit-identically from either its seed or the scenario file the
//! shrinker writes for it.

use prestige_core::AttackStrategy;
use prestige_sim::SimRng;
use prestige_workloads::scenario::{Cut, FaultKind, Link, Scenario, Target, TimedFault};
use prestige_workloads::FaultPlan;

/// Generates the schedule for a seed: a small 4- or 7-server cluster, a
/// light closed-loop workload (sized for the 1-core CI container), a
/// randomly drawn fault plan with at most `f` conspirators, and 1–3
/// fault-injection windows biased toward the shapes that historically
/// broke the protocol (leader-targeted asymmetric partitions and
/// leader crash-restarts mid-pipeline).
pub fn generate(seed: u64) -> Scenario {
    let mut rng = SimRng::new(seed ^ 0x5EED_5EED_5EED_5EED);
    // Mostly 4 servers (f = 1): small clusters run fast, and every
    // historical safety bug reproduced at n = 4. Every fourth seed runs
    // n = 7 to exercise f = 2 quorums.
    let servers: u32 = if seed % 4 == 3 { 7 } else { 4 };
    let f = (servers - 1) / 3;
    let duration_ms = rng.uniform_u64(3_000, 4_501);

    let fault_plan = {
        // `None` is deliberately over-weighted: benign runs make the
        // fault-injection windows (not the behaviors) carry the stress,
        // which is where the canary bugs live.
        let roll = rng.uniform_u64(0, 10);
        let count = 1 + rng.uniform_u64(0, f as u64) as u32;
        let strategy = if rng.chance(0.5) {
            AttackStrategy::Always
        } else {
            AttackStrategy::WhenCompensable
        };
        match roll {
            0..=3 => FaultPlan::None,
            4 => FaultPlan::Quiet { count },
            5 => FaultPlan::Equivocate { count },
            6 => FaultPlan::TimeoutAttack { count },
            7 => FaultPlan::RepeatedVcQuiet { count, strategy },
            8 => FaultPlan::RepeatedVcEquivocate { count, strategy },
            _ => FaultPlan::TipLiar { count, strategy },
        }
    };

    let delay_lo_us = rng.uniform_u64(100, 1_000);
    let delay_hi_us = delay_lo_us + rng.uniform_u64(100, 2_000);
    let loss_permille = if rng.chance(0.4) {
        rng.uniform_u64(1, 11) as u32
    } else {
        0
    };

    let fault_count = 1 + rng.uniform_u64(0, 3);
    let mut faults = Vec::new();
    let mut crash_used: Vec<u32> = Vec::new();
    for _ in 0..fault_count {
        // Server 0 leads view 1; half the faults aim straight at it.
        let target = if rng.chance(0.5) {
            0
        } else {
            rng.uniform_u64(0, servers as u64) as u32
        };
        let at_ms = rng.uniform_u64(300, duration_ms.saturating_sub(1_200).max(301));
        let window = rng.uniform_u64(300, 1_201);
        let partition = |cut| (FaultKind::Partition(cut, Target::Server(target)), window);
        let (kind, window_ms) = match rng.uniform_u64(0, 100) {
            0..=24 => partition(Cut::Out),
            25..=39 => partition(Cut::In),
            40..=59 => partition(Cut::Sym),
            60..=74 => {
                let degraded = Link {
                    delay_lo_us: rng.uniform_u64(1_000, 5_000),
                    delay_hi_us: rng.uniform_u64(5_000, 20_000),
                    loss_permille: rng.uniform_u64(10, 80) as u32,
                    ..Link::default()
                };
                (FaultKind::Degrade(degraded), window)
            }
            _ => {
                // At most one crash-restart per target per schedule keeps
                // the down/restart bookkeeping unambiguous.
                if crash_used.contains(&target) {
                    partition(Cut::Sym)
                } else {
                    crash_used.push(target);
                    let down_ms = rng.uniform_u64(300, 901);
                    let torn_records = if rng.chance(0.3) {
                        rng.uniform_u64(1, 4) as u32
                    } else {
                        0
                    };
                    let target = Target::Server(target);
                    let crash = FaultKind::CrashRestart {
                        target,
                        torn_records,
                    };
                    (crash, down_ms)
                }
            }
        };
        faults.push(TimedFault {
            at_ms,
            window_ms,
            kind,
        });
    }
    faults.sort_by_key(|f| f.at_ms);

    Scenario {
        name: format!("vopr-seed-{seed}"),
        seed,
        servers,
        clients: 2,
        concurrency: 6,
        batch_size: 8,
        payload_size: 16,
        checkpoint_interval: 8,
        duration_ms,
        network: Link {
            delay_lo_us,
            delay_hi_us,
            loss_permille,
            ..Link::default()
        },
        fault_plan,
        faults,
        // Fast timers, PrestigeBFT, the default `[assert]`.
        ..Scenario::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(17), generate(17));
        assert_ne!(generate(17), generate(18));
    }

    #[test]
    fn generated_schedules_are_well_formed() {
        for seed in 0..200 {
            let s = generate(seed);
            assert!(s.servers == 4 || s.servers == 7);
            let f = (s.servers - 1) / 3;
            assert!(s.fault_plan.count() <= f, "seed {seed}: too many faulty");
            assert!(!s.faults.is_empty() && s.faults.len() <= 3);
            assert!(s.faults.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
            // Every window closes within the run (and every crash restarts),
            // so the default `[assert]` judges a clean run by safety alone.
            for fault in &s.faults {
                assert!(
                    fault.at_ms + fault.window_ms <= s.duration_ms,
                    "seed {seed}: a fault outlasts the run"
                );
            }
            // At most one crash-restart per target.
            let crashes: Vec<Target> = s
                .faults
                .iter()
                .filter_map(|a| match a.kind {
                    FaultKind::CrashRestart { target, .. } => Some(target),
                    _ => None,
                })
                .collect();
            for (i, target) in crashes.iter().enumerate() {
                assert!(
                    !crashes[..i].contains(target),
                    "seed {seed}: duplicate crash"
                );
            }
        }
    }
}

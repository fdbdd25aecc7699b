//! Determinism regression: the whole point of a seeded falsification harness
//! is that a seed *is* the bug report. Two runs of the same schedule —
//! including a mid-run crash with a torn WAL tail and a restart through WAL
//! replay — must produce bit-identical commit activity and statistics.

use prestige_vopr::{run_schedule, ActionKind, Schedule, ScheduledAction};

fn assert_identical(a: &prestige_vopr::RunOutcome, b: &prestige_vopr::RunOutcome) {
    assert_eq!(a.steps, b.steps, "step counts diverge");
    assert_eq!(a.invariant_checks, b.invariant_checks);
    assert_eq!(a.committed_blocks, b.committed_blocks);
    assert_eq!(a.views_installed, b.views_installed);
    assert_eq!(
        a.server_stats, b.server_stats,
        "per-server statistics diverge"
    );
    assert_eq!(
        a.net_stats_debug, b.net_stats_debug,
        "network counters diverge"
    );
    assert_eq!(a.violation, b.violation);
}

#[test]
fn same_seed_same_run_bit_for_bit() {
    let schedule = Schedule::generate(11);
    assert_identical(&run_schedule(&schedule), &run_schedule(&schedule));
}

#[test]
fn crash_restart_replay_is_deterministic() {
    let mut schedule = Schedule::generate(5);
    schedule.fault_label = "none".into();
    schedule.fault_count = 0;
    schedule.duration_ms = 3_500;
    schedule.actions = vec![
        ScheduledAction {
            at_ms: 700,
            kind: ActionKind::CrashRestart {
                target: 0,
                down_ms: 600,
                torn_records: 2,
            },
        },
        ScheduledAction {
            at_ms: 1_900,
            kind: ActionKind::PartitionSym {
                target: 2,
                duration_ms: 500,
            },
        },
    ];
    let first = run_schedule(&schedule);
    let second = run_schedule(&schedule);
    assert!(
        first.committed_blocks > 0,
        "run must commit through the crash to prove anything"
    );
    assert_identical(&first, &second);
}

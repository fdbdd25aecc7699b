//! Determinism regression: the whole point of a seeded falsification harness
//! is that a seed *is* the bug report. Two runs of the same scenario —
//! including a mid-run crash with a torn WAL tail and a restart through WAL
//! replay — must produce bit-identical commit activity and statistics, a
//! scenario must survive its own text form unchanged, and a swarm's totals
//! must not depend on the order its seeds run in.

use prestige_vopr::{generate, run_scenario, RunOutcome, Scenario, SwarmReport};
use prestige_workloads::scenario::{Cut, FaultKind, Target, TimedFault};
use prestige_workloads::FaultPlan;

fn assert_identical(a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(a.steps, b.steps, "step counts diverge");
    assert_eq!(a.invariant_checks, b.invariant_checks);
    assert_eq!(a.committed_blocks, b.committed_blocks);
    assert_eq!(a.views_installed, b.views_installed);
    assert_eq!(
        a.observations, b.observations,
        "commit series or per-server statistics diverge"
    );
    assert_eq!(
        a.net_stats_debug, b.net_stats_debug,
        "network counters diverge"
    );
    assert_eq!(a.violation, b.violation);
}

#[test]
fn same_seed_same_run_bit_for_bit() {
    let scenario = generate(11);
    assert_identical(&run_scenario(&scenario), &run_scenario(&scenario));
}

#[test]
fn crash_restart_replay_is_deterministic() {
    let mut scenario = generate(5);
    scenario.fault_plan = FaultPlan::None;
    scenario.duration_ms = 3_500;
    scenario.faults = vec![
        TimedFault {
            at_ms: 700,
            window_ms: 600,
            kind: FaultKind::CrashRestart {
                target: Target::Server(0),
                torn_records: 2,
            },
        },
        TimedFault {
            at_ms: 1_900,
            window_ms: 500,
            kind: FaultKind::Partition(Cut::Sym, Target::Server(2)),
        },
    ];
    let first = run_scenario(&scenario);
    let second = run_scenario(&scenario);
    assert!(
        first.committed_blocks > 0,
        "run must commit through the crash to prove anything"
    );
    assert_identical(&first, &second);
}

#[test]
fn generated_scenarios_survive_their_text_form_and_run_the_same() {
    for seed in 0..500 {
        let scenario = generate(seed);
        let text = scenario.to_toml();
        let back =
            Scenario::from_toml(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert_eq!(scenario, back, "seed {seed} changed in text form:\n{text}");
    }
    // Equal values run equal by construction; running a few through the
    // harness pins that nothing a run reads is left out of the comparison.
    for seed in [3, 15, 130] {
        let scenario = generate(seed);
        let back = Scenario::from_toml(&scenario.to_toml()).unwrap();
        assert_identical(&run_scenario(&scenario), &run_scenario(&back));
    }
}

/// `(vopr_steps, committed_blocks)` of a swarm over `seeds`, in that order.
fn swarm_totals(seeds: impl Iterator<Item = u64>) -> (u64, u64) {
    let mut report = SwarmReport::default();
    for seed in seeds {
        let scenario = generate(seed);
        report.record(&scenario, &run_scenario(&scenario));
    }
    (report.vopr_steps, report.committed_blocks)
}

#[test]
fn swarm_totals_do_not_depend_on_seed_order_or_sharding() {
    // Seeds 120..150 contain the chunk (130–139) whose total was once seen
    // to take two values between runs. With no `RandomState` map left in
    // `crates/core`, no run may depend on what ran before it in the process.
    let forward = swarm_totals(120..150);
    let backward = swarm_totals((120..150).rev());
    let chunks = [120..130, 130..140, 140..150]
        .map(swarm_totals)
        .iter()
        .fold((0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1));
    assert!(forward.1 > 0, "a swarm that commits nothing proves nothing");
    assert_eq!(forward, backward, "totals depend on seed order");
    assert_eq!(forward, chunks, "totals depend on sharding");
}

//! The harness — the vopr host of a [`Scenario`]: builds the simulated
//! cluster through [`SimCluster`], drives it step by step while walking the
//! fault [`Timeline`], runs the invariant checkers after **every** event,
//! and hands back the [`Observations`] the scenario's own expectation is
//! judged on. A crash-restart goes through the cluster's WAL replay.

use crate::cluster::{network, SimCluster};
use crate::invariants::{InvariantChecker, Violation};
use prestige_core::PrestigeServer;
use prestige_sim::{SimTime, Simulation};
use prestige_types::{Actor, Message, ServerId};
use prestige_workloads::scenario::{
    Cut, FaultKind, Observations, Scenario, ServerObservation, Timeline, Violated,
};
use std::collections::BTreeMap;

/// What one falsification run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulator events processed.
    pub steps: u64,
    /// Individual invariant evaluations.
    pub invariant_checks: u64,
    /// The first violation, if the scenario falsified an invariant.
    pub violation: Option<Violation>,
    /// Violation tallies by invariant name.
    pub violation_counts: BTreeMap<&'static str, u64>,
    /// Blocks committed on the most advanced correct replica.
    pub committed_blocks: u64,
    /// Views installed on the most advanced correct replica.
    pub views_installed: u64,
    /// What [`Scenario::judge`] looks at: the commit series, every server's
    /// final state, the violation and the fault windows' closing times
    /// (also the bit-exact evidence for the determinism regression test).
    pub observations: Observations,
    /// Debug rendering of the network counters (same purpose).
    pub net_stats_debug: String,
}

/// Runs one scenario to completion (or to its first violation).
pub fn run_scenario(scenario: &Scenario) -> RunOutcome {
    let n = scenario.servers;
    let base_network = network(scenario.network);
    let mut cluster = SimCluster::new(scenario);
    let correct: Vec<bool> = cluster.behaviors().iter().map(|b| !b.is_faulty()).collect();

    let mut checker = InvariantChecker::new(n, correct.clone(), scenario.clients);
    let actors: Vec<Actor> = cluster.sim.actors().to_vec();
    let peers_of = |t: u32| -> Vec<Actor> {
        actors
            .iter()
            .copied()
            .filter(|a| *a != Actor::Server(ServerId(t)))
            .collect()
    };
    // A `leader` target resolves as on the real runtime: the leader of the
    // view the first live correct server is in (server 0 if none answers).
    let leader_now = |sim: &Simulation<Message>| -> u32 {
        (0..n)
            .filter(|&i| correct[i as usize] && !sim.is_down(Actor::Server(ServerId(i))))
            .find_map(|i| sim.node_as::<PrestigeServer>(Actor::Server(ServerId(i))))
            .map_or(0, |server| server.current_leader().0)
    };

    cluster.sim.start();
    let deadline = SimTime::from_ms(scenario.duration_ms as f64);
    let mut timeline = Timeline::new(&scenario.faults);
    let mut steps = 0u64;
    let mut violation: Option<Violation> = None;
    // The commit series is read between events — nothing is scheduled for
    // it, so sampling cannot move a step count.
    let mut series: Vec<(u64, u64)> = Vec::new();
    let mut next_sample_ms = 0u64;

    loop {
        let next_event = cluster.sim.next_event_time();
        let op_is_due = match (timeline.next_at_ms(), next_event) {
            (Some(t), Some(ev)) => (t as f64) <= ev.as_ms() || ev > deadline,
            (Some(_), None) => true,
            _ => false,
        };
        if op_is_due {
            let at_ms = timeline.next_at_ms().expect("an op is due");
            let (op, t) = timeline
                .pop(at_ms, || leader_now(&cluster.sim))
                .expect("an op is due");
            let me = Actor::Server(ServerId(t));
            let sim = &mut cluster.sim;
            match (scenario.faults[op.fault].kind, op.ends) {
                (FaultKind::Partition(cut, _), false) => {
                    for peer in peers_of(t) {
                        match cut {
                            Cut::Sym => sim.partition(me, peer),
                            Cut::Out => sim.block_oneway(me, peer),
                            Cut::In => sim.block_oneway(peer, me),
                        }
                    }
                }
                (FaultKind::Partition(cut, _), true) => {
                    for peer in peers_of(t) {
                        match cut {
                            Cut::Sym => sim.heal(me, peer),
                            Cut::Out => sim.unblock_oneway(me, peer),
                            Cut::In => sim.unblock_oneway(peer, me),
                        }
                    }
                }
                (FaultKind::Degrade(link), false) => sim.set_network(network(link)),
                (FaultKind::Degrade(_), true) => sim.set_network(base_network),
                (FaultKind::CrashRestart { torn_records, .. }, false) => {
                    cluster.crash(t, torn_records)
                }
                (FaultKind::CrashRestart { .. }, true) => {
                    cluster.restart(t);
                    checker.note_restart(t);
                }
            }
            continue;
        }
        match next_event {
            Some(t) if t <= deadline => {
                while (next_sample_ms as f64) <= t.as_ms() {
                    series.push((next_sample_ms, cluster.confirmed_tx()));
                    next_sample_ms += 100;
                }
                cluster.sim.step();
                steps += 1;
                if violation.is_none() {
                    violation = checker.check(&cluster.sim);
                    if violation.is_some() {
                        break;
                    }
                }
            }
            _ => break,
        }
    }
    // A run that reached its deadline lasted the scenario's duration; one
    // stopped at its first violation lasted until the event that broke it.
    let run_ms = match violation {
        Some(_) => cluster.sim.now().as_ms() as u64,
        None => scenario.duration_ms,
    };
    series.push((run_ms, cluster.confirmed_tx()));

    let mut committed_blocks = 0u64;
    let mut views_installed = 0u64;
    let mut servers = Vec::with_capacity(n as usize);
    for i in 0..n {
        let server = cluster.server(i).expect("server registered");
        if correct[i as usize] {
            committed_blocks = committed_blocks.max(server.stats().committed_blocks);
            views_installed = views_installed.max(server.stats().views_installed);
        }
        let down = cluster.sim.is_down(Actor::Server(ServerId(i)));
        servers.push((!down).then(|| ServerObservation {
            behavior: cluster.behaviors()[i as usize],
            stats: server.stats().clone(),
            view: server.current_view().0,
            leader: server.current_leader().0,
            stable_checkpoint: server.stable_checkpoint(),
        }));
    }

    RunOutcome {
        steps,
        invariant_checks: checker.checks,
        violation_counts: checker.violation_counts.clone(),
        committed_blocks,
        views_installed,
        observations: Observations {
            run_ms,
            series,
            servers,
            violation: violation.as_ref().map(|v| Violated {
                invariant: v.invariant.to_string(),
                detail: format!("on s{} at {:.1} ms — {}", v.replica, v.at_ms, v.detail),
            }),
            windows_closed_ms: timeline.closed_ms().to_vec(),
        },
        violation,
        net_stats_debug: format!("{:?}", cluster.sim.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::generate;
    use prestige_workloads::scenario::{Target, TimedFault};
    use prestige_workloads::FaultPlan;

    #[test]
    fn benign_schedule_commits_and_stays_clean() {
        let mut s = generate(1);
        s.fault_plan = FaultPlan::None;
        s.faults.clear();
        s.duration_ms = 2_000;
        let outcome = run_scenario(&s);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.committed_blocks > 0, "no commits in a benign run");
        assert!(outcome.invariant_checks > 0);
        // The series is sampled every 100 ms and ends at the deadline; a
        // clean benign run passes the default expectation.
        let series = &outcome.observations.series;
        assert_eq!(series.len(), 21 + 1);
        assert_eq!(outcome.observations.run_ms, s.duration_ms);
        assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(outcome.observations.committed() > 0);
        assert_eq!(s.judge(&outcome.observations), Vec::<String>::new());
    }

    /// Swarm seed 11 forks under the C3 canary at about 1.7 s of a 3.7 s
    /// schedule; the run stops there, so that is how long it lasted. Run with
    /// `cargo test -p prestige-vopr --features canary-c3-fork`.
    #[cfg(feature = "canary-c3-fork")]
    #[test]
    fn a_run_stopped_by_a_violation_lasts_until_the_violation() {
        let s = generate(11);
        let outcome = run_scenario(&s);
        let violation = outcome.violation.expect("the canary forks seed 11");
        let obs = &outcome.observations;
        assert_eq!(obs.run_ms, violation.at_ms as u64);
        assert!(obs.run_ms < s.duration_ms, "{} ms", obs.run_ms);
        assert_eq!(obs.series.last().map(|(t, _)| *t), Some(obs.run_ms));
        assert!(obs.series.windows(2).all(|w| w[0].0 < w[1].0));
        for reason in s.judge(obs) {
            assert!(
                !reason.contains(&format!("{} ms run", s.duration_ms)),
                "{reason}"
            );
        }
    }

    #[test]
    fn crash_restart_schedule_recovers_cleanly() {
        let mut s = generate(2);
        s.fault_plan = FaultPlan::None;
        s.duration_ms = 3_000;
        s.faults = vec![TimedFault {
            at_ms: 800,
            window_ms: 500,
            kind: FaultKind::CrashRestart {
                target: Target::Leader,
                torn_records: 1,
            },
        }];
        let outcome = run_scenario(&s);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.committed_blocks > 0);
        assert_eq!(outcome.observations.windows_closed_ms, [Some(1_300)]);
        assert!(outcome.observations.servers.iter().all(Option::is_some));
    }
}

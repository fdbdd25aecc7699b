//! The harness: builds a simulated cluster from a [`Schedule`], drives it
//! step by step while firing the scheduled faults, and runs the invariant
//! checkers after **every** event.
//!
//! Crash-restart is modelled end to end: each server writes its WAL through a
//! [`SharedMemStorage`] handle the harness keeps; a crash freezes the node
//! (and optionally tears records off the WAL tail), and the restart builds a
//! fresh `PrestigeServer`, replays the surviving records, re-attaches the
//! log, and swaps the node into the simulator via `replace_node` — the same
//! recovery path the real runtime takes, minus the filesystem.

use crate::invariants::{InvariantChecker, Violation};
use crate::schedule::{ActionKind, Schedule, ScheduledAction};
use prestige_core::{ClientConfig, PrestigeClient, PrestigeServer, ServerStats};
use prestige_crypto::KeyRegistry;
use prestige_sim::{NetworkConfig, SimTime, Simulation};
use prestige_storage::SharedMemStorage;
use prestige_types::{Actor, ClientId, ClusterConfig, Message, ServerId, TimeoutConfig};
use std::collections::BTreeMap;

/// What one falsification run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulator events processed.
    pub steps: u64,
    /// Individual invariant evaluations.
    pub invariant_checks: u64,
    /// The first violation, if the schedule falsified an invariant.
    pub violation: Option<Violation>,
    /// Violation tallies by invariant name.
    pub violation_counts: BTreeMap<&'static str, u64>,
    /// Blocks committed on the most advanced correct replica.
    pub committed_blocks: u64,
    /// Views installed on the most advanced correct replica.
    pub views_installed: u64,
    /// Final per-server statistics, in server order (bit-exact evidence for
    /// the determinism regression test).
    pub server_stats: Vec<ServerStats>,
    /// Debug rendering of the network counters (same purpose).
    pub net_stats_debug: String,
}

/// One expanded timeline operation (start or end of a scheduled fault).
#[derive(Debug, Clone, Copy)]
enum Op {
    BlockSym(u32),
    HealSym(u32),
    BlockOut(u32),
    HealOut(u32),
    BlockIn(u32),
    HealIn(u32),
    Degrade {
        delay_lo_us: u64,
        delay_hi_us: u64,
        loss_permille: u32,
    },
    RestoreNet,
    Crash {
        target: u32,
        torn_records: u32,
    },
    Restart {
        target: u32,
    },
}

/// Expands actions into a time-sorted `(at_ms, op)` list: each window
/// contributes a start op and an end op.
fn expand(actions: &[ScheduledAction]) -> Vec<(u64, Op)> {
    let mut ops = Vec::with_capacity(actions.len() * 2);
    for a in actions {
        match a.kind {
            ActionKind::PartitionSym {
                target,
                duration_ms,
            } => {
                ops.push((a.at_ms, Op::BlockSym(target)));
                ops.push((a.at_ms + duration_ms, Op::HealSym(target)));
            }
            ActionKind::PartitionOut {
                target,
                duration_ms,
            } => {
                ops.push((a.at_ms, Op::BlockOut(target)));
                ops.push((a.at_ms + duration_ms, Op::HealOut(target)));
            }
            ActionKind::PartitionIn {
                target,
                duration_ms,
            } => {
                ops.push((a.at_ms, Op::BlockIn(target)));
                ops.push((a.at_ms + duration_ms, Op::HealIn(target)));
            }
            ActionKind::Degrade {
                delay_lo_us,
                delay_hi_us,
                loss_permille,
                duration_ms,
            } => {
                ops.push((
                    a.at_ms,
                    Op::Degrade {
                        delay_lo_us,
                        delay_hi_us,
                        loss_permille,
                    },
                ));
                ops.push((a.at_ms + duration_ms, Op::RestoreNet));
            }
            ActionKind::CrashRestart {
                target,
                down_ms,
                torn_records,
            } => {
                ops.push((
                    a.at_ms,
                    Op::Crash {
                        target,
                        torn_records,
                    },
                ));
                ops.push((a.at_ms + down_ms, Op::Restart { target }));
            }
        }
    }
    ops.sort_by_key(|(t, _)| *t);
    ops
}

/// Runs one schedule to completion (or to its first violation).
pub fn run_schedule(schedule: &Schedule) -> RunOutcome {
    let n = schedule.servers;
    let mut cluster = ClusterConfig::new(n)
        .with_batch_size(schedule.batch_size)
        .with_payload_size(schedule.payload_size)
        .with_timeouts(TimeoutConfig::fast())
        .with_checkpoint_interval(schedule.checkpoint_interval);
    cluster.reputation.refresh_enabled = true;
    let behaviors = schedule.fault_plan().behaviors(n);
    let correct: Vec<bool> = behaviors.iter().map(|b| !b.is_faulty()).collect();
    let registry = KeyRegistry::new(schedule.seed, n, schedule.clients);
    let mut sim: Simulation<Message> = Simulation::new(schedule.seed, schedule.base_network());

    let mut storages: Vec<SharedMemStorage> = Vec::with_capacity(n as usize);
    for i in 0..n {
        let mut server = PrestigeServer::with_behavior(
            ServerId(i),
            cluster.clone(),
            registry.clone(),
            schedule.seed,
            behaviors[i as usize],
        );
        let storage = SharedMemStorage::new();
        server.attach_storage(Box::new(storage.clone()));
        storages.push(storage);
        sim.add_node(Actor::Server(ServerId(i)), Box::new(server));
    }
    for c in 0..schedule.clients {
        let mut cc = ClientConfig::new(
            ClientId(c),
            cluster.replicas.clone(),
            schedule.payload_size,
            schedule.concurrency,
        );
        cc.timeout_ms = TimeoutConfig::fast().client_timeout_ms;
        sim.add_node(
            Actor::Client(ClientId(c)),
            Box::new(PrestigeClient::new(cc, &registry)),
        );
    }

    let mut checker = InvariantChecker::new(n, correct.clone(), schedule.clients);
    let actors: Vec<Actor> = sim.actors().to_vec();
    let peers_of = |t: u32| -> Vec<Actor> {
        actors
            .iter()
            .copied()
            .filter(|a| *a != Actor::Server(ServerId(t)))
            .collect()
    };

    sim.start();
    let deadline = SimTime::from_ms(schedule.duration_ms as f64);
    let ops = expand(&schedule.actions);
    let mut next_op = 0usize;
    let mut steps = 0u64;
    let mut violation: Option<Violation> = None;

    loop {
        let next_event = sim.next_event_time();
        let due_op = ops.get(next_op).map(|(t, _)| *t);
        let op_is_due = match (due_op, next_event) {
            (Some(t), Some(ev)) => (t as f64) <= ev.as_ms() || ev > deadline,
            (Some(_), None) => true,
            _ => false,
        };
        if op_is_due {
            let (_, op) = ops[next_op];
            next_op += 1;
            match op {
                Op::BlockSym(t) => {
                    for peer in peers_of(t) {
                        sim.partition(Actor::Server(ServerId(t)), peer);
                    }
                }
                Op::HealSym(t) => {
                    for peer in peers_of(t) {
                        sim.heal(Actor::Server(ServerId(t)), peer);
                    }
                }
                Op::BlockOut(t) => {
                    for peer in peers_of(t) {
                        sim.block_oneway(Actor::Server(ServerId(t)), peer);
                    }
                }
                Op::HealOut(t) => {
                    for peer in peers_of(t) {
                        sim.unblock_oneway(Actor::Server(ServerId(t)), peer);
                    }
                }
                Op::BlockIn(t) => {
                    for peer in peers_of(t) {
                        sim.block_oneway(peer, Actor::Server(ServerId(t)));
                    }
                }
                Op::HealIn(t) => {
                    for peer in peers_of(t) {
                        sim.unblock_oneway(peer, Actor::Server(ServerId(t)));
                    }
                }
                Op::Degrade {
                    delay_lo_us,
                    delay_hi_us,
                    loss_permille,
                } => {
                    sim.set_network(NetworkConfig {
                        latency: prestige_sim::LatencyModel::Uniform {
                            lo_ms: delay_lo_us as f64 / 1_000.0,
                            hi_ms: delay_hi_us as f64 / 1_000.0,
                        },
                        bandwidth_bytes_per_sec: f64::INFINITY,
                        drop_probability: loss_permille as f64 / 1_000.0,
                    });
                }
                Op::RestoreNet => {
                    sim.set_network(schedule.base_network());
                }
                Op::Crash {
                    target,
                    torn_records,
                } => {
                    sim.crash(Actor::Server(ServerId(target)));
                    if torn_records > 0 {
                        storages[target as usize].truncate_tail(torn_records as usize);
                    }
                }
                Op::Restart { target } => {
                    let mut server = PrestigeServer::with_behavior(
                        ServerId(target),
                        cluster.clone(),
                        registry.clone(),
                        schedule.seed,
                        behaviors[target as usize],
                    );
                    server.replay_wal(storages[target as usize].records_snapshot());
                    server.attach_storage(Box::new(storages[target as usize].clone()));
                    sim.replace_node(Actor::Server(ServerId(target)), Box::new(server));
                    checker.note_restart(target);
                }
            }
            continue;
        }
        match next_event {
            Some(t) if t <= deadline => {
                sim.step();
                steps += 1;
                if violation.is_none() {
                    violation = checker.check(&sim);
                    if violation.is_some() {
                        break;
                    }
                }
            }
            _ => break,
        }
    }

    let mut committed_blocks = 0u64;
    let mut views_installed = 0u64;
    let mut server_stats = Vec::with_capacity(n as usize);
    for i in 0..n {
        let server: &PrestigeServer = sim
            .node_as(Actor::Server(ServerId(i)))
            .expect("server registered");
        if correct[i as usize] {
            committed_blocks = committed_blocks.max(server.stats().committed_blocks);
            views_installed = views_installed.max(server.stats().views_installed);
        }
        server_stats.push(server.stats().clone());
    }

    RunOutcome {
        steps,
        invariant_checks: checker.checks,
        violation,
        violation_counts: checker.violation_counts.clone(),
        committed_blocks,
        views_installed,
        server_stats,
        net_stats_debug: format!("{:?}", sim.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    #[test]
    fn benign_schedule_commits_and_stays_clean() {
        let mut s = Schedule::generate(1);
        s.fault_label = "none".into();
        s.fault_count = 0;
        s.actions.clear();
        s.duration_ms = 2_000;
        let outcome = run_schedule(&s);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.committed_blocks > 0, "no commits in a benign run");
        assert!(outcome.invariant_checks > 0);
    }

    #[test]
    fn crash_restart_schedule_recovers_cleanly() {
        let mut s = Schedule::generate(2);
        s.fault_label = "none".into();
        s.fault_count = 0;
        s.duration_ms = 3_000;
        s.actions = vec![ScheduledAction {
            at_ms: 800,
            kind: ActionKind::CrashRestart {
                target: 0,
                down_ms: 500,
                torn_records: 1,
            },
        }];
        let outcome = run_schedule(&s);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.committed_blocks > 0);
    }
}

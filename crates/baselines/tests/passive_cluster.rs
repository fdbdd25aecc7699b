//! End-to-end tests of the passive-view-change baselines on the simulator.

use prestige_baselines::PassiveBftServer;
use prestige_core::PrestigeClient;
use prestige_sim::{SimTime, Simulation};
use prestige_types::{Actor, ClientId, Message, ServerId, TimeoutConfig, View};
use prestige_vopr::SimCluster;
use prestige_workloads::{FaultPlan, Link, ProtocolChoice, Scenario};

/// Four `protocol` servers on the paper's LAN with its default timers, and
/// two clients keeping `concurrency` requests in flight each; `shape` sets
/// the rest. Faulty servers are the last ones, as the fault plan puts them.
fn build_cluster(
    seed: u64,
    protocol: ProtocolChoice,
    concurrency: usize,
    shape: Scenario,
) -> Simulation<Message> {
    let scenario = Scenario {
        seed,
        protocol,
        concurrency,
        ..shape
    };
    SimCluster::new(&scenario).sim
}

/// What [`build_cluster`] starts from: β = 50.
fn lan() -> Scenario {
    Scenario {
        batch_size: 50,
        timeouts: TimeoutConfig::default(),
        network: Link::LAN,
        ..Scenario::default()
    }
}

fn committed_tx(sim: &Simulation<Message>, server: u32) -> u64 {
    sim.node_as::<PassiveBftServer>(Actor::Server(ServerId(server)))
        .unwrap()
        .stats()
        .committed_tx
}

fn current_view(sim: &Simulation<Message>, server: u32) -> View {
    sim.node_as::<PassiveBftServer>(Actor::Server(ServerId(server)))
        .unwrap()
        .current_view()
}

#[test]
fn hotstuff_baseline_commits_under_normal_operation() {
    let mut sim = build_cluster(1, ProtocolChoice::HotStuff, 100, lan());
    sim.run_until(SimTime::from_secs(5.0));
    for s in 0..4 {
        assert!(
            committed_tx(&sim, s) > 500,
            "server {s} committed only {}",
            committed_tx(&sim, s)
        );
    }
    let client = sim
        .node_as::<PrestigeClient>(Actor::Client(ClientId(0)))
        .unwrap();
    assert!(client.stats().committed_tx > 300);
}

#[test]
fn a_fault_free_leader_is_never_voted_out() {
    // The `peak` row's shape: the paper's §6.2 timers (`[800, 1200]` ms,
    // 1 s client patience), β = 200 and 4 × 150 outstanding requests, 4 s.
    // A leader sees no `Ord`, phase QC or `CommitBlock` of its own, so its
    // commits must keep its view timer armed: with no fault no view
    // changes, and no request waits out even the shortest view timeout.
    let peak = Scenario {
        batch_size: 200,
        clients: 4,
        concurrency: 150,
        timeouts: TimeoutConfig {
            base_timeout_ms: 800.0,
            randomization_ms: 400.0,
            client_timeout_ms: 1000.0,
            complaint_grace_ms: 200.0,
        },
        network: Link::LAN,
        duration_ms: 4_000,
        ..Scenario::default()
    };
    for protocol in [
        ProtocolChoice::HotStuff,
        ProtocolChoice::ProsecutorLite,
        ProtocolChoice::SbftLite,
    ] {
        let label = protocol.label();
        let mut cluster = SimCluster::new(&Scenario {
            protocol,
            ..peak.clone()
        });
        cluster.sim.run_until(SimTime::from_secs(4.0));
        for s in 0..4 {
            let views = cluster.stats(s).views_installed;
            assert_eq!(views, 0, "{label}: s{s} installed {views} views");
        }
        for client in cluster.clients() {
            let max = client.stats().latency_hist.max_ms();
            assert!(
                max < peak.timeouts.base_timeout_ms,
                "{label}: a request waited {max:.1} ms"
            );
        }
    }
}

#[test]
fn two_phase_prosecutor_lite_also_commits() {
    let mut sim = build_cluster(5, ProtocolChoice::ProsecutorLite, 100, lan());
    sim.run_until(SimTime::from_secs(5.0));
    assert!(committed_tx(&sim, 0) > 500);
}

#[test]
fn three_phase_uses_strictly_more_messages_per_block() {
    // Same substrate, same workload: the third phase is real — HotStuff-style
    // replication exchanges pre-commit traffic and therefore more messages per
    // committed block than the two-phase pipeline. (The end-to-end throughput
    // consequence is measured by the Figure 6 experiment, where load is ramped
    // to saturation.)
    let mut three = build_cluster(9, ProtocolChoice::HotStuff, 100, lan());
    let mut two = build_cluster(9, ProtocolChoice::ProsecutorLite, 100, lan());
    three.run_until(SimTime::from_secs(5.0));
    two.run_until(SimTime::from_secs(5.0));
    assert!(committed_tx(&three, 0) > 500);
    assert!(committed_tx(&two, 0) > 500);

    assert!(three.stats().delivered("PreCmt") > 0);
    assert_eq!(two.stats().delivered("PreCmt"), 0);

    let blocks = |sim: &Simulation<Message>| {
        sim.node_as::<PassiveBftServer>(Actor::Server(ServerId(1)))
            .unwrap()
            .stats()
            .committed_blocks
            .max(1)
    };
    let repl_msgs = |sim: &Simulation<Message>| {
        sim.stats().delivered("Ord")
            + sim.stats().delivered("OrdReply")
            + sim.stats().delivered("PreCmt")
            + sim.stats().delivered("PreCmtReply")
            + sim.stats().delivered("Cmt")
            + sim.stats().delivered("CmtReply")
            + sim.stats().delivered("CommitBlock")
    };
    let per_block_three = repl_msgs(&three) as f64 / blocks(&three) as f64;
    let per_block_two = repl_msgs(&two) as f64 / blocks(&two) as f64;
    assert!(
        per_block_three > per_block_two + 3.0,
        "3-phase should need ~2(n-1) more messages per block: {per_block_three:.1} vs {per_block_two:.1}"
    );
}

#[test]
fn crashed_scheduled_leader_costs_a_timeout_but_liveness_holds() {
    let timers = Scenario {
        timeouts: TimeoutConfig {
            base_timeout_ms: 500.0,
            randomization_ms: 100.0,
            client_timeout_ms: 600.0,
            complaint_grace_ms: 100.0,
        },
        ..lan()
    };
    let mut sim = build_cluster(13, ProtocolChoice::HotStuff, 50, timers);
    sim.run_until(SimTime::from_secs(2.0));
    // Crash the current scheduled leader (view 1 → leader S(1 mod 4) = S2).
    sim.crash(Actor::Server(ServerId(1)));
    sim.run_until(SimTime::from_secs(10.0));
    // The survivors moved past the crashed leader's views and kept committing.
    for s in [0u32, 2, 3] {
        assert!(
            current_view(&sim, s) > View(1),
            "server {s} stuck in view 1"
        );
    }
    assert!(committed_tx(&sim, 0) > 500);
}

#[test]
fn quiet_fault_hurts_passive_protocol_when_scheduled() {
    // With a timing policy rotating every 2 s, a quiet server is still given
    // leadership by the schedule and each of its reigns stalls replication —
    // the weakness Figure 9 quantifies.
    let healthy = Scenario {
        rotation_ms: 2000,
        timeouts: TimeoutConfig {
            base_timeout_ms: 1000.0,
            randomization_ms: 100.0,
            client_timeout_ms: 600.0,
            complaint_grace_ms: 100.0,
        },
        ..lan()
    };
    // The quiet server is s3 (the fault plan puts faulty servers last).
    let faulty = Scenario {
        fault_plan: FaultPlan::Quiet { count: 1 },
        ..healthy.clone()
    };
    let mut good = build_cluster(17, ProtocolChoice::HotStuff, 100, healthy);
    let mut bad = build_cluster(17, ProtocolChoice::HotStuff, 100, faulty);
    good.run_until(SimTime::from_secs(12.0));
    bad.run_until(SimTime::from_secs(12.0));
    let good_tx = committed_tx(&good, 0);
    let bad_tx = committed_tx(&bad, 0);
    assert!(
        (bad_tx as f64) < 0.95 * good_tx as f64,
        "quiet scheduled leader should visibly hurt throughput: {bad_tx} vs {good_tx}"
    );
}

#[test]
fn deterministic_given_seed() {
    let batch_30 = Scenario {
        batch_size: 30,
        ..lan()
    };
    let mut a = build_cluster(23, ProtocolChoice::HotStuff, 50, batch_30.clone());
    let mut b = build_cluster(23, ProtocolChoice::HotStuff, 50, batch_30);
    a.run_until(SimTime::from_secs(2.0));
    b.run_until(SimTime::from_secs(2.0));
    assert_eq!(a.stats(), b.stats());
}

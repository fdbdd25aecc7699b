//! End-to-end cluster tests: PrestigeBFT servers and clients running on the
//! deterministic simulator.

use prestige_core::{
    AttackStrategy, ByzantineBehavior, ClientConfig, PrestigeClient, PrestigeServer, ServerRole,
};
use prestige_crypto::KeyRegistry;
use prestige_sim::{NetworkConfig, SimTime, Simulation};
use prestige_types::{
    Actor, ClientId, ClusterConfig, Message, ServerId, TimeoutConfig, View, ViewChangePolicy,
};

/// Builds a cluster of `n` servers (with the given per-server behaviours) and
/// `clients` clients, each keeping `concurrency` requests in flight.
fn build_cluster(
    seed: u64,
    config: &ClusterConfig,
    behaviors: &[ByzantineBehavior],
    clients: u64,
    concurrency: usize,
) -> Simulation<Message> {
    let n = config.n();
    let registry = KeyRegistry::new(seed, n, clients);
    let mut sim = Simulation::new(seed, NetworkConfig::lan());
    for i in 0..n {
        let behavior = behaviors.get(i as usize).copied().unwrap_or_default();
        let server = PrestigeServer::with_behavior(
            ServerId(i),
            config.clone(),
            registry.clone(),
            seed,
            behavior,
        );
        sim.add_node(Actor::Server(ServerId(i)), Box::new(server));
    }
    for c in 0..clients {
        let client_config = ClientConfig::new(
            ClientId(c),
            config.replicas.clone(),
            config.payload_size,
            concurrency,
        );
        let client = PrestigeClient::new(client_config, &registry);
        sim.add_node(Actor::Client(ClientId(c)), Box::new(client));
    }
    sim
}

fn committed_tx(sim: &Simulation<Message>, server: u32) -> u64 {
    sim.node_as::<PrestigeServer>(Actor::Server(ServerId(server)))
        .unwrap()
        .stats()
        .committed_tx
}

fn current_view(sim: &Simulation<Message>, server: u32) -> View {
    sim.node_as::<PrestigeServer>(Actor::Server(ServerId(server)))
        .unwrap()
        .current_view()
}

#[test]
fn normal_operation_commits_transactions() {
    let config = ClusterConfig::new(4).with_batch_size(50);
    let behaviors = vec![ByzantineBehavior::Correct; 4];
    let mut sim = build_cluster(1, &config, &behaviors, 2, 100);
    sim.run_until(SimTime::from_secs(5.0));

    // Every correct server commits a healthy number of transactions.
    for s in 0..4 {
        assert!(
            committed_tx(&sim, s) > 1000,
            "server {s} committed only {}",
            committed_tx(&sim, s)
        );
    }
    // Clients observe commits with f+1 confirmations.
    let client = sim
        .node_as::<PrestigeClient>(Actor::Client(ClientId(0)))
        .unwrap();
    assert!(client.stats().committed_tx > 500);
    assert!(client.stats().latency_hist.mean_ms() > 0.0);
    // No view change was needed under a correct leader.
    assert_eq!(current_view(&sim, 0), View(1));
    assert_eq!(current_view(&sim, 3), View(1));
    // Bounded state: after thousands of commits the client table is still a
    // few bitmap words per client (the vopr swarm can only hold replicas to
    // the hard cap — faults leave holes), and every request number but the
    // clients' last window and word has been retired from it.
    for s in 0..4 {
        let server = sim
            .node_as::<PrestigeServer>(Actor::Server(ServerId(s)))
            .unwrap();
        assert!(
            server.dedup_words() <= 4 * 2,
            "server {s} holds {} words for 2 clients",
            server.dedup_words()
        );
        let (committed, retired) = (server.stats().committed_tx, server.stats().gc_pruned_keys);
        assert!(
            retired > 0 && retired + 2 * (100 + 64) >= committed,
            "server {s} retired {retired} of {committed} committed request numbers"
        );
    }
}

#[test]
fn replicas_commit_identical_logs() {
    let config = ClusterConfig::new(4).with_batch_size(20);
    let behaviors = vec![ByzantineBehavior::Correct; 4];
    let mut sim = build_cluster(7, &config, &behaviors, 2, 40);
    sim.run_until(SimTime::from_secs(3.0));

    let reference = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(0)))
        .unwrap();
    let ref_seq = reference.store().latest_seq();
    assert!(ref_seq.0 > 10);
    for s in 1..4u32 {
        let server = sim
            .node_as::<PrestigeServer>(Actor::Server(ServerId(s)))
            .unwrap();
        let common = ref_seq.min(server.store().latest_seq());
        // Safety: every commonly committed sequence number holds the same block.
        for n in 1..=common.0 {
            let a = reference.store().tx_block(n.into()).unwrap();
            let b = server.store().tx_block(n.into()).unwrap();
            assert_eq!(a.header.digest, b.header.digest, "divergence at T{n}");
        }
        // Liveness: followers are not far behind the leader.
        assert!(server.store().latest_seq().0 + 20 >= ref_seq.0);
    }
}

#[test]
fn leader_crash_triggers_active_view_change_and_recovers() {
    let mut config = ClusterConfig::new(4).with_batch_size(50);
    config.timeouts = TimeoutConfig {
        base_timeout_ms: 300.0,
        randomization_ms: 300.0,
        client_timeout_ms: 400.0,
        complaint_grace_ms: 100.0,
    };
    let behaviors = vec![ByzantineBehavior::Correct; 4];
    let mut sim = build_cluster(3, &config, &behaviors, 2, 50);

    // Let the initial leader make progress, then crash it.
    sim.run_until(SimTime::from_secs(2.0));
    let committed_before = committed_tx(&sim, 1);
    assert!(committed_before > 100);
    sim.crash(Actor::Server(ServerId(0)));
    sim.run_until(SimTime::from_secs(10.0));

    // A new view was installed on the surviving servers, led by a live server.
    for s in 1..4u32 {
        assert!(
            current_view(&sim, s) > View(1),
            "server {s} never left view 1"
        );
    }
    let new_leader = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(1)))
        .unwrap()
        .current_leader();
    assert_ne!(new_leader, ServerId(0), "crashed server must not lead");

    // Replication resumed: the survivors committed more transactions.
    let committed_after = committed_tx(&sim, 1);
    assert!(
        committed_after > committed_before + 100,
        "throughput did not recover: {committed_before} -> {committed_after}"
    );
}

#[test]
fn quiet_faulty_follower_does_not_disturb_progress() {
    let config = ClusterConfig::new(4).with_batch_size(50);
    let behaviors = vec![
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::Quiet,
    ];
    let mut sim = build_cluster(11, &config, &behaviors, 2, 100);
    sim.run_until(SimTime::from_secs(5.0));
    // The quorum of 3 correct servers keeps committing.
    assert!(committed_tx(&sim, 0) > 1000);
    assert_eq!(current_view(&sim, 0), View(1));
}

#[test]
fn equivocating_follower_does_not_block_commits() {
    let config = ClusterConfig::new(4).with_batch_size(50);
    let behaviors = vec![
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::Equivocate,
        ByzantineBehavior::Correct,
    ];
    let mut sim = build_cluster(13, &config, &behaviors, 2, 100);
    sim.run_until(SimTime::from_secs(5.0));
    assert!(committed_tx(&sim, 0) > 1000);
}

#[test]
fn timing_policy_rotates_leadership() {
    let mut config =
        ClusterConfig::new(4)
            .with_batch_size(50)
            .with_policy(ViewChangePolicy::Timing {
                interval_ms: 2000.0,
            });
    config.timeouts = TimeoutConfig {
        base_timeout_ms: 300.0,
        randomization_ms: 300.0,
        client_timeout_ms: 400.0,
        complaint_grace_ms: 100.0,
    };
    let behaviors = vec![ByzantineBehavior::Correct; 4];
    let mut sim = build_cluster(17, &config, &behaviors, 2, 50);
    sim.run_until(SimTime::from_secs(12.0));

    // Several policy-driven rotations happened and replication still works.
    let views: Vec<View> = (0..4).map(|s| current_view(&sim, s)).collect();
    assert!(
        views.iter().all(|v| *v >= View(3)),
        "expected multiple rotations, views: {views:?}"
    );
    assert!(committed_tx(&sim, 0) > 500);
}

#[test]
fn repeated_vc_attacker_is_penalized_and_progress_resumes() {
    let mut config =
        ClusterConfig::new(4)
            .with_batch_size(50)
            .with_policy(ViewChangePolicy::Timing {
                interval_ms: 3000.0,
            });
    config.timeouts = TimeoutConfig {
        base_timeout_ms: 300.0,
        randomization_ms: 300.0,
        client_timeout_ms: 400.0,
        complaint_grace_ms: 100.0,
    };
    let behaviors = vec![
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::RepeatedVcQuiet(AttackStrategy::Always),
    ];
    let mut sim = build_cluster(19, &config, &behaviors, 2, 50);

    // First half: the attacker contests every rotation and may win a fair
    // share of early reigns while its penalty is still cheap to pay.
    sim.run_until(SimTime::from_secs(30.0));
    let wins_first_half = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(3)))
        .unwrap()
        .stats()
        .elections_won;
    let committed_first_half = committed_tx(&sim, 0);

    // Second half: the accumulated penalty has priced it out — this is the
    // paper's suppression claim (Figure 13), which is about the *trend*, not
    // about never winning an early race.
    sim.run_until(SimTime::from_secs(60.0));

    let s1 = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(0)))
        .unwrap();
    let attacker_rp = s1.store().current_rp(ServerId(3));
    assert!(
        attacker_rp >= 2,
        "attacker was never penalized (rp = {attacker_rp})"
    );
    assert_ne!(
        s1.current_leader(),
        ServerId(3),
        "attacker must not retain leadership"
    );
    let total_views = s1.current_view().0;
    let attacker = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(3)))
        .unwrap();
    let attacker_wins = attacker.stats().elections_won;
    assert!(total_views >= 4, "expected several view changes");
    assert!(
        attacker_wins * 2 <= total_views,
        "attacker won {attacker_wins} of {total_views} views — not suppressed"
    );
    let wins_second_half = attacker_wins - wins_first_half;
    assert!(
        wins_second_half <= 2,
        "suppression must strengthen over time: {wins_first_half} first-half \
         wins, then {wins_second_half} more"
    );
    // The attacker keeps paying for its campaigns, and the price climbs: its
    // latest campaigns run at a visibly higher penalty than its first (the
    // exponential-cost story of Figure 12). Cumulative puzzle-time
    // comparisons against correct servers are a coin flip at this horizon —
    // under a timing policy every rotation winner's penalty climbs too, and
    // one unlucky geometric draw at rp 4 dominates any total.
    let campaign_rps: Vec<i64> = attacker
        .stats()
        .campaign_log
        .iter()
        .map(|(_, rp, _)| *rp)
        .collect();
    assert!(
        campaign_rps.last().copied().unwrap_or(0) >= 3,
        "the attacker's campaign penalty must have climbed: {campaign_rps:?}"
    );
    assert!(attacker.stats().pow_ms_total > 0.0);
    // The cluster kept committing despite the attack — including in the
    // second half, under the suppressed attacker.
    assert!(committed_tx(&sim, 0) > committed_first_half + 10_000);
}

#[test]
fn same_seed_reproduces_identical_runs() {
    let config = ClusterConfig::new(4).with_batch_size(30);
    let behaviors = vec![ByzantineBehavior::Correct; 4];
    let mut a = build_cluster(23, &config, &behaviors, 2, 50);
    let mut b = build_cluster(23, &config, &behaviors, 2, 50);
    a.run_until(SimTime::from_secs(2.0));
    b.run_until(SimTime::from_secs(2.0));
    assert_eq!(committed_tx(&a, 2), committed_tx(&b, 2));
    assert_eq!(a.stats(), b.stats(), "network traces must be identical");
    for s in 0..4u32 {
        let sa = sim_server(&a, s);
        let sb = sim_server(&b, s);
        assert_eq!(sa.stats(), sb.stats(), "server {s} stats must be identical");
        assert_eq!(sa.store().latest_seq(), sb.store().latest_seq());
        let latest = sa.store().latest_seq().0;
        for n in 1..=latest {
            assert_eq!(
                sa.store().tx_block(n.into()).unwrap().header.digest,
                sb.store().tx_block(n.into()).unwrap().header.digest,
                "server {s} diverged at T{n}"
            );
        }
    }
}

#[test]
fn pipeline_depths_preserve_replica_agreement() {
    // Pipelining changes batch boundaries and scheduling, never safety: at
    // every depth (stop-and-wait through a deep window) the cluster makes
    // healthy progress, every replica holds the same chain on the common
    // prefix, and the log is gap-free with intact chain pointers.
    let behaviors = vec![ByzantineBehavior::Correct; 4];
    for depth in [1usize, 4, 8] {
        let config = ClusterConfig::new(4)
            .with_batch_size(20)
            .with_pipeline_depth(depth);
        let mut sim = build_cluster(7, &config, &behaviors, 2, 40);
        sim.run_until(SimTime::from_secs(3.0));

        let reference = sim_server(&sim, 0);
        let ref_seq = reference.store().latest_seq();
        assert!(ref_seq.0 > 10, "depth {depth}: cluster must progress");
        // Gap-free chain with intact prev pointers on the reference replica.
        let mut prev = None;
        for n in 1..=ref_seq.0 {
            let block = reference
                .store()
                .tx_block(n.into())
                .unwrap_or_else(|| panic!("depth {depth}: gap at T{n}"));
            if let Some(prev) = prev {
                assert_eq!(
                    block.header.prev_digest, prev,
                    "depth {depth}: chain broken at T{n}"
                );
            }
            prev = Some(block.header.digest);
        }
        // Every replica agrees on the common prefix.
        for s in 1..4u32 {
            let server = sim_server(&sim, s);
            let common = ref_seq.min(server.store().latest_seq());
            for n in 1..=common.0 {
                assert_eq!(
                    reference.store().tx_block(n.into()).unwrap().header.digest,
                    server.store().tx_block(n.into()).unwrap().header.digest,
                    "depth {depth}: server {s} diverged at T{n}"
                );
            }
        }
    }
}

fn sim_server(sim: &Simulation<Message>, id: u32) -> &PrestigeServer {
    sim.node_as::<PrestigeServer>(Actor::Server(ServerId(id)))
        .unwrap()
}

#[test]
fn servers_start_in_expected_roles() {
    let config = ClusterConfig::new(4);
    let behaviors = vec![ByzantineBehavior::Correct; 4];
    let sim = build_cluster(29, &config, &behaviors, 1, 10);
    let s1 = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(0)))
        .unwrap();
    let s2 = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(1)))
        .unwrap();
    assert_eq!(s1.role(), ServerRole::Leader);
    assert_eq!(s2.role(), ServerRole::Follower);
}

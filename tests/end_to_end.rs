//! Workspace-level integration tests: PrestigeBFT and the baselines running
//! side by side through the umbrella crate's public API.

use prestigebft::prelude::*;

fn prestige_cluster(
    seed: u64,
    config: &ClusterConfig,
    behaviors: &[ByzantineBehavior],
    clients: u64,
    concurrency: usize,
) -> Simulation<Message> {
    let registry = KeyRegistry::new(seed, config.n(), clients);
    let mut sim = Simulation::new(seed, NetworkConfig::lan());
    for i in 0..config.n() {
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
        let cc = ClientConfig::new(ClientId(c), config.replicas.clone(), 32, concurrency);
        sim.add_node(
            Actor::Client(ClientId(c)),
            Box::new(PrestigeClient::new(cc, &registry)),
        );
    }
    sim
}

#[test]
fn prestige_outperforms_hotstuff_under_frequent_rotations_with_quiet_faults() {
    // The paper's central comparison in miniature: same substrate, same
    // workload, timing-policy rotations, one quiet faulty server. PrestigeBFT
    // skips the faulty server (it cannot win an election); HotStuff's passive
    // schedule keeps handing it leadership.
    let mut config =
        ClusterConfig::new(4)
            .with_batch_size(100)
            .with_policy(ViewChangePolicy::Timing {
                interval_ms: 2500.0,
            });
    config.timeouts = TimeoutConfig {
        base_timeout_ms: 800.0,
        randomization_ms: 400.0,
        client_timeout_ms: 1000.0,
        complaint_grace_ms: 200.0,
    };
    let behaviors = vec![
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::Quiet,
    ];

    let registry = KeyRegistry::new(5, 4, 2);
    let mut pb = prestige_cluster(5, &config, &behaviors, 2, 100);
    let mut hs = Simulation::new(5, NetworkConfig::lan());
    for i in 0..4 {
        let server = PassiveBftServer::with_behavior(
            ServerId(i),
            config.clone(),
            registry.clone(),
            BaselineProtocol::HotStuff,
            behaviors[i as usize],
        );
        hs.add_node(Actor::Server(ServerId(i)), Box::new(server));
    }
    for c in 0..2u64 {
        let cc = ClientConfig::new(ClientId(c), config.replicas.clone(), 32, 100);
        hs.add_node(
            Actor::Client(ClientId(c)),
            Box::new(PrestigeClient::new(cc, &registry)),
        );
    }

    pb.run_until(SimTime::from_secs(15.0));
    hs.run_until(SimTime::from_secs(15.0));

    let pb_tx = pb
        .node_as::<PrestigeServer>(Actor::Server(ServerId(0)))
        .unwrap()
        .stats()
        .committed_tx;
    let hs_tx = hs
        .node_as::<PassiveBftServer>(Actor::Server(ServerId(0)))
        .unwrap()
        .stats()
        .committed_tx;
    assert!(
        pb_tx > 1000 && hs_tx > 1000,
        "both must make progress: pb={pb_tx} hs={hs_tx}"
    );
    assert!(
        pb_tx > hs_tx,
        "PrestigeBFT ({pb_tx}) should out-commit HotStuff ({hs_tx}) under faults + rotations"
    );

    // PrestigeBFT never elected the quiet server.
    let pb_ref = pb
        .node_as::<PrestigeServer>(Actor::Server(ServerId(0)))
        .unwrap();
    assert_ne!(pb_ref.current_leader(), ServerId(3));
}

#[test]
fn safety_holds_across_protocols_and_faults() {
    // No two servers ever commit different blocks at the same sequence number,
    // under an equivocating follower.
    let config = ClusterConfig::new(4).with_batch_size(40);
    let behaviors = vec![
        ByzantineBehavior::Correct,
        ByzantineBehavior::Correct,
        ByzantineBehavior::Equivocate,
        ByzantineBehavior::Correct,
    ];
    let mut sim = prestige_cluster(11, &config, &behaviors, 2, 60);
    sim.run_until(SimTime::from_secs(4.0));
    let reference = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(0)))
        .unwrap();
    for other_id in [1u32, 3] {
        let other = sim
            .node_as::<PrestigeServer>(Actor::Server(ServerId(other_id)))
            .unwrap();
        let common = reference
            .store()
            .latest_seq()
            .min(other.store().latest_seq());
        assert!(common.0 > 5);
        for n in 1..=common.0 {
            assert_eq!(
                reference.store().tx_block(SeqNum(n)).unwrap().header.digest,
                other.store().tx_block(SeqNum(n)).unwrap().header.digest,
                "divergence at T{n} on S{}",
                other_id + 1
            );
        }
    }
}

#[test]
fn experiment_harness_runs_a_scenario_end_to_end() {
    let mut config = ExperimentConfig::new("integration_pb", 4, ProtocolChoice::Prestige);
    config.duration_s = 2.0;
    config.warmup_s = 0.2;
    config.batch_size = 50;
    config.workload = WorkloadSpec::new(2, 50, 32);
    let outcome = prestigebft::experiments::run(&config);
    assert!(outcome.tps > 100.0);
    assert!(outcome.latency.mean_ms() > 0.0);
    assert_eq!(outcome.servers.len(), 4);
}

#[test]
fn experiment_registry_covers_every_figure() {
    let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
    for expected in [
        "peak", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    ] {
        assert!(ids.contains(&expected), "missing experiment {expected}");
    }
}

#[test]
fn refresh_mechanism_resets_penalties_eventually() {
    // Drive the reputation engine hard enough that a correct server's penalty
    // would exceed the refresh threshold, then confirm the engine's refresh
    // plumbing exposes the initial values.
    let engine = ReputationEngine::default();
    assert_eq!(engine.initial_values(), (1, 1));
    assert!(engine.exceeds_refresh_threshold(9));
    assert!(!engine.exceeds_refresh_threshold(3));
}

//! Workspace-level integration tests: PrestigeBFT and the baselines running
//! side by side through the umbrella crate's public API.

use prestigebft::prelude::*;
use std::collections::BTreeMap;

/// The paper's central comparison in miniature, as a scenario: timing-policy
/// rotations, the paper's timers, one quiet faulty server (s3).
fn rotations_with_a_quiet_server() -> Scenario {
    Scenario {
        seed: 5,
        batch_size: 100,
        rotation_ms: 2500,
        timeouts: TimeoutConfig {
            base_timeout_ms: 800.0,
            randomization_ms: 400.0,
            client_timeout_ms: 1000.0,
            complaint_grace_ms: 200.0,
        },
        network: Link::LAN,
        fault_plan: FaultPlan::Quiet { count: 1 },
        ..Scenario::default()
    }
}

#[test]
fn prestige_outperforms_hotstuff_under_frequent_rotations_with_quiet_faults() {
    // Same substrate, same workload, timing-policy rotations, one quiet
    // faulty server. PrestigeBFT skips the faulty server (it cannot win an
    // election); HotStuff's passive schedule keeps handing it leadership.
    let scenario = rotations_with_a_quiet_server();
    let mut pb = SimCluster::new(&scenario);
    let mut hs = SimCluster::new(&Scenario {
        protocol: ProtocolChoice::HotStuff,
        ..scenario
    });
    pb.sim.run_until(SimTime::from_secs(15.0));
    hs.sim.run_until(SimTime::from_secs(15.0));

    let pb_tx = pb.stats(0).committed_tx;
    let hs_tx = hs.stats(0).committed_tx;
    assert!(
        pb_tx > 1000 && hs_tx > 1000,
        "both must make progress: pb={pb_tx} hs={hs_tx}"
    );
    assert!(
        pb_tx > hs_tx,
        "PrestigeBFT ({pb_tx}) should out-commit HotStuff ({hs_tx}) under faults + rotations"
    );

    // PrestigeBFT never elected the quiet server.
    let pb_ref = pb.server(0).unwrap();
    assert_ne!(pb_ref.current_leader(), ServerId(3));
}

#[test]
fn no_hotstuff_client_stalls_across_fault_free_rotations() {
    // Quick fig9's `hs_r10_quiet` row at f = 0: every 3 s the schedule
    // hands leadership on, and no fault is injected. Each client keeps
    // committing through every reign: an incoming leader that lags one
    // block behind its followers must not propose a number they already
    // committed and leave a client's requests stranded in that batch.
    let mut cluster = SimCluster::new(&Scenario {
        seed: 11,
        protocol: ProtocolChoice::HotStuff,
        servers: 4,
        rotation_ms: 3_000,
        ..prestigebft::experiments::runner::fault_experiment()
    });
    let mut last: Vec<u64> = vec![0; 4];
    for second in 1..=8 {
        cluster.sim.run_until(SimTime::from_secs(second as f64));
        let now: Vec<u64> = cluster.clients().map(|c| c.stats().committed_tx).collect();
        for (client, (now, before)) in now.iter().zip(&last).enumerate() {
            assert!(
                now > before,
                "client {client} committed nothing in second {second} ({before} → {now})"
            );
        }
        last = now;
    }
}

#[test]
fn safety_holds_across_protocols_and_faults() {
    // No two servers ever commit different blocks at the same sequence number,
    // under an equivocating follower (s3: the fault plan puts it last).
    let scenario = Scenario {
        seed: 11,
        batch_size: 40,
        concurrency: 60,
        timeouts: TimeoutConfig::default(),
        network: Link::LAN,
        fault_plan: FaultPlan::Equivocate { count: 1 },
        ..Scenario::default()
    };
    let mut cluster = SimCluster::new(&scenario);
    cluster.sim.run_until(SimTime::from_secs(4.0));
    let reference = cluster.server(0).unwrap();
    let held: BTreeMap<u64, _> = reference.store().chain_digests().into_iter().collect();
    for other_id in [1u32, 2] {
        let other = cluster.server(other_id).unwrap();
        let common = reference
            .store()
            .latest_seq()
            .min(other.store().latest_seq());
        assert!(common.0 > 5);
        // Every height both stores still hold carries the same chain digest,
        // and those heights include the common tip: a chain digest
        // fingerprints its whole prefix, pruned or not.
        let mut compared = Vec::new();
        for (n, digest) in other.store().chain_digests() {
            if let Some(seen) = held.get(&n) {
                assert_eq!(seen, &digest, "divergence at T{n} on S{}", other_id + 1);
                compared.push(n);
            }
        }
        assert!(
            compared.contains(&common.0),
            "S{} shares no held block at the common tip T{}",
            other_id + 1,
            common.0
        );
    }
}

#[test]
fn experiment_harness_runs_a_scenario_end_to_end() {
    // The one builder, under every protocol the figures compare: a short
    // row commits, and the harness measures it.
    for protocol in ProtocolChoice::ALL {
        let scenario = Scenario {
            name: format!("integration_{}", protocol.label()),
            protocol,
            clients: 2,
            concurrency: 50,
            batch_size: 50,
            duration_ms: 2_000,
            ..prestigebft::experiments::runner::base()
        };
        let outcome = prestigebft::experiments::run(&scenario, 0.1, None);
        assert!(outcome.tps > 100.0, "{protocol:?}: tps was {}", outcome.tps);
        assert!(outcome.latency.mean_ms() > 0.0, "{protocol:?}");
        assert_eq!(outcome.servers.len(), 4);
        if protocol == ProtocolChoice::Prestige {
            // Same scenario, same measurements.
            let again = prestigebft::experiments::run(&scenario, 0.1, None);
            assert_eq!(outcome.tps, again.tps);
            assert_eq!(
                outcome.reference.views_installed,
                again.reference.views_installed
            );
        }
    }
}

#[test]
fn server_stats_do_not_grow_with_committed_blocks() {
    // What a server exports is counters, on both protocols: its encoding is
    // as long after 1 000 blocks as after 100. A series over time is the
    // reader's to sample.
    for protocol in [ProtocolChoice::Prestige, ProtocolChoice::HotStuff] {
        let mut cluster = SimCluster::new(&Scenario {
            protocol,
            network: Link::LAN,
            ..Scenario::default()
        });
        cluster.sim.start();
        let mut encoded_after = |blocks: u64| -> Vec<usize> {
            while cluster.stats(0).committed_blocks < blocks {
                assert!(cluster.sim.step().is_some(), "{protocol:?} stalled");
            }
            let encode = |i| bincode::serialize(cluster.stats(i)).expect("encodes");
            (0..4).map(|i| encode(i).len()).collect()
        };
        let early = encoded_after(100);
        let late = encoded_after(1_000);
        assert_eq!(early, late, "{protocol:?}: a ServerStats field grew");
    }
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
    let engine = ReputationEngine;
    assert_eq!(engine.initial_values(), (1, 1));
    assert!(engine.exceeds_refresh_threshold(9));
    assert!(!engine.exceeds_refresh_threshold(3));
}

//! End-to-end cluster tests: PrestigeBFT servers and clients running on the
//! deterministic simulator.

use prestige_core::{AttackStrategy, PrestigeClient, PrestigeServer, ServerRole};
use prestige_sim::{SimTime, Simulation};
use prestige_types::{Actor, ClientId, Message, ServerId, TimeoutConfig, View};
use prestige_vopr::SimCluster;
use prestige_workloads::{FaultPlan, Link, Scenario};

/// The simulated cluster `shape` describes, at this seed, batch size and
/// per-client window. Faulty servers are the last ones, as the fault plan
/// puts them.
fn build_cluster(
    seed: u64,
    batch_size: usize,
    concurrency: usize,
    shape: Scenario,
) -> Simulation<Message> {
    let scenario = Scenario {
        seed,
        batch_size,
        concurrency,
        ..shape
    };
    SimCluster::new(&scenario).sim
}

/// What [`build_cluster`] starts from.
fn lan() -> Scenario {
    Scenario {
        timeouts: TimeoutConfig::default(),
        network: Link::LAN,
        ..Scenario::default()
    }
}

/// [`lan`] with the fast timers (`[300, 600]` ms, 400 ms client patience).
fn fast_lan() -> Scenario {
    Scenario {
        timeouts: TimeoutConfig::fast(),
        ..lan()
    }
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
    let mut sim = build_cluster(1, 50, 100, lan());
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
    let mut sim = build_cluster(7, 20, 40, lan());
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
        // Safety: every commonly held sequence number holds the same block,
        // and a chain digest fingerprints its whole prefix.
        assert_agree(reference, server);
        // Liveness: followers are not far behind the leader.
        assert!(server.store().latest_seq().0 + 20 >= ref_seq.0);
    }
}

#[test]
fn leader_crash_triggers_active_view_change_and_recovers() {
    let mut sim = build_cluster(3, 50, 50, fast_lan());

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
    let quiet = Scenario {
        fault_plan: FaultPlan::Quiet { count: 1 },
        ..lan()
    };
    let mut sim = build_cluster(11, 50, 100, quiet);
    sim.run_until(SimTime::from_secs(5.0));
    // The quorum of 3 correct servers keeps committing.
    assert!(committed_tx(&sim, 0) > 1000);
    assert_eq!(current_view(&sim, 0), View(1));
}

#[test]
fn equivocating_follower_does_not_block_commits() {
    // The equivocator is s3 (the fault plan puts faulty servers last).
    let equivocator = Scenario {
        fault_plan: FaultPlan::Equivocate { count: 1 },
        ..lan()
    };
    let mut sim = build_cluster(13, 50, 100, equivocator);
    sim.run_until(SimTime::from_secs(5.0));
    assert!(committed_tx(&sim, 0) > 1000);
}

#[test]
fn timing_policy_rotates_leadership() {
    let rotating = Scenario {
        rotation_ms: 2000,
        ..fast_lan()
    };
    let mut sim = build_cluster(17, 50, 50, rotating);
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
    let attacked = Scenario {
        rotation_ms: 3000,
        fault_plan: FaultPlan::RepeatedVcQuiet {
            count: 1,
            strategy: AttackStrategy::Always,
        },
        ..fast_lan()
    };
    let mut sim = build_cluster(19, 50, 50, attacked);

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
    let last_campaign = attacker.stats().last_campaign;
    assert!(
        last_campaign.map_or(0, |(_, rp, _)| rp) >= 3,
        "the attacker's campaign penalty must have climbed: {last_campaign:?}"
    );
    assert!(attacker.stats().pow_ms_total > 0.0);
    // The cluster kept committing despite the attack — including in the
    // second half, under the suppressed attacker.
    assert!(committed_tx(&sim, 0) > committed_first_half + 10_000);
}

#[test]
fn same_seed_reproduces_identical_runs() {
    let mut a = build_cluster(23, 30, 50, lan());
    let mut b = build_cluster(23, 30, 50, lan());
    a.run_until(SimTime::from_secs(2.0));
    b.run_until(SimTime::from_secs(2.0));
    assert_eq!(committed_tx(&a, 2), committed_tx(&b, 2));
    assert_eq!(a.stats(), b.stats(), "network traces must be identical");
    for s in 0..4u32 {
        let sa = sim_server(&a, s);
        let sb = sim_server(&b, s);
        assert_eq!(sa.stats(), sb.stats(), "server {s} stats must be identical");
        assert_eq!(sa.store().latest_seq(), sb.store().latest_seq());
        assert_eq!(
            sa.store().chain_digests(),
            sb.store().chain_digests(),
            "server {s} diverged"
        );
    }
}

#[test]
fn pipelined_replication_preserves_replica_agreement() {
    // Pipelining changes batch boundaries and scheduling, never safety: the
    // cluster makes healthy progress, every replica holds the same chain on
    // the common prefix, and the log is gap-free with intact chain pointers.
    let mut sim = build_cluster(7, 20, 40, lan());
    sim.run_until(SimTime::from_secs(3.0));

    let reference = sim_server(&sim, 0);
    let ref_seq = reference.store().latest_seq();
    assert!(ref_seq.0 > 10, "cluster must progress");
    // Gap-free chain with intact prev pointers on the reference replica,
    // from the first block it still holds.
    let first = reference.store().chain_digests()[0].0;
    let mut prev = None;
    for n in first..=ref_seq.0 {
        let block = reference
            .store()
            .tx_block(n.into())
            .unwrap_or_else(|| panic!("gap at T{n}"));
        if let Some(prev) = prev {
            assert_eq!(block.header.prev_digest, prev, "chain broken at T{n}");
        }
        prev = Some(block.header.digest);
    }
    // Every replica agrees on the common prefix.
    for s in 1..4u32 {
        assert_agree(reference, sim_server(&sim, s));
    }
}

#[test]
fn a_store_holds_at_most_three_checkpoint_intervals() {
    // `peak`'s shape on simulated LAN links: one closed-loop client of 512,
    // batch 500, checkpoints every 64 blocks, all four servers live. Every
    // server's shares keep arriving, so every store drops the prefix below
    // the lowest checkpoint height less one interval.
    let peak = Scenario {
        clients: 1,
        ..lan()
    };
    let mut sim = build_cluster(5, 500, 512, peak);
    sim.run_until(SimTime::from_secs(3.0));
    for s in 0..4u32 {
        let server = sim_server(&sim, s);
        let tip = server.store().latest_seq().0;
        let held = server.store().chain_digests().len() as u64;
        assert!(tip > 6 * 64, "s{s} committed only {tip} blocks");
        assert_eq!(server.stats().committed_blocks, tip);
        assert!(held <= 3 * 64, "s{s} holds {held} of {tip} blocks");
    }
}

fn sim_server(sim: &Simulation<Message>, id: u32) -> &PrestigeServer {
    sim.node_as::<PrestigeServer>(Actor::Server(ServerId(id)))
        .unwrap()
}

/// Asserts that `a` and `b` hold the same chain digest at every height both
/// still hold, and that those heights include the lower of their tips: a
/// chain digest fingerprints its whole prefix, so agreeing there is
/// agreeing on everything below it, pruned or not.
fn assert_agree(a: &PrestigeServer, b: &PrestigeServer) {
    let common_tip = a.store().latest_seq().min(b.store().latest_seq()).0;
    let theirs: std::collections::BTreeMap<u64, _> =
        b.store().chain_digests().into_iter().collect();
    let mut compared = Vec::new();
    for (n, digest) in a.store().chain_digests() {
        if let Some(other) = theirs.get(&n) {
            assert_eq!(
                &digest,
                other,
                "{:?} and {:?} diverged at T{n}",
                a.id(),
                b.id()
            );
            compared.push(n);
        }
    }
    assert!(
        compared.contains(&common_tip),
        "{:?} and {:?} share no held block at their common tip T{common_tip}",
        a.id(),
        b.id()
    );
}

#[test]
fn servers_start_in_expected_roles() {
    let one_client = Scenario {
        clients: 1,
        ..lan()
    };
    let sim = build_cluster(29, 100, 10, one_client);
    let s1 = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(0)))
        .unwrap();
    let s2 = sim
        .node_as::<PrestigeServer>(Actor::Server(ServerId(1)))
        .unwrap();
    assert_eq!(s1.role(), ServerRole::Leader);
    assert_eq!(s2.role(), ServerRole::Follower);
}

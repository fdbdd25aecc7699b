//! Adversarial integration tests (acceptance criterion of the chaos
//! tentpole): the paper's attacks run on *real* node runtimes, composed with
//! injected network faults, and the cluster stays safe and live.
//!
//! The headline test is the issue's scenario: an F4 attacker campaigns under
//! S1 (attack at every opportunity) while a 500 ms partition isolates the
//! leader mid-run — the cluster must commit ≥ 1000 transactions after the
//! fault window with identical committed logs on all correct nodes.

use prestige_core::{AttackStrategy, ByzantineBehavior};
use prestige_net::cluster::{Cluster, Fabric, LocalCluster, Loopback, Tcp};
use prestige_net::NetChaos;
use prestige_types::{Actor, ClientId, ClusterConfig, ServerId, TimeoutConfig, ViewChangePolicy};
use std::time::Duration;

/// The paper's fast profile plus a timing rotation policy, which is what
/// gives an F4 attacker its periodic campaign windows.
fn adversarial_config(n: u32) -> ClusterConfig {
    ClusterConfig::new(n)
        .with_batch_size(100)
        .with_timeouts(TimeoutConfig::fast())
        .with_policy(ViewChangePolicy::Timing {
            interval_ms: 1500.0,
        })
}

/// Every actor of a 4-server / `clients`-client cluster except `target`.
fn everyone_but(target: ServerId, n: u32, clients: u64) -> Vec<Actor> {
    let mut others: Vec<Actor> = (0..n)
        .filter(|&i| ServerId(i) != target)
        .map(|i| Actor::Server(ServerId(i)))
        .collect();
    others.extend((0..clients).map(|c| Actor::Client(ClientId(c))));
    others
}

#[test]
fn f4_s1_attacker_with_leader_partition_recovers_without_fork() {
    f4_s1_attacker_with_leader_partition::<Loopback>();
}

#[test]
fn f4_s1_attacker_with_leader_partition_recovers_without_fork_over_tcp() {
    // Behaviours and the chaos filter over sockets: same attacker, same
    // partition, same bar.
    f4_s1_attacker_with_leader_partition::<Tcp>();
}

fn f4_s1_attacker_with_leader_partition<F: Fabric>() {
    let n = 4u32;
    let clients = 2u64;
    let mut behaviors = vec![ByzantineBehavior::Correct; n as usize];
    behaviors[3] = ByzantineBehavior::RepeatedVcQuiet(AttackStrategy::Always);
    let chaos = NetChaos::new();
    let cluster = Cluster::<F>::launch_full(
        adversarial_config(n),
        42,
        clients,
        100,
        &behaviors,
        Some(chaos.clone()),
        None,
    )
    .expect("launch the adversarial cluster");
    assert_eq!(
        cluster.behavior_of(ServerId(3)),
        ByzantineBehavior::RepeatedVcQuiet(AttackStrategy::Always)
    );
    assert_eq!(
        cluster.correct_servers(),
        vec![ServerId(0), ServerId(1), ServerId(2)]
    );

    // Phase 1: commits flow with the attacker aboard.
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 500),
        "cluster must commit with an F4/S1 attacker aboard, got {}",
        cluster.total_committed()
    );

    // Phase 2: a 500 ms symmetric partition isolates the current leader from
    // every other node (servers and clients), then heals.
    let observer = cluster.correct_servers()[0];
    let (_, leader) = cluster.view_of(observer).expect("observer answers");
    let (isolated, others) = ([Actor::Server(leader)], everyone_but(leader, n, clients));
    chaos.partition_between(&isolated, &others);
    std::thread::sleep(Duration::from_millis(500));
    chaos.heal_between(&isolated, &others);
    assert!(
        !chaos.is_partitioned(),
        "the heal must have dissolved the partition"
    );
    let committed_after_fault = cluster.total_committed();

    // Phase 3: the issue's acceptance bar — ≥ 1000 transactions committed
    // after the fault window.
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| {
            c.total_committed() >= committed_after_fault + 1000
        }),
        "cluster must commit >= 1000 tx after the fault window: {} -> {}",
        committed_after_fault,
        cluster.total_committed()
    );

    // The attacker really campaigned (the rotation policy keeps opening
    // windows, so this converges quickly).
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| {
            c.server_stats(ServerId(3))
                .map(|s| s.campaigns_started >= 1)
                .unwrap_or(false)
        }),
        "the F4/S1 attacker must have launched at least one campaign"
    );

    // Phase 4: safety — every correct server advanced past the fault window
    // and all committed logs are identical over their common prefix.
    let correct = cluster.correct_servers();
    let target_tip = cluster
        .committed_chain(observer)
        .and_then(|chain| chain.last().map(|(tip, _)| *tip))
        .expect("observer has a chain");
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| {
            correct.iter().all(|&id| {
                c.committed_chain(id)
                    .and_then(|chain| chain.last().map(|(tip, _)| *tip))
                    .is_some_and(|tip| tip >= target_tip)
            })
        }),
        "every correct server must catch up past sequence {target_tip}"
    );
    let prefix = cluster
        .verify_no_fork(&correct)
        .expect("correct servers must agree on every common sequence number");
    assert!(
        prefix >= target_tip,
        "identical prefix {prefix} must cover the post-fault tip {target_tip}"
    );
    cluster.shutdown();
}

#[test]
fn equivocating_attacker_on_lossy_links_cannot_stop_or_fork_the_cluster() {
    // F3 (equivocation) composed with 1% link loss and 2±2 ms delay. With an
    // equivocator aboard, every delivery to a *correct* follower is
    // quorum-critical (3 of 4 with one liar means no slack), so each lost
    // protocol message wedges its instance until the client-complaint →
    // view-change path re-proposes it — loss must cost throughput, never
    // safety. 1% keeps those recovery cycles rare enough for a brisk test;
    // see `scenarios/f4_s2_lossy.toml` for the tunable version.
    let n = 4u32;
    let mut behaviors = vec![ByzantineBehavior::Correct; n as usize];
    behaviors[3] = ByzantineBehavior::Equivocate;
    let chaos = NetChaos::new();
    chaos.set_loss(0.01);
    chaos.set_link_delay(Duration::from_millis(2), Duration::from_millis(2));
    let cluster = LocalCluster::launch_full(
        ClusterConfig::new(n)
            .with_batch_size(100)
            .with_timeouts(TimeoutConfig::fast()),
        7,
        2,
        64,
        &behaviors,
        Some(chaos),
        None,
    )
    .expect("loopback launch");
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 500),
        "lossy links + an equivocator must not stop the cluster, got {}",
        cluster.total_committed()
    );
    cluster
        .verify_no_fork(&cluster.correct_servers())
        .expect("no fork under loss and equivocation");
    cluster.shutdown();
}

#[test]
fn healing_one_of_two_overlapping_cuts_leaves_the_other_in_force() {
    // Two followers are muted (outbound cut) in overlapping windows that end
    // at different times. With both muted the leader hears one follower
    // short of a quorum and commits stop; healing s2's cut alone must bring
    // the quorum back while s3 stays muted until its own heal.
    let n = 4u32;
    let clients = 2u64;
    let chaos = NetChaos::new();
    let cluster = LocalCluster::launch_full(
        ClusterConfig::new(n)
            .with_batch_size(100)
            .with_timeouts(TimeoutConfig::fast()),
        19,
        clients,
        100,
        &[],
        Some(chaos.clone()),
        None,
    )
    .expect("loopback launch");
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 500),
        "cluster must commit before the cuts"
    );

    let (s2, s3) = ([Actor::Server(ServerId(2))], [Actor::Server(ServerId(3))]);
    let not_s2 = everyone_but(ServerId(2), n, clients);
    let not_s3 = everyone_but(ServerId(3), n, clients);
    chaos.partition_oneway(&s2, &not_s2);
    chaos.partition_oneway(&s3, &not_s3);
    assert_eq!(chaos.blocked_links(), 2 * not_s3.len());

    // First heal: only s2's links come back.
    std::thread::sleep(Duration::from_millis(200));
    chaos.heal_oneway(&s2, &not_s2);
    assert_eq!(
        chaos.blocked_links(),
        not_s3.len(),
        "healing s2's cut must not dissolve s3's"
    );
    let committed = cluster.total_committed();
    let dropped = cluster.transport_totals().dropped;
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| {
            c.total_committed() >= committed + 1000
        }),
        "s0, s1 and s2 are a quorum again: commits must resume, got {} -> {}",
        committed,
        cluster.total_committed()
    );
    assert!(
        cluster.transport_totals().dropped > dropped,
        "s3 is still muted: its replies must still be shed"
    );
    assert_eq!(chaos.blocked_links(), not_s3.len());

    // Second heal, at its own time.
    chaos.heal_oneway(&s3, &not_s3);
    assert!(!chaos.is_partitioned());
    let all: Vec<ServerId> = (0..n).map(ServerId).collect();
    cluster
        .verify_no_fork(&all)
        .expect("no fork across the overlapping cuts");
    cluster.shutdown();
}

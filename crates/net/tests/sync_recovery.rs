//! Recovery-plane integration tests: a wedged pipeline on the *real*
//! runtime heals through sync/retransmission alone — no view change.

use prestige_net::cluster::LocalCluster;
use prestige_net::NetChaos;
use prestige_types::{Actor, ClientId, ClusterConfig, ServerId, View};
use std::time::Duration;

/// Every actor except the given servers (the far side of the partition).
fn everyone_but(targets: &[ServerId], n: u32, clients: u64) -> Vec<Actor> {
    let mut others: Vec<Actor> = (0..n)
        .filter(|&i| !targets.contains(&ServerId(i)))
        .map(|i| Actor::Server(ServerId(i)))
        .collect();
    others.extend((0..clients).map(|c| Actor::Client(ClientId(c))));
    others
}

#[test]
fn wedged_pipeline_recovers_via_sync_alone_without_view_change() {
    // Cut BOTH followers s2 and s3 away mid-run: the leader keeps only one
    // peer, so no quorum forms and the pipeline wedges with a full window.
    // After the heal, the leader's stalled-instance retransmission plus the
    // followers' repair-timer syncs must revive replication — while every
    // server stays in view 1 (default timeouts give the client-complaint →
    // view-change path no time to fire, so any recovery observed is the
    // recovery plane's).
    let n = 4u32;
    let clients = 2u64;
    let chaos = NetChaos::new();
    let config = ClusterConfig::new(n).with_batch_size(50);
    let cluster =
        LocalCluster::launch_full(config, 13, clients, 64, &[], Some(chaos.clone()), None)
            .expect("loopback launch");

    // Phase 1: healthy commits.
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 500),
        "cluster must commit before the fault, got {}",
        cluster.total_committed()
    );

    // Phase 2: wedge the pipeline — both followers unreachable for 300 ms.
    let cut = [ServerId(2), ServerId(3)];
    let others = everyone_but(&cut, n, clients);
    let me: Vec<Actor> = cut.iter().map(|&s| Actor::Server(s)).collect();
    chaos.partition_between(&me, &others);
    std::thread::sleep(Duration::from_millis(300));
    chaos.heal_between(&me, &others);
    assert!(!chaos.is_partitioned(), "the heal must have fired");
    let committed_at_heal = cluster.total_committed();

    // Phase 3: replication revives through retransmission + sync.
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| {
            c.total_committed() >= committed_at_heal + 1000
        }),
        "the wedged pipeline must recover through sync: {} -> {}",
        committed_at_heal,
        cluster.total_committed()
    );

    // Phase 4: recovery used NO view change, and the cut followers caught
    // all the way up with identical logs.
    for i in 0..n {
        let id = ServerId(i);
        let (view, leader) = cluster.view_of(id).expect("server answers");
        assert_eq!(view, View(1), "s{i} must still be in view 1");
        assert_eq!(leader, ServerId(0), "s{i} must still follow s0");
        let stats = cluster.server_stats(id).expect("stats");
        assert_eq!(
            stats.views_installed, 0,
            "s{i} must not have installed any view"
        );
    }
    let target_tip = cluster
        .committed_chain(ServerId(0))
        .and_then(|chain| chain.last().map(|(tip, _)| *tip))
        .expect("leader has a chain");
    let all: Vec<ServerId> = (0..n).map(ServerId).collect();
    assert!(
        cluster.wait_until(Duration::from_secs(30), |c| {
            all.iter().all(|&id| {
                c.committed_chain(id)
                    .and_then(|chain| chain.last().map(|(tip, _)| *tip))
                    .is_some_and(|tip| tip >= target_tip)
            })
        }),
        "every server must catch up past sequence {target_tip} via sync"
    );
    let prefix = cluster
        .verify_no_fork(&all)
        .expect("identical logs after sync-only recovery");
    assert!(prefix >= target_tip);
    cluster.shutdown();
}

//! Integration test for the real networking runtime (acceptance criterion of
//! the `prestige-net` tentpole): a 4-node PrestigeBFT cluster running on real
//! node runtimes over the loopback transport
//!
//! 1. commits ≥ 1000 transactions end-to-end, then
//! 2. survives a leader kill through the active view-change protocol and
//!    keeps committing under the new leader.
//!
//! Wall-clock budget: the commit phase takes a few hundred milliseconds on
//! loopback; the view change is dominated by the (shortened) client/follower
//! timeouts and completes within a few seconds.

use prestige_net::cluster::LocalCluster;
use prestige_types::{ClusterConfig, ServerId, TimeoutConfig, View};
use std::time::Duration;

fn fast_config(n: u32) -> ClusterConfig {
    // The paper's fast profile: timeouts in [300, 600] ms, 400 ms client
    // patience — keeps the post-kill view change quick without making correct
    // nodes trigger-happy on a loopback network with microsecond RTTs.
    ClusterConfig::new(n)
        .with_batch_size(100)
        .with_timeouts(TimeoutConfig::fast())
}

#[test]
fn four_node_cluster_commits_1000_tx_and_survives_leader_kill() {
    let mut cluster = LocalCluster::launch(fast_config(4), 42, 2, 100);

    // Phase 1: throughput. Two closed-loop clients with 100 proposals in
    // flight each must push ≥ 1000 commits quickly.
    let reached = cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 1000);
    let committed_before = cluster.total_committed();
    assert!(
        reached,
        "cluster must commit >= 1000 transactions on the real runtime, got {committed_before}"
    );

    // The always-on profiler must be attributing the loop's busy time.
    let profile = cluster.loop_profile();
    assert!(profile.busy_nanos() > 0, "profiler saw no busy time");
    assert!(
        profile.coverage() >= 0.90,
        "stage coverage too low: {:.3}",
        profile.coverage()
    );

    // The whole cluster should agree on the view and its leader.
    let (view_before, leader_before) = cluster.view_of(ServerId(1)).expect("server 1 answers");
    assert!(view_before >= View::INITIAL);

    // Phase 2: kill the leader abruptly (runtime stopped, endpoint
    // deregistered — indistinguishable from a killed process).
    cluster.crash_server(leader_before);
    assert_eq!(cluster.live_servers().len(), 3);

    // The active view change must elect a new leader among the survivors.
    let survived = cluster.wait_until(Duration::from_secs(60), |c| {
        c.live_servers().iter().all(|&id| {
            c.view_of(id)
                .map(|(view, leader)| view > view_before && leader != leader_before)
                .unwrap_or(false)
        })
    });
    let views: Vec<_> = cluster
        .live_servers()
        .iter()
        .map(|&id| (id, cluster.view_of(id)))
        .collect();
    assert!(
        survived,
        "surviving servers must enter a higher view under a new leader; states: {views:?}"
    );

    // Phase 3: the cluster keeps committing client transactions under the
    // new leader.
    let resumed = cluster.wait_until(Duration::from_secs(60), |c| {
        c.total_committed() >= committed_before + 200
    });
    let committed_after = cluster.total_committed();
    assert!(
        resumed,
        "commits must resume after the view change: {committed_before} -> {committed_after}"
    );

    // Sanity on the survivors' server-side stats: someone won an election.
    let elections: u64 = cluster
        .live_servers()
        .iter()
        .filter_map(|&id| cluster.server_stats(id))
        .map(|s| s.elections_won)
        .sum();
    assert!(elections >= 1, "a survivor must have won the election");

    // Fork-freedom across survivors: identical digests at every shared
    // height, hence identical commit order.
    let survivors = cluster.live_servers();
    let common = cluster
        .verify_no_fork(&survivors)
        .expect("survivors' logs must agree");
    assert!(common > 0, "survivors must share a committed prefix");

    let final_stats = cluster.shutdown();
    let total: u64 = final_stats.values().map(|s| s.committed_tx).sum();
    assert!(total >= committed_before + 200);
}

#[test]
fn deeply_pipelined_cluster_commits_and_survives_leader_kill() {
    // A deep replication window must reach the same milestones as the
    // default one — commits flow, the leader kill is survived through the
    // active view change, and commits resume.
    let config = fast_config(4).with_pipeline_depth(8);
    let mut cluster = LocalCluster::launch(config, 42, 2, 100);

    let reached = cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 1000);
    let committed_before = cluster.total_committed();
    assert!(
        reached,
        "pipelined cluster must commit >= 1000 transactions, got {committed_before}"
    );

    let (view_before, leader_before) = cluster.view_of(ServerId(1)).expect("server 1 answers");
    cluster.crash_server(leader_before);
    let survived = cluster.wait_until(Duration::from_secs(60), |c| {
        c.live_servers().iter().all(|&id| {
            c.view_of(id)
                .map(|(view, leader)| view > view_before && leader != leader_before)
                .unwrap_or(false)
        })
    });
    assert!(
        survived,
        "pipelined cluster must elect a new leader after the kill"
    );
    let resumed = cluster.wait_until(Duration::from_secs(60), |c| {
        c.total_committed() >= committed_before + 200
    });
    assert!(
        resumed,
        "commits must resume with pipelining enabled: stuck at {}",
        cluster.total_committed()
    );
    cluster.shutdown();
}

#[test]
fn cluster_reports_consistent_progress_across_servers() {
    // Smaller smoke check: all four servers observe committed transactions,
    // not just the leader, and client latency statistics are populated.
    let cluster = LocalCluster::launch(fast_config(4), 7, 1, 64);
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 300),
        "cluster must commit transactions"
    );
    for id in cluster.live_servers() {
        let stats = cluster.server_stats(id).expect("server answers");
        assert!(
            stats.committed_tx > 0,
            "server {id} must observe commits, stats: {stats:?}"
        );
        assert_eq!(
            stats.verify_rejected, 0,
            "an honest cluster produces nothing to reject"
        );
    }
    let client_stats = cluster.client_stats(prestige_types::ClientId(0)).unwrap();
    assert!(client_stats.committed_tx >= 300);
    assert!(client_stats.mean_latency_ms() > 0.0);
    cluster.shutdown();
}

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

mod common;

use common::survives_leader_kill;
use prestige_net::cluster::LocalCluster;
use prestige_types::{ClusterConfig, TimeoutConfig};
use std::time::Duration;

fn fast_config(n: u32) -> ClusterConfig {
    // The paper's fast profile: timeouts in [300, 600] ms, 400 ms client
    // patience (the launcher hands every client the cluster's) — keeps the post-kill view change quick without making correct
    // nodes trigger-happy on a loopback network with microsecond RTTs.
    ClusterConfig::new(n)
        .with_batch_size(100)
        .with_timeouts(TimeoutConfig::fast())
}

#[test]
fn four_node_cluster_commits_1000_tx_and_survives_leader_kill() {
    // Two closed-loop clients with 100 proposals in flight each must push
    // ≥ 1000 commits quickly.
    survives_leader_kill(LocalCluster::launch(fast_config(4), 42, 2, 100), 1000);
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
    assert!(client_stats.latency_hist.mean_ms() > 0.0);
    cluster.shutdown();
}

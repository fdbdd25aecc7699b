//! In-process TCP cluster tests: a deeply pipelined cluster and the socket
//! reactor compose end-to-end, and commit *order* is identical across
//! replicas even when a leader dies mid-run.
//!
//! The ordering proof is the digest chain: every committed block's digest
//! chains over its predecessor, so replicas whose `(seq, digest)` logs agree
//! at every shared height (`verify_no_fork`) committed the same blocks in the
//! same order. A reorder anywhere would change every digest after it.

use prestige_net::cluster::{LocalCluster, TcpCluster};
use prestige_types::{ClusterConfig, ServerId, TimeoutConfig};
use std::time::Duration;

fn pipelined_config(n: u32) -> ClusterConfig {
    // The paper's fast timeout profile plus a deep replication window, so
    // many instances are in flight at once.
    ClusterConfig::new(n)
        .with_batch_size(100)
        .with_timeouts(TimeoutConfig::fast())
        .with_pipeline_depth(8)
}

/// A committed chain snapshot must be strictly ordered by sequence number —
/// the direct "no commit reorder" check on one replica's log.
fn assert_strictly_ordered(id: ServerId, chain: &[(u64, prestige_types::Digest)]) {
    for pair in chain.windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "server {id:?} committed out of order: seq {} then {}",
            pair[0].0,
            pair[1].0
        );
    }
}

#[test]
fn tcp_cluster_survives_leader_kill_without_reorder() {
    let mut cluster =
        TcpCluster::launch(pipelined_config(4), 42, 2, 64).expect("bind TCP cluster on loopback");

    // Phase 1: commits must flow over real sockets.
    let reached = cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 600);
    let committed_before = cluster.total_committed();
    assert!(
        reached,
        "TCP cluster must commit >= 600 transactions, got {committed_before}"
    );

    // The event-driven writer must actually be on the path: vectored writes
    // happened, and both flush modes (idle single-frame and coalesced
    // multi-frame) were exercised under consensus traffic.
    let totals = cluster.transport_totals();
    assert!(
        totals.writev_calls > 0,
        "no vectored writes recorded: {totals:?}"
    );
    assert!(
        totals.flushes_idle + totals.flushes_full > 0,
        "no writer flushes recorded: {totals:?}"
    );

    // The always-on profiler must be attributing the loop's busy time.
    let profile = cluster.loop_profile();
    assert!(profile.busy_nanos() > 0, "profiler saw no busy time");
    assert!(
        profile.coverage() >= 0.90,
        "stage coverage too low: {:.3}",
        profile.coverage()
    );

    // Phase 2: kill the leader. Peers see broken streams + a dead listener.
    let (view_before, leader_before) = cluster.view_of(ServerId(1)).expect("server 1 answers");
    cluster.crash_server(leader_before);
    assert_eq!(cluster.live_servers().len(), 3);

    let survived = cluster.wait_until(Duration::from_secs(60), |c| {
        c.live_servers().iter().all(|&id| {
            c.view_of(id)
                .map(|(view, leader)| view > view_before && leader != leader_before)
                .unwrap_or(false)
        })
    });
    assert!(
        survived,
        "survivors must elect a new leader over TCP after the kill"
    );

    // Phase 3: commits resume, and the survivors' logs agree with no fork —
    // i.e. the deep window plus the kill reordered nothing.
    let resumed = cluster.wait_until(Duration::from_secs(60), |c| {
        c.total_committed() >= committed_before + 200
    });
    assert!(
        resumed,
        "commits must resume after the view change: stuck at {}",
        cluster.total_committed()
    );

    let survivors = cluster.live_servers();
    for &id in &survivors {
        let chain = cluster.committed_chain(id).expect("chain snapshot");
        assert_strictly_ordered(id, &chain);
    }
    let common = cluster
        .verify_no_fork(&survivors)
        .expect("no fork across survivors");
    assert!(
        common > 0,
        "survivors must share a non-empty committed prefix"
    );

    cluster.shutdown();
}

#[test]
fn tcp_and_loopback_clusters_agree_on_commit_safety() {
    // The same configuration on both transports: the runtime must behave
    // identically whether frames cross a serialized TCP socket or an
    // in-process channel. Each cluster must reach
    // the commit milestone and keep fork-free, strictly ordered logs.
    let target = 300u64;

    let tcp =
        TcpCluster::launch(pipelined_config(4), 7, 1, 64).expect("bind TCP cluster on loopback");
    assert!(
        tcp.wait_until(Duration::from_secs(60), |c| c.total_committed() >= target),
        "TCP cluster stuck at {}",
        tcp.total_committed()
    );
    let tcp_servers = tcp.live_servers();
    for &id in &tcp_servers {
        assert_strictly_ordered(id, &tcp.committed_chain(id).expect("chain"));
    }
    let tcp_common = tcp.verify_no_fork(&tcp_servers).expect("no fork over TCP");
    assert!(tcp_common > 0);
    tcp.shutdown();

    let loopback = LocalCluster::launch(pipelined_config(4), 7, 1, 64);
    assert!(
        loopback.wait_until(Duration::from_secs(60), |c| c.total_committed() >= target),
        "loopback cluster stuck at {}",
        loopback.total_committed()
    );
    let lb_servers = loopback.live_servers();
    for &id in &lb_servers {
        assert_strictly_ordered(id, &loopback.committed_chain(id).expect("chain"));
    }
    let lb_common = loopback
        .verify_no_fork(&lb_servers)
        .expect("no fork over loopback");
    assert!(lb_common > 0);

    // Loopback never touches the writer loop; its writer counters stay zero
    // while delivery counters are live. (The TCP counters were asserted
    // non-zero in the leader-kill test.)
    let lb_totals = loopback.transport_totals();
    assert!(lb_totals.sent > 0 && lb_totals.received > 0);
    assert_eq!(lb_totals.writev_calls, 0);
    loopback.shutdown();
}

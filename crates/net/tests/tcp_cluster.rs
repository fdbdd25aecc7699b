//! In-process TCP cluster tests: a deeply pipelined cluster and the socket
//! reactor compose end-to-end, and commit *order* is identical across
//! replicas even when a leader dies mid-run.
//!
//! The ordering proof is the digest chain: every committed block's digest
//! chains over its predecessor, so replicas whose `(seq, digest)` logs agree
//! at every shared height (`verify_no_fork`) committed the same blocks in the
//! same order. A reorder anywhere would change every digest after it.

mod common;

use common::{assert_strictly_ordered, survives_leader_kill};
use prestige_net::cluster::{LocalCluster, TcpCluster};
use prestige_types::{ClusterConfig, TimeoutConfig};
use std::time::Duration;

fn pipelined_config(n: u32) -> ClusterConfig {
    // The paper's fast timeout profile over the pipelined replication
    // window, so several instances are in flight at once.
    ClusterConfig::new(n)
        .with_batch_size(100)
        .with_timeouts(TimeoutConfig::fast())
}

#[test]
fn tcp_cluster_survives_leader_kill_without_reorder() {
    let cluster =
        TcpCluster::launch(pipelined_config(4), 42, 2, 64).expect("bind TCP cluster on loopback");
    let totals = survives_leader_kill(cluster, 600);

    // The event-driven writer must actually be on the path: vectored writes
    // happened, and both flush modes (idle single-frame and coalesced
    // multi-frame) were exercised under consensus traffic.
    assert!(
        totals.writev_calls > 0,
        "no vectored writes recorded: {totals:?}"
    );
    assert!(
        totals.flushes_idle + totals.flushes_full > 0,
        "no writer flushes recorded: {totals:?}"
    );
    // Shown by `--nocapture`: how many socket syscalls each frame cost.
    eprintln!(
        "tcp leader-kill run: {:.3} syscalls per delivered frame ({} frames)",
        totals.syscalls_per_frame(),
        totals.received
    );
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

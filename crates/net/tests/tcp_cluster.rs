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
use prestige_net::TransportTotals;
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

/// Pins the calling thread, and every thread it starts from now on, to the
/// CPU it is running on.
fn pin_to_this_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).expect("sched_getcpu");
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`,
        // which outlives the call; pid 0 is the calling thread.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        assert_eq!(set, 0, "sched_setaffinity");
    }
}

#[test]
fn steady_tcp_frames_cost_under_three_syscalls_each() {
    // The benchmark's `tcp_small` shape: four servers, batch 16, a closed
    // loop of 16, so about one block is in flight and every hop is a frame.
    // Like the benchmark, the whole cluster shares one CPU, so a count does
    // not depend on how many CPUs the host has.
    pin_to_this_cpu();
    let config = ClusterConfig::new(4).with_batch_size(16);
    let cluster = TcpCluster::launch(config, 5, 1, 16).expect("bind TCP cluster on loopback");
    // Past the connects and the first blocks.
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 2_000),
        "TCP cluster stuck at {}",
        cluster.total_committed()
    );
    let (before, start) = (cluster.transport_totals(), cluster.total_committed());
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| {
            c.total_committed() >= start + 20_000
        }),
        "TCP cluster stuck at {}",
        cluster.total_committed()
    );
    let after = cluster.transport_totals();
    cluster.shutdown();

    // A write and a read per frame, and a wait only when nothing has
    // arrived: never a poll just to learn that.
    let steady = TransportTotals {
        received: after.received - before.received,
        writev_calls: after.writev_calls - before.writev_calls,
        read_calls: after.read_calls - before.read_calls,
        poll_calls: after.poll_calls - before.poll_calls,
        ..TransportTotals::default()
    };
    let per_frame = |calls: u64| calls as f64 / steady.received as f64;
    eprintln!(
        "steady tcp: {:.2} syscalls per frame (write {:.2}, read {:.2}, ppoll {:.2}) over {} frames",
        steady.syscalls_per_frame(),
        per_frame(steady.writev_calls),
        per_frame(steady.read_calls),
        per_frame(steady.poll_calls),
        steady.received
    );
    assert!(
        steady.syscalls_per_frame() < 3.0,
        "{:.2} syscalls per frame: {steady:?}",
        steady.syscalls_per_frame()
    );
}

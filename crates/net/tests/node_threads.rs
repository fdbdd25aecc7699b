//! A live node is exactly one thread, on both fabrics: a 4-server + 1-client
//! cluster adds five threads to the process and leaves none behind. This is
//! the only test in its binary so that the process's thread count is the
//! test's own.
#![cfg(target_os = "linux")]

use prestige_net::cluster::{LocalCluster, TcpCluster};
use prestige_types::ClusterConfig;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Waits for the thread count to settle at `want` (TCP connector threads and
/// just-joined node threads take a moment to leave `/proc`).
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    while threads() != want {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn a_cluster_is_one_thread_per_node_on_both_fabrics() {
    let before = threads();
    let config = || ClusterConfig::new(4).with_batch_size(16);

    let local = LocalCluster::launch(config(), 7, 1, 16);
    assert!(
        local.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 200),
        "loopback cluster must be live"
    );
    assert_eq!(threads(), before + 5, "loopback: one thread per node");
    local.shutdown();
    assert!(settles_at(before), "loopback nodes left threads behind");

    let tcp = TcpCluster::launch(config(), 7, 1, 16).expect("bind TCP cluster on loopback");
    assert!(
        tcp.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 200),
        "TCP cluster must be live"
    );
    // Every link carries traffic by now, so no connect is still in flight.
    assert!(
        settles_at(before + 5),
        "TCP: {} threads for 5 nodes",
        threads() - before
    );
    tcp.shutdown();
    assert!(settles_at(before), "TCP nodes left threads behind");
}

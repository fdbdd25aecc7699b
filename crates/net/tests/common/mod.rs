//! The leader-kill body shared by the loopback and TCP cluster tests: one
//! set of assertions, run on both fabrics.

use prestige_net::{Cluster, Fabric, TransportTotals};
use prestige_types::{ClientId, Digest, ServerId, TimeoutConfig, View};
use std::time::{Duration, Instant};

/// A committed chain snapshot must be strictly ordered by sequence number —
/// the direct "no commit reorder" check on one replica's log.
pub fn assert_strictly_ordered(id: ServerId, chain: &[(u64, Digest)]) {
    for pair in chain.windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "server {id:?} committed out of order: seq {} then {}",
            pair[0].0,
            pair[1].0
        );
    }
}

/// Complaints sent so far by every client of `cluster`.
fn complaints_sent<F: Fabric>(cluster: &Cluster<F>) -> u64 {
    (0..)
        .map_while(|c| cluster.client_stats(ClientId(c)))
        .map(|s| s.complaints_sent)
        .sum()
}

/// Commits `milestone` transactions, kills the leader, and requires the
/// clients to complain within two patiences of the kill, and the survivors
/// to elect a new one through the active view change, resume committing,
/// and hold fork-free, strictly ordered logs. The cluster runs the `fast`
/// timeouts. Returns the cluster-wide transport counters read just before
/// shutdown.
pub fn survives_leader_kill<F: Fabric>(mut cluster: Cluster<F>, milestone: u64) -> TransportTotals {
    // Phase 1: throughput.
    let reached = cluster.wait_until(Duration::from_secs(60), |c| {
        c.total_committed() >= milestone
    });
    let committed_before = cluster.total_committed();
    assert!(
        reached,
        "cluster must commit >= {milestone} transactions on the real runtime, got {committed_before}"
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

    // Phase 2: kill the leader abruptly (runtime stopped; endpoint
    // deregistered on loopback, listener closed and streams broken over TCP
    // — indistinguishable from a killed process).
    let complaints_before = complaints_sent(&cluster);
    let killed_at = Instant::now();
    cluster.crash_server(leader_before);
    assert_eq!(cluster.live_servers().len(), 3);

    // The client times each request from when it was sent, with the
    // cluster's patience: a request the dead leader stalls is complained
    // about one patience after it went out. Two patiences leave room for a
    // loaded host; a client that swept on a fixed one-second timer would
    // need at least a second.
    let patience = Duration::from_secs_f64(TimeoutConfig::fast().client_timeout_ms / 1000.0);
    let complained = cluster.wait_until(2 * patience, |c| complaints_sent(c) > complaints_before);
    assert!(
        complained,
        "no complaint within {:?} of the leader kill (patience {patience:?})",
        killed_at.elapsed()
    );

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

    // Fork-freedom across survivors: strictly ordered logs with identical
    // digests at every shared height, hence identical commit order — the
    // replication window plus the kill reordered nothing.
    let survivors = cluster.live_servers();
    for &id in &survivors {
        let chain = cluster.committed_chain(id).expect("chain snapshot");
        assert_strictly_ordered(id, &chain);
    }
    let common = cluster
        .verify_no_fork(&survivors)
        .expect("survivors' logs must agree");
    assert!(common > 0, "survivors must share a committed prefix");

    let totals = cluster.transport_totals();
    let final_stats = cluster.shutdown();
    let total: u64 = final_stats.values().map(|s| s.committed_tx).sum();
    assert!(total >= committed_before + 200);
    totals
}

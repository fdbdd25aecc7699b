//! Crash-restart integration tests on the *real* runtime: a durable server
//! that dies mid-run comes back from its on-disk WAL, rejoins the live
//! cluster through the sync plane, and converges on the same committed chain
//! as the survivors — while certified checkpoints keep garbage-collecting
//! state underneath it all.

use prestige_net::cluster::{LocalCluster, StoragePlan, TcpCluster};
use prestige_net::{Cluster, Fabric};
use prestige_types::{ClusterConfig, ServerId};
use std::path::PathBuf;
use std::time::Duration;

/// A per-test scratch directory under the OS temp dir, wiped on entry (a
/// rerun must never replay a stale log) and on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("prestige-restart-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Scratch(root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tip_of<F: Fabric>(cluster: &Cluster<F>, id: ServerId) -> u64 {
    cluster
        .committed_chain(id)
        .and_then(|chain| chain.last().map(|(n, _)| *n))
        .unwrap_or(0)
}

/// Small batches so the survivors rack up *blocks* quickly (the hole is
/// measured in missing blocks, not transactions), and a short checkpoint
/// interval so stable checkpoints + GC form within the run.
fn follower_restart_config() -> ClusterConfig {
    ClusterConfig::new(4)
        .with_batch_size(10)
        .with_checkpoint_interval(8)
}

#[test]
fn killed_follower_restarts_from_wal_and_rejoins() {
    let scratch = Scratch::new("follower");
    let plan = StoragePlan::new(scratch.0.clone());
    let cluster = LocalCluster::launch_durable(follower_restart_config(), 11, 2, 256, plan);
    killed_follower_restarts_and_rejoins(cluster);
}

#[test]
fn killed_follower_restarts_on_its_tcp_port_and_rejoins() {
    // The same body over sockets: the restarted node re-binds the address
    // its peers still hold, and their reconnect backoff finds it again.
    let scratch = Scratch::new("follower-tcp");
    let plan = StoragePlan::new(scratch.0.clone());
    let cluster =
        TcpCluster::launch_full(follower_restart_config(), 11, 2, 256, &[], None, Some(plan))
            .expect("bind TCP cluster on loopback");
    killed_follower_restarts_and_rejoins(cluster);
}

/// Kills follower s3, lets the survivors run 350+ blocks ahead, restarts it
/// from its WAL, and requires it to catch up across the hole, with an
/// identical log, and to adopt a stable checkpoint.
fn killed_follower_restarts_and_rejoins<F: Fabric>(mut cluster: Cluster<F>) {
    let follower = ServerId(3);

    // Phase 1: healthy durable commits.
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 500),
        "durable cluster must commit, got {}",
        cluster.total_committed()
    );
    let pre_crash_tip = tip_of(&cluster, follower);
    assert!(pre_crash_tip > 0, "follower must have applied blocks");
    let before_crash = cluster.total_committed();

    // Phase 2: kill the follower; the remaining three (= 2f + 1) keep
    // committing far enough that the dead node's hole exceeds one sync
    // response (256 blocks) — at batch 10 that is 350+ blocks of traffic —
    // so its peers must also send it their stable checkpoint certificate.
    cluster.crash_server(follower);
    assert!(
        cluster.wait_until(Duration::from_secs(240), |c| c.total_committed()
            >= before_crash + 3500),
        "survivors must keep committing without the follower, got +{}",
        cluster.total_committed() - before_crash
    );
    let survivor_tip = tip_of(&cluster, ServerId(0));

    // Phase 3: restart from disk. The WAL replay happens synchronously
    // inside `restart_server`, so the chain tip visible immediately after
    // proves the node recovered its history from storage, not from peers
    // (sync needs at least one repair interval to move anything).
    cluster
        .restart_server(follower)
        .expect("restart from the WAL at the recorded address");
    let replayed_tip = tip_of(&cluster, follower);
    assert!(
        replayed_tip >= pre_crash_tip,
        "restart must replay the WAL: tip {replayed_tip} after restart, \
         {pre_crash_tip} before the crash"
    );

    // Phase 4: the restarted node pages itself forward to the survivors.
    assert!(
        cluster.wait_until(Duration::from_secs(240), |c| tip_of(c, follower)
            >= survivor_tip),
        "restarted follower must catch up: tip {} vs survivor tip {survivor_tip}",
        tip_of(&cluster, follower)
    );
    assert!(
        cluster.total_committed() >= 1000,
        "run must cover at least 1000 transactions, got {}",
        cluster.total_committed()
    );

    // Identical logs across all four servers (the no-fork safety check
    // compares digests at every common height).
    let all = [ServerId(0), ServerId(1), ServerId(2), follower];
    let common = cluster
        .verify_no_fork(&all)
        .expect("restarted cluster must not fork");
    assert!(common >= survivor_tip, "common prefix covers the crash era");

    // Checkpoint plane: stable checkpoints formed on the survivors, and
    // their client tables retired the request numbers that committed.
    let stable = cluster.stable_checkpoint_of(ServerId(0)).unwrap_or(0);
    assert!(stable > 0, "survivors must form stable checkpoints");
    let survivor = cluster.server_stats(ServerId(0)).unwrap();
    assert!(
        survivor.checkpoints_formed > 0,
        "survivor must install checkpoints"
    );
    assert!(
        survivor.gc_pruned_keys > 0,
        "committed request numbers must retire from the client table"
    );
    // The restarted node runs a live WAL again and adopts a stable
    // checkpoint (served inside a sync answer or a live cert).
    let storage = cluster.storage_stats(follower).expect("follower WAL stats");
    assert!(storage.records > 0, "restarted node must append to its WAL");
    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c
            .stable_checkpoint_of(follower)
            .unwrap_or(0)
            > 0),
        "restarted follower must adopt a stable checkpoint"
    );
    cluster.shutdown();
}

#[test]
fn torn_wal_tail_is_truncated_and_the_node_still_rejoins() {
    let scratch = Scratch::new("torn");
    let follower = ServerId(2);
    let config = ClusterConfig::new(4)
        .with_batch_size(25)
        .with_checkpoint_interval(16);
    let mut cluster =
        LocalCluster::launch_durable(config, 29, 2, 128, StoragePlan::new(scratch.0.clone()));

    assert!(
        cluster.wait_until(Duration::from_secs(60), |c| c.total_committed() >= 400),
        "durable cluster must commit, got {}",
        cluster.total_committed()
    );

    // Power-cut signature: kill the node, then cut its newest segment in
    // the middle of the final record's frame. Reopening must truncate the
    // tear instead of refusing the log wholesale.
    cluster.crash_server(follower);
    let torn = cluster.tear_wal_tail(follower, 1).expect("tail tear");
    assert_eq!(torn, 1, "the WAL must have had a record to tear");

    let before = cluster.total_committed();
    assert!(
        cluster.wait_until(Duration::from_secs(120), |c| c.total_committed()
            >= before + 300),
        "survivors must keep committing"
    );
    let survivor_tip = tip_of(&cluster, ServerId(0));

    cluster
        .restart_server(follower)
        .expect("restart from the torn WAL");
    assert!(
        cluster.wait_until(Duration::from_secs(240), |c| tip_of(c, follower)
            >= survivor_tip),
        "node with a torn tail must still rejoin: tip {} vs {survivor_tip}",
        tip_of(&cluster, follower)
    );
    let all = [ServerId(0), ServerId(1), follower, ServerId(3)];
    cluster
        .verify_no_fork(&all)
        .expect("torn-tail restart must not fork");

    cluster.shutdown();
}

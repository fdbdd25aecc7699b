//! A PrestigeBFT cluster on the *real* networking runtime (loopback
//! transport): four servers and a closed-loop client running on actual OS
//! threads with wall-clock timers — the same protocol code the simulator
//! drives, now living on the `prestige-net` runtime.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example real_cluster
//! ```
//!
//! For a multi-process TCP deployment of the same cluster, see the
//! `prestige-node` binary (`crates/net/src/bin/prestige_node.rs`) and the
//! TOML schema in `prestige_net::config`.

use prestigebft::net::cluster::LocalCluster;
use prestigebft::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    // Fast-profile timers: the paper's [300, 600] ms election range, 400 ms
    // client patience — sensible for a LAN-like loopback network.
    let config = ClusterConfig::new(4)
        .with_batch_size(100)
        .with_timeouts(TimeoutConfig::fast());

    println!("launching 4 servers + 1 client on the loopback runtime...");
    let mut cluster = LocalCluster::launch(config, 7, 1, 100);
    let start = Instant::now();

    // Phase 1: let the cluster commit under the initial leader.
    cluster.wait_until(Duration::from_secs(30), |c| c.total_committed() >= 2000);
    let before = cluster.total_committed();
    let (view, leader) = cluster.view_of(ServerId(1)).expect("server online");
    println!(
        "t={:5.2}s  committed={before:6}  view={view}  leader={leader}",
        start.elapsed().as_secs_f64()
    );

    // Phase 2: kill the leader. The active view change (client complaints →
    // ConfVC → campaigns with reputation-priced PoW → election) takes over.
    println!("killing leader {leader}...");
    cluster.crash_server(leader);
    cluster.wait_until(Duration::from_secs(30), |c| {
        c.live_servers().iter().all(|&id| {
            c.view_of(id)
                .map(|(v, l)| v > view && l != leader)
                .unwrap_or(false)
        })
    });
    let (new_view, new_leader) = cluster
        .view_of(cluster.live_servers()[0])
        .expect("survivor online");
    println!(
        "t={:5.2}s  view change complete: view={new_view}  leader={new_leader}",
        start.elapsed().as_secs_f64()
    );

    // Phase 3: commits resume under the new leader.
    cluster.wait_until(Duration::from_secs(30), |c| {
        c.total_committed() >= before + 1000
    });
    let stats = cluster.client_stats(ClientId(0)).expect("client online");
    println!(
        "t={:5.2}s  committed={}  (+{} after the view change)",
        start.elapsed().as_secs_f64(),
        stats.committed_tx,
        stats.committed_tx - before
    );

    let mut table = Table::new("real_cluster summary", &["metric", "value"]);
    table.push_row(vec!["committed tx".into(), stats.committed_tx.to_string()]);
    table.push_row(vec![
        "throughput (tx/s)".into(),
        format!(
            "{:.0}",
            stats.committed_tx as f64 / start.elapsed().as_secs_f64()
        ),
    ]);
    table.push_row(vec![
        "mean latency (ms)".into(),
        format!("{:.2}", stats.latency_hist.mean_ms()),
    ]);
    table.push_row(vec![
        "p99 latency (ms)".into(),
        format!("{:.2}", stats.latency_hist.percentile_ms(99.0)),
    ]);
    table.push_row(vec![
        "complaints sent".into(),
        stats.complaints_sent.to_string(),
    ]);
    println!("{}", table.to_text());

    cluster.shutdown();
}

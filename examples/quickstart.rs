//! Quickstart: a 4-server PrestigeBFT cluster committing client transactions.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! The example builds the smallest interesting cluster (n = 4, f = 1), drives
//! it with two closed-loop clients for five simulated seconds, and prints the
//! throughput, latency, and per-server state — the "hello world" of the
//! library's public API.

use prestigebft::prelude::*;

fn main() {
    // Four servers, β = 100, two clients keeping 100 requests in flight each,
    // the paper's timers, and its cloud LAN: ~400 MB/s, < 2 ms.
    let scenario = Scenario {
        seed: 2024,
        batch_size: 100,
        concurrency: 100,
        timeouts: TimeoutConfig::default(),
        network: Link::LAN,
        ..Scenario::default()
    };
    let n = scenario.servers;
    let mut cluster = SimCluster::new(&scenario);
    let sim = &mut cluster.sim;

    let horizon = 5.0;
    sim.run_until(SimTime::from_secs(horizon));

    println!("== PrestigeBFT quickstart (n = {n}, {horizon} simulated seconds) ==\n");
    for i in 0..n {
        let server: &PrestigeServer = sim.node_as(Actor::Server(ServerId(i))).unwrap();
        println!(
            "{}: role = {:?}, view = {}, committed blocks = {}, committed tx = {}, rp = {}",
            ServerId(i),
            server.role(),
            server.current_view(),
            server.stats().committed_blocks,
            server.stats().committed_tx,
            server.current_rp(),
        );
    }
    let reference: &PrestigeServer = sim.node_as(Actor::Server(ServerId(1))).unwrap();
    let tps = reference.stats().committed_tx as f64 / horizon;
    println!("\ncluster throughput ≈ {tps:.0} TPS");

    for c in 0..2u64 {
        let client: &PrestigeClient = sim.node_as(Actor::Client(ClientId(c))).unwrap();
        println!(
            "{}: confirmed {} tx, mean latency {:.2} ms (p99 {:.2} ms)",
            ClientId(c),
            client.stats().committed_tx,
            client.stats().latency_hist.mean_ms(),
            client.stats().latency_hist.percentile_ms(99.0),
        );
    }
    println!(
        "\nnetwork: {} messages delivered, {:.1} MB total",
        sim.stats().delivered_total(),
        sim.stats().bytes_total() as f64 / 1.0e6
    );
}

//! `prestige-node` — run one PrestigeBFT node (server or client) over TCP.
//!
//! One TOML file describes the whole cluster; each process picks its identity
//! with `--as`:
//!
//! ```text
//! prestige-node --config cluster.toml --as s0 &
//! prestige-node --config cluster.toml --as s1 &
//! prestige-node --config cluster.toml --as s2 &
//! prestige-node --config cluster.toml --as s3 &
//! prestige-node --config cluster.toml --as c0        # client, reports stats
//! ```
//!
//! Servers run until killed (or `workload.duration_s`). Clients run the
//! closed-loop workload for `workload.duration_s` seconds (default 30), then
//! print a throughput/latency report and exit.

use prestige_core::{PrestigeClient, PrestigeServer};
use prestige_crypto::KeyRegistry;
use prestige_metrics::Table;
use prestige_net::{launch_tcp_client, launch_tcp_server, NodeConfig, NodeRole};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(()) => {}
        Err(message) => {
            eprintln!("prestige-node: {message}");
            eprintln!(
                "usage: prestige-node --config <cluster.toml> [--as <sN|cN>] [--duration <secs>]"
            );
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut config_path: Option<&str> = None;
    let mut role_override: Option<&str> = None;
    let mut duration_override: Option<f64> = None;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                config_path = Some(args.get(i + 1).ok_or("--config needs a path")?);
                i += 2;
            }
            "--as" => {
                role_override = Some(args.get(i + 1).ok_or("--as needs a node name")?);
                i += 2;
            }
            "--duration" => {
                let raw = args.get(i + 1).ok_or("--duration needs seconds")?;
                duration_override = Some(raw.parse().map_err(|_| format!("bad duration `{raw}`"))?);
                i += 2;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let path = config_path.ok_or("missing --config")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut config =
        NodeConfig::from_toml(&text, role_override).map_err(|e| format!("parsing {path}: {e}"))?;
    if duration_override.is_some() {
        config.duration_s = duration_override;
    }

    let registry = KeyRegistry::new(config.seed, config.cluster.n(), config.clients);
    println!(
        "prestige-node: starting {:?} on {} ({} peers, n={}, seed={})",
        config.role,
        config.listen,
        config.peers.len(),
        config.cluster.n(),
        config.seed
    );

    match config.role {
        NodeRole::Server(id) => {
            let behavior = config.behavior();
            if behavior.is_faulty() {
                eprintln!(
                    "prestige-node: server {id:?} runs ADVERSARIALLY as {behavior:?} \
                     (from the [faults] section)"
                );
            }
            if let Some(plan) = &config.storage {
                println!(
                    "prestige-node: durable WAL at {}",
                    plan.server_dir(id).display()
                );
            }
            let handle = launch_tcp_server(
                id,
                config.cluster.clone(),
                registry,
                config.seed,
                config.listen,
                config.peers.clone(),
                behavior,
                config.storage.clone(),
            )
            .map_err(|e| format!("binding {}: {e}", config.listen))?;

            match config.duration_s {
                Some(secs) => std::thread::sleep(Duration::from_secs_f64(secs)),
                None => loop {
                    std::thread::sleep(Duration::from_secs(3600));
                },
            }
            if let Some(stats) = handle.inspect_as::<PrestigeServer, _, _>(|s| s.stats().clone()) {
                println!(
                    "server {id:?}: committed_tx={} elections_won={}",
                    stats.committed_tx, stats.elections_won
                );
            }
            let _ = handle.stop();
        }
        NodeRole::Client(id) => {
            let handle = launch_tcp_client(
                id,
                config.cluster.clone(),
                &registry,
                config.seed,
                config.concurrency,
                config.listen,
                config.peers.clone(),
            )
            .map_err(|e| format!("binding {}: {e}", config.listen))?;

            let secs = config.duration_s.unwrap_or(30.0);
            std::thread::sleep(Duration::from_secs_f64(secs));
            let stats = handle
                .inspect_as::<PrestigeClient, _, _>(|c| c.stats().clone())
                .ok_or("client runtime did not answer")?;
            let _ = handle.stop();

            let mut table = Table::new(
                format!("prestige-node client {id:?} ({secs:.0} s run)"),
                &["metric", "value"],
            );
            table.push_row(vec!["committed tx".into(), stats.committed_tx.to_string()]);
            table.push_row(vec![
                "throughput (tx/s)".into(),
                format!("{:.1}", stats.committed_tx as f64 / secs),
            ]);
            table.push_row(vec![
                "mean latency (ms)".into(),
                format!("{:.2}", stats.latency_hist.mean_ms()),
            ]);
            table.push_row(vec![
                "p50 latency (ms)".into(),
                format!("{:.2}", stats.latency_hist.percentile_ms(50.0)),
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
        }
    }
    Ok(())
}

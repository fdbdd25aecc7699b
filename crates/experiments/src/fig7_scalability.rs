//! Figure 7 — throughput and latency at increasing system scales.
//!
//! Paper result to reproduce (shape): throughput decreases and latency
//! increases with `n` for both protocols; PrestigeBFT stays above HotStuff at
//! every scale; the netem-style `d = 10 ± 5 ms` delay inflates latency and its
//! variance.

use crate::runner::{base, batched, run as run_one};
use crate::Scale;
use prestige_metrics::Table;
use prestige_workloads::{Link, ProtocolChoice, Scenario};

/// The delay column's label for a row's network.
fn delay_label(network: &Link) -> &'static str {
    if *network == Link::LAN {
        "d0"
    } else {
        "d10"
    }
}

/// One row per protocol, `n`, payload size and network.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let (scales, duration_ms, pb_beta, hs_beta): (Vec<u32>, u64, usize, usize) = match scale {
        Scale::Quick => (vec![4, 16, 31], 3_000, 300, 100),
        Scale::Full => (vec![4, 16, 31, 61, 100], 10_000, 3000, 1000),
    };
    let mut rows = Vec::new();
    for (protocol, beta) in [
        (ProtocolChoice::Prestige, pb_beta),
        (ProtocolChoice::HotStuff, hs_beta),
    ] {
        for &n in &scales {
            for m in [32, 64] {
                for network in [Link::LAN, Link::NETEM_D10] {
                    let series = format!("{}_m{m}_{}", protocol.label(), delay_label(&network));
                    rows.push(Scenario {
                        name: format!("{series}_n{n}"),
                        protocol,
                        servers: n,
                        payload_size: m,
                        network,
                        duration_ms,
                        ..batched(beta, base())
                    });
                }
            }
        }
    }
    rows
}

/// Runs the scalability sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 7 — scalability (throughput and latency vs n)",
        &[
            "series",
            "n",
            "m (bytes)",
            "delay",
            "throughput (TPS)",
            "mean latency (ms)",
            "p95 latency (ms)",
            "views installed",
        ],
    );
    for s in scenarios(scale) {
        let outcome = run_one(&s, 0.15, None);
        let delay = delay_label(&s.network);
        table.push_row(vec![
            format!("{}_m{}_{delay}", s.protocol.label(), s.payload_size),
            s.servers.to_string(),
            s.payload_size.to_string(),
            delay.to_string(),
            format!("{:.0}", outcome.tps),
            format!("{:.1}", outcome.latency.mean_ms()),
            format!("{:.1}", outcome.latency.percentile_ms(95.0)),
            outcome.reference.views_installed.to_string(),
        ]);
    }
    vec![table]
}

//! Figure 6 — performance under batching (n=4, m=32).
//!
//! Paper result to reproduce (shape): throughput–latency pairs per protocol
//! and batch size; PrestigeBFT's curves sit to the upper-right (higher
//! throughput at comparable latency), HotStuff and Prosecutor in the middle,
//! SBFT lowest.

use crate::runner::{base, batched, run as run_one, LEGEND};
use crate::Scale;
use prestige_metrics::Table;
use prestige_workloads::{ProtocolChoice, Scenario};

/// The per-protocol batch sizes of the paper's Figure 6 legend.
fn batch_sizes(protocol: ProtocolChoice, scale: Scale) -> Vec<usize> {
    let full: Vec<usize> = match protocol {
        ProtocolChoice::Prestige => vec![2000, 3000, 5000],
        ProtocolChoice::HotStuff => vec![800, 1000, 2000],
        ProtocolChoice::ProsecutorLite => vec![800, 1000, 1500],
        ProtocolChoice::SbftLite => vec![500, 800, 1000],
    };
    match scale {
        Scale::Full => full,
        Scale::Quick => full.into_iter().map(|b| b / 10).collect(),
    }
}

/// One row per protocol and batch size.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let duration_ms = match scale {
        Scale::Quick => 3_000,
        Scale::Full => 15_000,
    };
    let rows = LEGEND.into_iter().flat_map(|protocol| {
        let row = move |beta| Scenario {
            name: format!("{}_{beta}", protocol.label()),
            protocol,
            duration_ms,
            ..batched(beta, base())
        };
        batch_sizes(protocol, scale).into_iter().map(row)
    });
    rows.collect()
}

/// Runs the batching sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 6 — performance under batching (n=4, m=32)",
        &[
            "series",
            "batch size",
            "throughput (TPS)",
            "mean latency (ms)",
            "views installed",
        ],
    );
    for scenario in scenarios(scale) {
        let outcome = run_one(&scenario, 0.1, None);
        table.push_row(vec![
            scenario.name,
            scenario.batch_size.to_string(),
            format!("{:.0}", outcome.tps),
            format!("{:.1}", outcome.latency.mean_ms()),
            outcome.reference.views_installed.to_string(),
        ]);
    }
    vec![table]
}

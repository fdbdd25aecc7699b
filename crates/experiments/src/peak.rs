//! Peak performance under normal operation (§6.1 text).
//!
//! Paper result to reproduce (shape): PrestigeBFT peaks highest
//! (186,012 TPS at β=3000 in the paper), roughly 5× HotStuff, with Prosecutor
//! close to HotStuff and SBFT far lower.
//!
//! At quick scale (`quick_tables.md`) PrestigeBFT peaks at 262,833 TPS and
//! HotStuff at 72,222, about 3.6×. Prosecutor (93,556) is close to
//! HotStuff, and SBFT (57,289) is lowest. No row installs a view.

use crate::runner::{base, batched, run as run_one, LEGEND};
use crate::Scale;
use prestige_metrics::Table;
use prestige_workloads::{ProtocolChoice, Scenario};

/// Best-performing batch size per protocol (the paper's β choices).
fn best_batch(protocol: ProtocolChoice, scale: Scale) -> usize {
    let full = match protocol {
        ProtocolChoice::Prestige => 3000,
        ProtocolChoice::HotStuff => 1000,
        ProtocolChoice::ProsecutorLite => 1000,
        ProtocolChoice::SbftLite => 800,
    };
    match scale {
        Scale::Full => full,
        Scale::Quick => full / 5,
    }
}

/// One row per protocol, each at its best batch size.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let duration_ms = match scale {
        Scale::Quick => 4_000,
        Scale::Full => 20_000,
    };
    let row = |protocol: ProtocolChoice| Scenario {
        name: format!("peak_{}", protocol.label()),
        protocol,
        duration_ms,
        ..batched(best_batch(protocol, scale), base())
    };
    LEGEND.map(row).to_vec()
}

/// Runs the peak-performance comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Peak performance under normal operation (n=4, m=32)",
        &[
            "protocol",
            "batch size",
            "throughput (TPS)",
            "mean latency (ms)",
            "p95 latency (ms)",
            "views installed",
        ],
    );
    for scenario in scenarios(scale) {
        let outcome = run_one(&scenario, 0.1, None);
        table.push_row(vec![
            scenario.protocol.label().to_string(),
            scenario.batch_size.to_string(),
            format!("{:.0}", outcome.tps),
            format!("{:.1}", outcome.latency.mean_ms()),
            format!("{:.1}", outcome.latency.percentile_ms(95.0)),
            outcome.reference.views_installed.to_string(),
        ]);
    }
    vec![table]
}

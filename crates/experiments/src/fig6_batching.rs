//! Figure 6 — performance under batching (n=4, m=32).
//!
//! Paper result to reproduce (shape): throughput–latency pairs per protocol
//! and batch size; PrestigeBFT's curves sit to the upper-right (higher
//! throughput at comparable latency), HotStuff and Prosecutor in the middle,
//! SBFT lowest.

use crate::runner::{run as run_one, ExperimentConfig};
use crate::Scale;
use prestige_metrics::Table;
use prestige_workloads::{ProtocolChoice, WorkloadSpec};

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

/// Runs the batching sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let duration = match scale {
        Scale::Quick => 3.0,
        Scale::Full => 15.0,
    };
    let mut table = Table::new(
        "Figure 6 — performance under batching (n=4, m=32)",
        &[
            "series",
            "batch size",
            "throughput (TPS)",
            "mean latency (ms)",
        ],
    );
    for protocol in [
        ProtocolChoice::Prestige,
        ProtocolChoice::HotStuff,
        ProtocolChoice::ProsecutorLite,
        ProtocolChoice::SbftLite,
    ] {
        for beta in batch_sizes(protocol, scale) {
            let name = format!("{}_{beta}", protocol.label());
            let mut config = ExperimentConfig::new(name.clone(), 4, protocol);
            config.batch_size = beta;
            config.workload = WorkloadSpec::for_batch_size(beta);
            config.duration_s = duration;
            config.warmup_s = duration * 0.1;
            let outcome = run_one(&config);
            table.push_row(vec![
                name,
                beta.to_string(),
                format!("{:.0}", outcome.tps),
                format!("{:.1}", outcome.latency.mean_ms()),
            ]);
        }
    }
    vec![table]
}

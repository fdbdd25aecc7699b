//! Peak performance under normal operation (§6.1 text).
//!
//! Paper result to reproduce (shape): PrestigeBFT peaks highest
//! (186,012 TPS at β=3000 in the paper), roughly 5× HotStuff, with Prosecutor
//! close to HotStuff and SBFT far lower.

use crate::runner::{run as run_one, ExperimentConfig};
use crate::Scale;
use prestige_metrics::Table;
use prestige_workloads::{ProtocolChoice, WorkloadSpec};

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

/// Runs the peak-performance comparison.
pub fn run_experiment(scale: Scale) -> Vec<Table> {
    let duration = match scale {
        Scale::Quick => 4.0,
        Scale::Full => 20.0,
    };
    let mut table = Table::new(
        "Peak performance under normal operation (n=4, m=32)",
        &[
            "protocol",
            "batch size",
            "throughput (TPS)",
            "mean latency (ms)",
            "p95 latency (ms)",
        ],
    );
    for protocol in [
        ProtocolChoice::Prestige,
        ProtocolChoice::HotStuff,
        ProtocolChoice::ProsecutorLite,
        ProtocolChoice::SbftLite,
    ] {
        let beta = best_batch(protocol, scale);
        let mut config = ExperimentConfig::new(format!("peak_{}", protocol.label()), 4, protocol);
        config.batch_size = beta;
        config.workload = WorkloadSpec::for_batch_size(beta);
        config.duration_s = duration;
        config.warmup_s = duration * 0.1;
        let outcome = run_one(&config);
        table.push_row(vec![
            protocol.label().to_string(),
            beta.to_string(),
            format!("{:.0}", outcome.tps),
            format!("{:.1}", outcome.latency.mean_ms()),
            format!("{:.1}", outcome.latency.percentile_ms(95.0)),
        ]);
    }
    vec![table]
}

/// Entry point used by the experiment registry.
pub fn run(scale: Scale) -> Vec<Table> {
    run_experiment(scale)
}

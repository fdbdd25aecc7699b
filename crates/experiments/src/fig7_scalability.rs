//! Figure 7 — throughput and latency at increasing system scales.
//!
//! Paper result to reproduce (shape): throughput decreases and latency
//! increases with `n` for both protocols; PrestigeBFT stays above HotStuff at
//! every scale; the netem-style `d = 10 ± 5 ms` delay inflates latency and its
//! variance.

use crate::runner::{run as run_one, ExperimentConfig};
use crate::Scale;
use prestige_metrics::Table;
use prestige_sim::NetworkConfig;
use prestige_workloads::{ProtocolChoice, WorkloadSpec};

/// Runs the scalability sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let (scales, duration, pb_beta, hs_beta): (Vec<u32>, f64, usize, usize) = match scale {
        Scale::Quick => (vec![4, 16, 31], 3.0, 300, 100),
        Scale::Full => (vec![4, 16, 31, 61, 100], 10.0, 3000, 1000),
    };
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
        ],
    );
    for protocol in [ProtocolChoice::Prestige, ProtocolChoice::HotStuff] {
        let beta = if protocol == ProtocolChoice::Prestige {
            pb_beta
        } else {
            hs_beta
        };
        for &n in &scales {
            for &m in &[32usize, 64] {
                for (delay_label, network) in [
                    ("d0", NetworkConfig::lan()),
                    ("d10", NetworkConfig::delayed()),
                ] {
                    let name = format!("{}_m{}_{}_n{}", protocol.label(), m, delay_label, n);
                    let mut config = ExperimentConfig::new(name.clone(), n, protocol);
                    config.batch_size = beta;
                    config.workload = WorkloadSpec {
                        payload_size: m,
                        ..WorkloadSpec::for_batch_size(beta)
                    };
                    config.network = network;
                    config.duration_s = duration;
                    config.warmup_s = duration * 0.15;
                    let outcome = run_one(&config);
                    table.push_row(vec![
                        format!("{}_m{}_{}", protocol.label(), m, delay_label),
                        n.to_string(),
                        m.to_string(),
                        delay_label.to_string(),
                        format!("{:.0}", outcome.tps),
                        format!("{:.1}", outcome.latency.mean_ms()),
                        format!("{:.1}", outcome.latency.percentile_ms(95.0)),
                    ]);
                }
            }
        }
    }
    vec![table]
}

//! The experiment runner: every figure row is a [`Scenario`], built by
//! [`SimCluster`], run to its end, and measured. The scenarios start from
//! [`base`] (or [`fault_experiment`] for the §6.2 fault figures).

use prestige_core::{LatencyHistogram, ServerStats};
use prestige_metrics::total_tps;
use prestige_sim::SimTime;
use prestige_types::{ServerId, TimeoutConfig};
use prestige_vopr::SimCluster;
use prestige_workloads::{Link, ProtocolChoice, Scenario};

/// The four protocols in the order the paper's §6.1 legends list them.
pub(crate) const LEGEND: [ProtocolChoice; 4] = [
    ProtocolChoice::Prestige,
    ProtocolChoice::HotStuff,
    ProtocolChoice::ProsecutorLite,
    ProtocolChoice::SbftLite,
];

/// The setting every figure starts from: four PrestigeBFT servers on the
/// paper's cloud LAN, its §6.2 timers (`[800, 1200]` ms, 1 s client
/// patience, 200 ms complaint grace), β = 200, and 4 × 150 outstanding
/// 32-byte requests for five seconds.
pub fn base() -> Scenario {
    Scenario {
        batch_size: 200,
        clients: 4,
        concurrency: 150,
        timeouts: TimeoutConfig {
            base_timeout_ms: 800.0,
            randomization_ms: 400.0,
            client_timeout_ms: 1000.0,
            complaint_grace_ms: 200.0,
        },
        network: Link::LAN,
        ..Scenario::default()
    }
}

/// The fault figures' setting (§6.2: HotStuff timeout 1 s, PrestigeBFT
/// timeouts in `[800, 1200]` ms): [`base`] at 4 × 200 outstanding requests.
pub fn fault_experiment() -> Scenario {
    Scenario {
        concurrency: 200,
        ..base()
    }
}

/// The paper's m = 32 workload at batch size β: enough outstanding requests
/// to fill several batches back to back.
pub fn batched(beta: usize, scenario: Scenario) -> Scenario {
    let outstanding = (beta * 4).clamp(200, 20_000);
    Scenario {
        batch_size: beta,
        clients: 4,
        concurrency: outstanding / 4,
        payload_size: 32,
        ..scenario
    }
}

/// The measurements of one experiment run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Throughput over the measurement window (TPS), on the reference
    /// server — the first correct one.
    pub tps: f64,
    /// Every client-observed commit latency, merged across clients.
    pub latency: LatencyHistogram,
    /// The reference server's counters; its commit log is what the time
    /// series read.
    pub reference: ServerStats,
    /// Every server's counters, in id order.
    pub servers: Vec<ServerStats>,
    /// Every server's penalty on the reference server's books — what
    /// Figure 13 plots (`1` under a baseline, which keeps none).
    pub rp: Vec<i64>,
}

/// Runs one scenario and measures it; throughput excludes the first
/// `warmup_share` of the run.
pub fn run(scenario: &Scenario, warmup_share: f64) -> RunOutcome {
    let mut cluster = SimCluster::new(scenario);
    let duration_s = scenario.duration_ms as f64 / 1000.0;
    cluster.sim.run_until(SimTime::from_secs(duration_s));

    let reference = cluster.behaviors().iter().position(|b| !b.is_faulty());
    let reference = reference.unwrap_or(0) as u32;
    let books = cluster.server(reference).map(|server| server.store());
    let ids = 0..scenario.servers;
    let mut latency = LatencyHistogram::new();
    for client in cluster.clients() {
        latency.merge(&client.stats().latency_hist);
    }
    let stats = cluster.stats(reference);
    RunOutcome {
        tps: total_tps(
            &stats.commit_log,
            duration_s * warmup_share * 1000.0,
            duration_s * 1000.0,
        ),
        latency,
        reference: stats.clone(),
        servers: ids.clone().map(|i| cluster.stats(i).clone()).collect(),
        rp: ids
            .map(|i| books.map_or(1, |store| store.current_rp(ServerId(i))))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_scales_with_batch_size() {
        let outstanding = |beta| {
            let s = batched(beta, base());
            s.clients * s.concurrency as u64
        };
        assert!(outstanding(3000) > outstanding(100));
        assert!(outstanding(100) >= 200);
        assert!(outstanding(3000) <= 20_000);
    }
}

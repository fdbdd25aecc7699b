//! The experiment runner: every figure row is a [`Scenario`], built by
//! [`SimCluster`], run to its end, and measured. The scenarios start from
//! [`base`] (or [`fault_experiment`] for the §6.2 fault figures).

use prestige_core::{LatencyHistogram, ServerStats};
use prestige_metrics::{total_tps, window_instants};
use prestige_sim::SimTime;
use prestige_types::{Actor, ServerId, TimeoutConfig};
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
    /// The reference server's counters.
    pub reference: ServerStats,
    /// The reference server's committed count at the warm-up instant, the
    /// end and every window boundary asked for, as `(instant in ms,
    /// transactions committed before it)`: what the time series read.
    pub commits: Vec<(f64, u64)>,
    /// Every server's counters, in id order.
    pub servers: Vec<ServerStats>,
    /// Every server's penalty at each campaign it started, in order — the
    /// x-axis of Figure 13's trajectory (empty under a baseline).
    pub campaign_rps: Vec<Vec<i64>>,
    /// Every server's penalty on the reference server's books — what
    /// Figure 13 plots (`1` under a baseline, which keeps none).
    pub rp: Vec<i64>,
}

/// Runs one scenario and measures it; throughput excludes the first
/// `warmup_share` of the run. With `window_ms`, the reference server's
/// committed count is also sampled at every window boundary, where
/// [`prestige_metrics::throughput_series`] reads it.
pub fn run(scenario: &Scenario, warmup_share: f64, window_ms: Option<f64>) -> RunOutcome {
    let mut cluster = SimCluster::new(scenario);
    let duration_s = scenario.duration_ms as f64 / 1000.0;
    let (warmup_ms, end_ms) = (duration_s * warmup_share * 1000.0, duration_s * 1000.0);
    let reference = cluster.behaviors().iter().position(|b| !b.is_faulty());
    let reference = reference.unwrap_or(0) as u32;
    let ids = 0..scenario.servers;

    let mut instants = window_ms.map_or(Vec::new(), |w| window_instants(end_ms, w));
    instants.extend([warmup_ms, end_ms]);
    instants.sort_by(f64::total_cmp);
    instants.dedup();
    let mut instants = instants.into_iter().peekable();
    let (mut commits, mut campaign_rps) = (Vec::new(), vec![Vec::new(); ids.len()]);
    // Read between events, so nothing is scheduled for the samples. A
    // handler's `now` is its event's time: a sample taken just before the
    // first event at or after instant S counts the blocks committed before S.
    let deadline = SimTime::from_secs(duration_s);
    cluster.sim.start();
    while let Some(at) = cluster.sim.next_event_time().filter(|at| *at <= deadline) {
        while let Some(instant) = instants.next_if(|s| *s <= at.as_ms()) {
            commits.push((instant, cluster.stats(reference).committed_tx));
        }
        // Only the server whose handler ran can have started a campaign.
        if let Some(Actor::Server(ServerId(i))) = cluster.sim.step() {
            let (stats, rps) = (cluster.stats(i), &mut campaign_rps[i as usize]);
            if stats.campaigns_started > rps.len() as u64 {
                rps.extend(stats.last_campaign.map(|(_, rp, _)| rp));
                let seen = rps.len() as u64;
                assert!(stats.campaigns_started == seen, "s{i} campaigned twice");
            }
        }
    }
    commits.extend(instants.map(|s| (s, cluster.stats(reference).committed_tx)));

    let books = cluster.server(reference).map(|server| server.store());
    let mut latency = LatencyHistogram::new();
    for client in cluster.clients() {
        latency.merge(&client.stats().latency_hist);
    }
    RunOutcome {
        tps: total_tps(&commits, warmup_ms, end_ms),
        latency,
        reference: cluster.stats(reference).clone(),
        commits,
        servers: ids.clone().map(|i| cluster.stats(i).clone()).collect(),
        campaign_rps,
        rp: ids
            .map(|i| books.map_or(1, |store| store.current_rp(ServerId(i))))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_commit_at_a_window_boundary_lands_in_the_window_it_starts() {
        let scenario = Scenario {
            duration_ms: 1_000,
            ..base()
        };
        let whole = run(&scenario, 0.0, None);
        let total = whole.reference.committed_tx;
        let at = whole.reference.last_commit_ms.expect("the run commits");
        // Windows [0, at) and [at, end): the last block, committed at
        // exactly `at`, counts in the second.
        let outcome = run(&scenario, 0.0, Some(at));
        let end_ms = scenario.duration_ms as f64;
        let sampled = outcome.commits.iter().find(|(t, _)| *t == at);
        let before = sampled.expect("a sample at the boundary").1;
        assert!(before < total, "the block at {at} ms counted before it");
        assert_eq!(outcome.commits.last(), Some(&(end_ms, total)));
        let series = prestige_metrics::throughput_series(&outcome.commits, end_ms, at);
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].1, (total - before) as f64 / (at / 1000.0));
    }

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

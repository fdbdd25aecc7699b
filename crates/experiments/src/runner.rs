//! The experiment runner: builds a cluster (PrestigeBFT or a baseline) on the
//! simulator, drives the configured workload and fault plan, and extracts the
//! measurements the figures need.

use prestige_baselines::{BaselineProtocol, PassiveBftServer};
use prestige_core::{ClientConfig, LatencyHistogram, PrestigeClient, PrestigeServer};
use prestige_crypto::KeyRegistry;
use prestige_metrics::total_tps;
use prestige_sim::{NetworkConfig, SimTime, Simulation};
use prestige_types::{
    Actor, ClientId, ClusterConfig, Message, PowConfig, ServerId, TimeoutConfig, View,
    ViewChangePolicy,
};
use prestige_workloads::{FaultPlan, ProtocolChoice, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything one experiment run needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Scenario name (used as the row label).
    pub name: String,
    /// Cluster size.
    pub n: u32,
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Batch size β.
    pub batch_size: usize,
    /// Offered load.
    pub workload: WorkloadSpec,
    /// Fault plan.
    pub faults: FaultPlan,
    /// View-change policy.
    pub policy: ViewChangePolicy,
    /// Timer configuration.
    pub timeouts: TimeoutConfig,
    /// Network model.
    pub network: NetworkConfig,
    /// Proof-of-work configuration (PrestigeBFT only).
    pub pow: PowConfig,
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Warm-up excluded from throughput (seconds).
    pub warmup_s: f64,
    /// Seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A default configuration for `n` servers running `protocol`.
    pub fn new(name: impl Into<String>, n: u32, protocol: ProtocolChoice) -> Self {
        ExperimentConfig {
            name: name.into(),
            n,
            protocol,
            batch_size: 200,
            workload: WorkloadSpec::new(4, 150, 32),
            faults: FaultPlan::None,
            policy: ViewChangePolicy::OnFailureOnly,
            timeouts: TimeoutConfig {
                base_timeout_ms: 800.0,
                randomization_ms: 400.0,
                client_timeout_ms: 1000.0,
                complaint_grace_ms: 200.0,
            },
            network: NetworkConfig::lan(),
            pow: PowConfig::default(),
            duration_s: 5.0,
            warmup_s: 0.5,
            seed: 42,
        }
    }

    fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.n)
            .with_batch_size(self.batch_size)
            .with_payload_size(self.workload.payload_size)
            .with_policy(self.policy)
            .with_timeouts(self.timeouts.clone())
            .with_pow(self.pow);
        config.reputation.refresh_enabled = true;
        config
    }
}

/// Per-server summary extracted at the end of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerOutcome {
    /// Final reputation penalty recorded for the server (PrestigeBFT).
    pub final_rp: i64,
    /// Elections won.
    pub elections_won: u64,
    /// Campaigns started.
    pub campaigns: u64,
    /// Election timeouts observed (split votes / lost races).
    pub election_timeouts: u64,
    /// Total puzzle time (ms).
    pub pow_ms_total: f64,
    /// Campaign log: (time ms, rp used, puzzle ms).
    pub campaign_log: Vec<(f64, i64, f64)>,
}

/// The measurements of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Scenario name.
    pub name: String,
    /// Protocol label (`pb`, `hs`, ...).
    pub protocol: String,
    /// Throughput over the measurement window (TPS).
    pub tps: f64,
    /// Every client-observed commit latency, merged across clients.
    pub latency: LatencyHistogram,
    /// Commit log (time ms, txs) of a reference correct server.
    pub commit_log: Vec<(f64, u64)>,
    /// Highest view installed on the reference server.
    pub final_view: u64,
    /// Views installed on the reference server during the run.
    pub views_installed: u64,
    /// Per-server outcomes keyed by server index.
    pub servers: BTreeMap<u32, ServerOutcome>,
    /// Total simulated duration (seconds).
    pub duration_s: f64,
    /// Measurement window start (ms).
    pub warmup_ms: f64,
}

impl RunOutcome {
    /// Total campaigns across all servers.
    pub fn total_campaigns(&self) -> u64 {
        self.servers.values().map(|s| s.campaigns).sum()
    }

    /// Total election timeouts (split-vote retries) across all servers.
    pub fn total_election_timeouts(&self) -> u64 {
        self.servers.values().map(|s| s.election_timeouts).sum()
    }
}

/// Runs one experiment and extracts its measurements.
pub fn run(config: &ExperimentConfig) -> RunOutcome {
    let cluster = config.cluster_config();
    let behaviors = config.faults.behaviors(config.n);
    let registry = KeyRegistry::new(config.seed, config.n, config.workload.clients);
    let mut sim: Simulation<Message> = Simulation::new(config.seed, config.network);

    match config.protocol {
        ProtocolChoice::Prestige => {
            for i in 0..config.n {
                let server = PrestigeServer::with_behavior(
                    ServerId(i),
                    cluster.clone(),
                    registry.clone(),
                    config.seed,
                    behaviors[i as usize],
                );
                sim.add_node(Actor::Server(ServerId(i)), Box::new(server));
            }
        }
        ProtocolChoice::HotStuff | ProtocolChoice::SbftLite | ProtocolChoice::ProsecutorLite => {
            let baseline = match config.protocol {
                ProtocolChoice::HotStuff => BaselineProtocol::HotStuff,
                ProtocolChoice::SbftLite => BaselineProtocol::SbftLite,
                _ => BaselineProtocol::ProsecutorLite,
            };
            for i in 0..config.n {
                let server = PassiveBftServer::with_behavior(
                    ServerId(i),
                    cluster.clone(),
                    registry.clone(),
                    baseline,
                    behaviors[i as usize],
                );
                sim.add_node(Actor::Server(ServerId(i)), Box::new(server));
            }
        }
    }
    for c in 0..config.workload.clients {
        let mut cc = ClientConfig::new(
            ClientId(c),
            cluster.replicas.clone(),
            config.workload.payload_size,
            config.workload.concurrency,
        );
        cc.timeout_ms = config.timeouts.client_timeout_ms;
        sim.add_node(
            Actor::Client(ClientId(c)),
            Box::new(PrestigeClient::new(cc, &registry)),
        );
    }

    sim.run_until(SimTime::from_secs(config.duration_s));

    // The reference server is the first *correct* server.
    let reference = behaviors.iter().position(|b| !b.is_faulty()).unwrap_or(0) as u32;
    extract_outcome(&sim, config, reference)
}

fn extract_outcome(
    sim: &Simulation<Message>,
    config: &ExperimentConfig,
    reference: u32,
) -> RunOutcome {
    let warmup_ms = config.warmup_s * 1000.0;
    let end_ms = config.duration_s * 1000.0;

    let mut servers = BTreeMap::new();
    let mut commit_log = Vec::new();
    let mut final_view = 1u64;
    let mut views_installed = 0u64;

    for i in 0..config.n {
        let actor = Actor::Server(ServerId(i));
        let outcome = match config.protocol {
            ProtocolChoice::Prestige => {
                let server: &PrestigeServer = sim.node_as(actor).expect("prestige server");
                if i == reference {
                    commit_log = server.stats().commit_log.clone();
                    final_view = server.current_view().0;
                    views_installed = server.stats().views_installed;
                }
                ServerOutcome {
                    final_rp: server.store().current_rp(ServerId(i)),
                    elections_won: server.stats().elections_won,
                    campaigns: server.stats().campaigns_started,
                    election_timeouts: server.stats().election_timeouts,
                    pow_ms_total: server.stats().pow_ms_total,
                    campaign_log: server.stats().campaign_log.clone(),
                }
            }
            _ => {
                let server: &PassiveBftServer = sim.node_as(actor).expect("baseline server");
                if i == reference {
                    commit_log = server.stats().commit_log.clone();
                    final_view = server.current_view().0;
                    views_installed = server.stats().views_installed;
                }
                ServerOutcome {
                    final_rp: 1,
                    elections_won: server.stats().elections_won,
                    campaigns: server.stats().campaigns_started,
                    election_timeouts: server.stats().election_timeouts,
                    pow_ms_total: 0.0,
                    campaign_log: Vec::new(),
                }
            }
        };
        servers.insert(i, outcome);
    }

    // Reputation penalties of all servers as recorded on the reference
    // (correct) server's books — what Figure 13 plots.
    if config.protocol == ProtocolChoice::Prestige {
        let reference_server: &PrestigeServer = sim
            .node_as(Actor::Server(ServerId(reference)))
            .expect("reference server");
        for (i, outcome) in servers.iter_mut() {
            outcome.final_rp = reference_server.store().current_rp(ServerId(*i));
        }
    }

    let mut latency = LatencyHistogram::new();
    for c in 0..config.workload.clients {
        if let Some(client) = sim.node_as::<PrestigeClient>(Actor::Client(ClientId(c))) {
            latency.merge(&client.stats().latency_hist);
        }
    }

    RunOutcome {
        name: config.name.clone(),
        protocol: config.protocol.label().to_string(),
        tps: total_tps(&commit_log, warmup_ms, end_ms),
        latency,
        commit_log,
        final_view,
        views_installed,
        servers,
        duration_s: config.duration_s,
        warmup_ms,
    }
}

/// Convenience: the `View` the run ended in, as a type.
pub fn final_view(outcome: &RunOutcome) -> View {
    View(outcome.final_view)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prestige_run_produces_throughput_and_latency() {
        let mut config = ExperimentConfig::new("smoke_pb", 4, ProtocolChoice::Prestige);
        config.duration_s = 2.0;
        config.warmup_s = 0.2;
        config.batch_size = 50;
        config.workload = WorkloadSpec::new(2, 50, 32);
        let outcome = run(&config);
        assert!(outcome.tps > 100.0, "tps was {}", outcome.tps);
        assert!(outcome.latency.count() > 0);
        assert_eq!(outcome.protocol, "pb");
        assert_eq!(outcome.servers.len(), 4);
    }

    #[test]
    fn baseline_run_produces_throughput() {
        let mut config = ExperimentConfig::new("smoke_hs", 4, ProtocolChoice::HotStuff);
        config.duration_s = 2.0;
        config.warmup_s = 0.2;
        config.batch_size = 50;
        config.workload = WorkloadSpec::new(2, 50, 32);
        let outcome = run(&config);
        assert!(outcome.tps > 100.0, "tps was {}", outcome.tps);
        assert_eq!(outcome.protocol, "hs");
    }

    #[test]
    fn identical_configs_reproduce_identical_outcomes() {
        let mut config = ExperimentConfig::new("det", 4, ProtocolChoice::Prestige);
        config.duration_s = 1.5;
        config.batch_size = 30;
        config.workload = WorkloadSpec::new(2, 30, 32);
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.tps, b.tps);
        assert_eq!(a.final_view, b.final_view);
    }
}

//! The one builder of simulated clusters: [`SimCluster::new`] turns a
//! [`Scenario`] into a discrete-event [`Simulation`] with its servers and
//! clients registered. The vopr harness, the paper's figures
//! (`prestige-experiments`), the simulated tests and the examples all build
//! through it, so a cluster shape, timer set or link described once runs
//! the same everywhere.
//!
//! The scenario's protocol picks the server: `PrestigeServer`, or a
//! `PassiveBftServer` for the passive baselines. A PrestigeBFT server writes
//! a WAL only when the scenario crashes one: each then logs through a
//! [`SharedMemStorage`] handle the cluster keeps, a crash freezes the node
//! (optionally tearing records off its WAL tail), and the restart builds a
//! fresh server, replays the surviving records, re-attaches the log, and
//! swaps it into the simulator — the real runtime's recovery path, minus the
//! filesystem. Without a crash nothing is logged: the in-memory log never
//! prunes, and a long figure run would hold every record.

use prestige_baselines::{BaselineProtocol, PassiveBftServer};
use prestige_core::{ByzantineBehavior, ClientConfig, PrestigeClient, PrestigeServer, ServerStats};
use prestige_crypto::KeyRegistry;
use prestige_sim::{LatencyModel, NetworkConfig, Process, Simulation};
use prestige_storage::SharedMemStorage;
use prestige_types::{Actor, ClientId, ClusterConfig, Message, ServerId};
use prestige_workloads::{Link, ProtocolChoice, Scenario};

/// The simulator's model of a scenario [`Link`] — the only mapping from one
/// to the other.
pub fn network(link: Link) -> NetworkConfig {
    let lo_ms = link.delay_lo_us as f64 / 1_000.0;
    let hi_ms = link.delay_hi_us as f64 / 1_000.0;
    NetworkConfig {
        latency: match link.delay_std_us {
            0 => LatencyModel::Uniform { lo_ms, hi_ms },
            std_us => LatencyModel::Normal {
                mean_ms: (lo_ms + hi_ms) / 2.0,
                std_ms: std_us as f64 / 1_000.0,
                min_ms: lo_ms,
            },
        },
        bandwidth_bytes_per_sec: match link.bandwidth_bytes_per_s {
            0 => f64::INFINITY,
            bytes_per_s => bytes_per_s as f64,
        },
        drop_probability: link.loss_permille as f64 / 1_000.0,
    }
}

/// A simulated cluster built from a [`Scenario`]: servers `s0..sN` in id
/// order, then the clients.
pub struct SimCluster {
    /// The simulation: run it, crash or partition its actors, read its nodes.
    pub sim: Simulation<Message>,
    config: ClusterConfig,
    registry: KeyRegistry,
    seed: u64,
    clients: u64,
    baseline: Option<BaselineProtocol>,
    behaviors: Vec<ByzantineBehavior>,
    /// Each PrestigeBFT server's WAL, kept across its crashes; `None` when
    /// the scenario crashes no server.
    logs: Option<Vec<SharedMemStorage>>,
}

impl SimCluster {
    /// Builds the scenario's cluster, not yet started.
    pub fn new(scenario: &Scenario) -> Self {
        let n = scenario.servers;
        let baseline = match scenario.protocol {
            ProtocolChoice::Prestige => None,
            ProtocolChoice::HotStuff => Some(BaselineProtocol::HotStuff),
            ProtocolChoice::SbftLite => Some(BaselineProtocol::SbftLite),
            ProtocolChoice::ProsecutorLite => Some(BaselineProtocol::ProsecutorLite),
        };
        let logs = (baseline.is_none() && scenario.crashes_a_server())
            .then(|| (0..n).map(|_| SharedMemStorage::new()).collect());
        let mut cluster = SimCluster {
            sim: Simulation::new(scenario.seed, network(scenario.network)),
            config: scenario.cluster_config(),
            registry: KeyRegistry::new(scenario.seed, n, scenario.clients),
            seed: scenario.seed,
            clients: scenario.clients,
            baseline,
            behaviors: scenario.fault_plan.behaviors(n),
            logs,
        };
        for i in 0..n {
            let server = cluster.boot(i);
            cluster.sim.add_node(Actor::Server(ServerId(i)), server);
        }
        for c in 0..scenario.clients {
            let config =
                ClientConfig::for_cluster(ClientId(c), &cluster.config, scenario.concurrency);
            let client = PrestigeClient::new(config, &cluster.registry);
            cluster
                .sim
                .add_node(Actor::Client(ClientId(c)), Box::new(client));
        }
        cluster
    }

    /// Server `i` as it boots: from what its WAL kept (nothing, the first
    /// time), when it has one.
    fn boot(&self, i: u32) -> Box<dyn Process<Message>> {
        let (id, config, keys) = (ServerId(i), self.config.clone(), self.registry.clone());
        let behavior = self.behaviors[i as usize];
        if let Some(protocol) = self.baseline {
            return Box::new(PassiveBftServer::with_behavior(
                id, config, keys, protocol, behavior,
            ));
        }
        let mut server = PrestigeServer::with_behavior(id, config, keys, self.seed, behavior);
        if let Some(log) = self.logs.as_ref().map(|logs| &logs[i as usize]) {
            server.replay_wal(log.records_snapshot());
            server.attach_storage(Box::new(log.clone()));
        }
        Box::new(server)
    }

    /// Each server's behaviour under the scenario's fault plan, in id order.
    pub fn behaviors(&self) -> &[ByzantineBehavior] {
        &self.behaviors
    }

    /// Crashes server `i` and tears `torn_records` records off its WAL tail
    /// (what a power cut mid-append leaves).
    pub fn crash(&mut self, i: u32, torn_records: u32) {
        self.sim.crash(Actor::Server(ServerId(i)));
        if torn_records > 0 {
            self.logs
                .as_ref()
                .expect("a PrestigeBFT crash_restart scenario")[i as usize]
                .truncate_tail(torn_records as usize);
        }
    }

    /// Restarts server `i` from its WAL.
    pub fn restart(&mut self, i: u32) {
        assert!(self.logs.is_some(), "a PrestigeBFT crash_restart scenario");
        let server = self.boot(i);
        self.sim.replace_node(Actor::Server(ServerId(i)), server);
    }

    /// Server `i` as PrestigeBFT, when it runs it.
    pub fn server(&self, i: u32) -> Option<&PrestigeServer> {
        self.sim.node_as(Actor::Server(ServerId(i)))
    }

    /// Server `i`'s counters, whichever protocol it runs.
    pub fn stats(&self, i: u32) -> &ServerStats {
        let actor = Actor::Server(ServerId(i));
        let stats = match self.baseline {
            None => self.server(i).map(PrestigeServer::stats),
            Some(_) => self
                .sim
                .node_as::<PassiveBftServer>(actor)
                .map(PassiveBftServer::stats),
        };
        stats.expect("server registered")
    }

    /// The clients, in id order.
    pub fn clients(&self) -> impl Iterator<Item = &PrestigeClient> {
        (0..self.clients).filter_map(|c| self.sim.node_as(Actor::Client(ClientId(c))))
    }

    /// Transactions confirmed across all clients.
    pub fn confirmed_tx(&self) -> u64 {
        let confirmed = |client: &PrestigeClient| client.stats().committed_tx;
        self.clients().map(confirmed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_figures_links_are_the_papers_lan_and_netem_network() {
        // The networks the committed figure tables were measured on; a
        // change here moves every fig6/fig7 cell.
        let lan = NetworkConfig {
            latency: LatencyModel::Uniform {
                lo_ms: 0.5,
                hi_ms: 2.0,
            },
            bandwidth_bytes_per_sec: 400.0e6,
            drop_probability: 0.0,
        };
        let netem = NetworkConfig {
            latency: LatencyModel::Normal {
                mean_ms: 11.0,
                std_ms: 5.0,
                min_ms: 0.5,
            },
            ..lan
        };
        assert_eq!(network(Link::LAN), lan);
        assert_eq!(network(Link::NETEM_D10), netem);
        // A scenario file's link: uniform, unlimited bandwidth.
        let file = network(Link {
            delay_lo_us: 5_000,
            delay_hi_us: 10_000,
            loss_permille: 5,
            ..Link::default()
        });
        assert_eq!(file.bandwidth_bytes_per_sec, f64::INFINITY);
        assert_eq!(file.drop_probability, 0.005);
    }
}

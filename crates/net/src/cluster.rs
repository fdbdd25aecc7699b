//! Cluster launcher: brings up a full PrestigeBFT cluster (servers + closed
//! loop clients) on real runtimes, over either transport.
//!
//! This is the net-runtime analogue of building a `Simulation` by hand: one
//! call wires key registries, transports, and node runtimes together. The
//! loopback variant is what integration tests and the example use; the TCP
//! variant backs multi-process deployments via the `prestige-node` binary
//! (which launches exactly one node per process from a TOML config).
//!
//! Clusters can be launched *adversarially*: [`LocalCluster::launch_adversarial`]
//! attaches per-server [`ByzantineBehavior`]s (the paper's F1–F4 attacks, with
//! S1/S2 strategies) and an optional [`NetChaos`] controller that injects
//! delay, loss, and partitions at the [`Transport`] seam while the cluster
//! runs. Safety under those conditions is checked with
//! [`LocalCluster::verify_no_fork`], which compares the digest-chained
//! committed logs across replicas.

use crate::chaos::{ChaosTransport, NetChaos};
use crate::runtime::NodeHandle;
use crate::tcp::{TcpConfig, TcpTransport};
use crate::transport::{LoopbackNet, Transport, TransportStats, TransportTotals};
use prestige_core::{
    ByzantineBehavior, ClientConfig, ClientStats, LoopProfile, LoopSnapshot, PrestigeClient,
    PrestigeServer, ServerStats,
};
use prestige_crypto::KeyRegistry;
use prestige_storage::{StorageStats, Wal, WalOptions};
use prestige_types::{Actor, ClientId, ClusterConfig, Digest, Message, ServerId, View};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where and how a cluster persists per-server write-ahead logs. Server `i`
/// keeps its segments under `<root>/server-<i>/`; restarting a server reopens
/// that directory and replays it before rejoining.
#[derive(Debug, Clone)]
pub struct StoragePlan {
    /// Root directory for the whole cluster's logs.
    pub root: PathBuf,
    /// WAL tuning (segment size, fsync batching) shared by every server.
    pub options: WalOptions,
}

impl StoragePlan {
    /// A plan with default WAL tuning rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        StoragePlan {
            root: root.into(),
            options: WalOptions::default(),
        }
    }

    /// The WAL directory of server `id`.
    pub fn server_dir(&self, id: ServerId) -> PathBuf {
        self.root.join(format!("server-{}", id.0))
    }
}

/// Client refill batch used by real-runtime clusters: clients top the window
/// back up once a quarter of it has drained, instead of waiting for a full
/// drain. Full-drain refills convoy the whole window behind the leader's
/// batch timer — a handful of stragglers from the previous window hold every
/// replacement proposal hostage — which is exactly the p99 tail the
/// benchmarks kept showing. The simulation keeps the legacy full-drain
/// default (`refill_batch = 0`) so recorded schedules replay bit-identically.
fn default_refill_batch(concurrency: usize) -> usize {
    (concurrency / 4).max(1)
}

/// Wraps a transport endpoint in the chaos filter when a controller is
/// attached. `salt` differentiates the per-endpoint loss/jitter RNG streams.
fn maybe_chaotic(
    endpoint: impl Transport<Message> + 'static,
    chaos: &Option<NetChaos>,
    seed: u64,
    salt: u64,
) -> Box<dyn Transport<Message>> {
    match chaos {
        Some(controller) => Box::new(ChaosTransport::new(
            Box::new(endpoint),
            controller.clone(),
            seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )),
        None => Box::new(endpoint),
    }
}

/// The fork check shared by every cluster flavour: wherever two replicas
/// committed a block at the same sequence number, the digests (and, by
/// chaining, the whole prefix) must be identical. Lagging replicas are fine;
/// disagreeing ones are not. Returns the highest sequence committed on
/// *every* chain, or a description of the first divergence.
pub fn verify_no_fork_chains(chains: &[(ServerId, Vec<(u64, Digest)>)]) -> Result<u64, String> {
    let mut reference: HashMap<u64, (Digest, ServerId)> = HashMap::new();
    let mut common_tip: Option<u64> = None;
    for (id, chain) in chains {
        let tip = chain.last().map(|(n, _)| *n).unwrap_or(0);
        common_tip = Some(common_tip.map_or(tip, |t| t.min(tip)));
        for &(n, digest) in chain {
            match reference.get(&n) {
                Some((seen, owner)) if *seen != digest => {
                    return Err(format!(
                        "fork at sequence {n}: {id:?} committed {digest:?} but {owner:?} \
                         committed {seen:?}"
                    ));
                }
                Some(_) => {}
                None => {
                    reference.insert(n, (digest, *id));
                }
            }
        }
    }
    Ok(common_tip.unwrap_or(0))
}

/// A PrestigeBFT cluster running on real node runtimes in this process.
pub struct LocalCluster {
    config: ClusterConfig,
    registry: KeyRegistry,
    seed: u64,
    net: LoopbackNet<Message>,
    chaos: Option<NetChaos>,
    behaviors: HashMap<ServerId, ByzantineBehavior>,
    storage: Option<StoragePlan>,
    servers: HashMap<ServerId, NodeHandle<Message>>,
    clients: HashMap<ClientId, NodeHandle<Message>>,
    /// Per-actor transport counters, captured at spawn time (through the
    /// chaos wrapper, which shares its inner endpoint's stats). Entries
    /// survive crashes so reports still cover dead nodes' traffic.
    transport_stats: HashMap<Actor, Arc<TransportStats>>,
    /// Per-server event-loop stage profiles (entries survive crashes;
    /// restarts replace them with the fresh node's profile). Empty when the
    /// cluster was launched with profiling off.
    profiles: HashMap<ServerId, Arc<LoopProfile>>,
    profiling: bool,
}

/// Assembles one server — fresh or restarted — for either fabric: with a
/// [`StoragePlan`] its WAL is replayed and attached, and with `profiling` a
/// fresh stage profile is attached and returned.
fn build_server(
    id: ServerId,
    config: &ClusterConfig,
    registry: &KeyRegistry,
    seed: u64,
    behavior: ByzantineBehavior,
    storage: Option<&StoragePlan>,
    profiling: bool,
) -> std::io::Result<(PrestigeServer, Option<Arc<LoopProfile>>)> {
    let mut server =
        PrestigeServer::with_behavior(id, config.clone(), registry.clone(), seed, behavior);
    if let Some(plan) = storage {
        let dir = plan.server_dir(id);
        std::fs::create_dir_all(&dir)?;
        // Replay-then-attach: the records rebuild committed state with
        // storage still detached (no re-appends), then the open WAL becomes
        // the server's durability sink.
        let (wal, records) =
            Wal::open(&dir, plan.options.clone()).map_err(std::io::Error::other)?;
        server.replay_wal(records);
        server.attach_storage(Box::new(wal));
    }
    let profile = profiling.then(|| {
        let p = Arc::new(LoopProfile::default());
        server.attach_profiler(Arc::clone(&p));
        p
    });
    Ok((server, profile))
}

/// Builds one server node and spawns it on the loopback fabric.
#[allow(clippy::too_many_arguments)]
fn spawn_server(
    id: ServerId,
    config: &ClusterConfig,
    registry: &KeyRegistry,
    seed: u64,
    behavior: ByzantineBehavior,
    net: &LoopbackNet<Message>,
    chaos: &Option<NetChaos>,
    storage: &Option<StoragePlan>,
    profiling: bool,
) -> (
    NodeHandle<Message>,
    Arc<TransportStats>,
    Option<Arc<LoopProfile>>,
) {
    let (server, profile) = build_server(
        id,
        config,
        registry,
        seed,
        behavior,
        storage.as_ref(),
        profiling,
    )
    .expect("open and replay the server's WAL");
    let endpoint = net.endpoint(Actor::Server(id));
    let transport = maybe_chaotic(endpoint, chaos, seed, id.0 as u64);
    let stats = transport.stats();
    let handle = NodeHandle::spawn_instrumented(
        Box::new(server),
        transport,
        seed,
        Vec::new(),
        profile.clone(),
    );
    (handle, stats, profile)
}

impl LocalCluster {
    /// Launches `config.n()` servers and `clients` closed-loop clients (each
    /// keeping `concurrency` proposals in flight) over a loopback transport.
    /// All servers are correct and all links are healthy.
    pub fn launch(config: ClusterConfig, seed: u64, clients: u64, concurrency: usize) -> Self {
        Self::launch_adversarial(config, seed, clients, concurrency, &[], None)
    }

    /// [`Self::launch`] with a durable storage plan: every server writes its
    /// WAL under the plan's root and can be killed and restarted
    /// ([`Self::restart_server`]) from disk.
    pub fn launch_durable(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
        storage: StoragePlan,
    ) -> Self {
        Self::launch_full(config, seed, clients, concurrency, &[], None, Some(storage))
    }

    /// [`Self::launch`] under adversarial conditions: server `i` runs with
    /// `behaviors[i]` (missing entries are [`ByzantineBehavior::Correct`]),
    /// and, when `chaos` is given, every endpoint — servers and clients — is
    /// wrapped in a [`ChaosTransport`] controlled by it, so partitions,
    /// delay, and loss can be injected while the cluster runs.
    pub fn launch_adversarial(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
        behaviors: &[ByzantineBehavior],
        chaos: Option<NetChaos>,
    ) -> Self {
        Self::launch_full(config, seed, clients, concurrency, behaviors, chaos, None)
    }

    /// The full launcher: Byzantine behaviours, chaos, and durable storage
    /// in any combination. Stage profiling is on (it costs well under 1%,
    /// see the runtime docs); use [`Self::launch_configured`] to switch it
    /// off for overhead comparisons.
    pub fn launch_full(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
        behaviors: &[ByzantineBehavior],
        chaos: Option<NetChaos>,
        storage: Option<StoragePlan>,
    ) -> Self {
        Self::launch_configured(
            config,
            seed,
            clients,
            concurrency,
            behaviors,
            chaos,
            storage,
            true,
        )
    }

    /// [`Self::launch_full`] with an explicit profiling switch.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_configured(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
        behaviors: &[ByzantineBehavior],
        chaos: Option<NetChaos>,
        storage: Option<StoragePlan>,
        profiling: bool,
    ) -> Self {
        let registry = KeyRegistry::new(seed, config.n(), clients);
        let net: LoopbackNet<Message> = LoopbackNet::new();

        let mut behavior_map = HashMap::new();
        let mut servers = HashMap::new();
        let mut transport_stats = HashMap::new();
        let mut profiles = HashMap::new();
        for i in 0..config.n() {
            let id = ServerId(i);
            let behavior = behaviors.get(i as usize).copied().unwrap_or_default();
            behavior_map.insert(id, behavior);
            let (handle, stats, profile) = spawn_server(
                id, &config, &registry, seed, behavior, &net, &chaos, &storage, profiling,
            );
            transport_stats.insert(Actor::Server(id), stats);
            if let Some(profile) = profile {
                profiles.insert(id, profile);
            }
            servers.insert(id, handle);
        }

        let mut client_handles = HashMap::new();
        for c in 0..clients {
            let id = ClientId(c);
            let cc = ClientConfig::new(
                id,
                config.replicas.clone(),
                config.payload_size,
                concurrency,
            )
            .with_refill_batch(default_refill_batch(concurrency));
            let client = PrestigeClient::new(cc, &registry);
            let endpoint = net.endpoint(Actor::Client(id));
            let transport = maybe_chaotic(endpoint, &chaos, seed, 0x1_0000_0000u64 + c);
            transport_stats.insert(Actor::Client(id), transport.stats());
            client_handles.insert(id, NodeHandle::spawn(Box::new(client), transport, seed));
        }

        LocalCluster {
            config,
            registry,
            seed,
            net,
            chaos,
            behaviors: behavior_map,
            storage,
            servers,
            clients: client_handles,
            transport_stats,
            profiles,
            profiling,
        }
    }

    /// The cluster configuration the nodes were launched with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The underlying loopback fabric (for advanced fault injection).
    pub fn net(&self) -> &LoopbackNet<Message> {
        &self.net
    }

    /// The chaos controller the cluster was launched with, if any.
    pub fn chaos(&self) -> Option<&NetChaos> {
        self.chaos.as_ref()
    }

    /// The Byzantine behaviour server `id` was launched with.
    pub fn behavior_of(&self, id: ServerId) -> ByzantineBehavior {
        self.behaviors.get(&id).copied().unwrap_or_default()
    }

    /// Live server stats snapshot.
    pub fn server_stats(&self, id: ServerId) -> Option<ServerStats> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.stats().clone())
    }

    /// Live client stats snapshot.
    pub fn client_stats(&self, id: ClientId) -> Option<ClientStats> {
        self.clients
            .get(&id)?
            .inspect_as::<PrestigeClient, _, _>(|c| c.stats().clone())
    }

    /// The transport counters of `actor`'s endpoint (entries persist across
    /// crashes; restarts replace them with the fresh endpoint's counters).
    pub fn transport_stats_of(&self, actor: Actor) -> Option<Arc<TransportStats>> {
        self.transport_stats.get(&actor).map(Arc::clone)
    }

    /// Server `id`'s event-loop stage profile (`None` with profiling off).
    pub fn loop_profile_of(&self, id: ServerId) -> Option<LoopSnapshot> {
        self.profiles.get(&id).map(|p| p.snapshot())
    }

    /// The cluster-wide event-loop stage profile: every server's counters
    /// merged. Empty (all zeros) with profiling off.
    pub fn loop_profile(&self) -> LoopSnapshot {
        let mut merged = LoopSnapshot::default();
        for profile in self.profiles.values() {
            merged.merge(&profile.snapshot());
        }
        merged
    }

    /// Cluster-wide transport counter sums (servers and clients). On the
    /// loopback fabric the TCP reactor counters are always zero.
    pub fn transport_totals(&self) -> TransportTotals {
        let mut totals = TransportTotals::default();
        for stats in self.transport_stats.values() {
            stats.accumulate_into(&mut totals);
        }
        totals
    }

    /// Clears every client's latency accounting (benchmark warmup boundary),
    /// so subsequent percentile reads cover only the measurement window.
    pub fn reset_client_latency(&self) {
        for handle in self.clients.values() {
            let _ = handle.inspect(|node| {
                if let Some(client) = node.as_any_mut().downcast_mut::<PrestigeClient>() {
                    client.reset_latency_stats();
                }
            });
        }
    }

    /// Total transactions confirmed across all clients.
    pub fn total_committed(&self) -> u64 {
        self.clients
            .keys()
            .filter_map(|&c| self.client_stats(c))
            .map(|s| s.committed_tx)
            .sum()
    }

    /// The current `(view, leader)` as observed by server `id`.
    pub fn view_of(&self, id: ServerId) -> Option<(View, ServerId)> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| (s.current_view(), s.current_leader()))
    }

    /// The current role of server `id` (follower / redeemer / candidate /
    /// leader), for scenario reports and diagnostics.
    pub fn role_of(&self, id: ServerId) -> Option<prestige_core::ServerRole> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.role())
    }

    /// One-line live state snapshot of server `id`
    /// ([`PrestigeServer::debug_snapshot`]), for failure diagnostics.
    pub fn debug_snapshot(&self, id: ServerId) -> Option<String> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.debug_snapshot())
    }

    /// The reputation penalties of every server as recorded in the latest
    /// vcBlock installed at observer `id`, sorted by server.
    pub fn reputations_at(&self, id: ServerId) -> Option<Vec<(ServerId, i64)>> {
        let n = self.config.n();
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(move |s| {
                (0..n)
                    .map(|i| (ServerId(i), s.store().current_rp(ServerId(i))))
                    .collect()
            })
    }

    /// Snapshot of server `id`'s committed txBlock chain as
    /// `(sequence number, digest)` pairs (genesis included).
    pub fn committed_chain(&self, id: ServerId) -> Option<Vec<(u64, Digest)>> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.store().chain_digests())
    }

    /// Safety check: verifies that the given servers' committed logs contain
    /// **no fork** — wherever two replicas have committed a block at the same
    /// sequence number, the block digests (and therefore, by chaining, the
    /// whole prefix) are identical. Lagging replicas are fine; disagreeing
    /// ones are not.
    ///
    /// Returns the highest sequence number committed on *every* checked
    /// server (the guaranteed-identical common prefix), or a description of
    /// the first divergence found.
    pub fn verify_no_fork(&self, servers: &[ServerId]) -> Result<u64, String> {
        let mut chains = Vec::with_capacity(servers.len());
        for &id in servers {
            let chain = self
                .committed_chain(id)
                .ok_or_else(|| format!("server {id:?} did not answer the chain snapshot"))?;
            chains.push((id, chain));
        }
        verify_no_fork_chains(&chains)
    }

    /// Crashes a server abruptly: its runtime thread stops and its endpoint
    /// deregisters, so all traffic toward it is dropped — exactly what a
    /// killed process looks like to the rest of the cluster.
    pub fn crash_server(&mut self, id: ServerId) {
        self.net.disconnect(Actor::Server(id));
        if let Some(handle) = self.servers.remove(&id) {
            let _ = handle.stop();
        }
    }

    /// Restarts a crashed server from its on-disk WAL: a **fresh**
    /// `PrestigeServer` is built, the log directory is reopened (torn tails
    /// truncated, chain verified), the surviving records are replayed into
    /// its block store, and the node rejoins the fabric — from where the
    /// sync plane pages it forward. Panics if the server is still running;
    /// launched without a [`StoragePlan`], the server rejoins blank (every
    /// block must come back over sync).
    pub fn restart_server(&mut self, id: ServerId) {
        assert!(
            !self.servers.contains_key(&id),
            "restart_server({id:?}): crash it first"
        );
        let behavior = self.behavior_of(id);
        let (handle, stats, profile) = spawn_server(
            id,
            &self.config,
            &self.registry,
            self.seed,
            behavior,
            &self.net,
            &self.chaos,
            &self.storage,
            self.profiling,
        );
        self.transport_stats.insert(Actor::Server(id), stats);
        if let Some(profile) = profile {
            self.profiles.insert(id, profile);
        }
        self.servers.insert(id, handle);
    }

    /// The storage plan the cluster was launched with, if any.
    pub fn storage_plan(&self) -> Option<&StoragePlan> {
        self.storage.as_ref()
    }

    /// Live storage-plane stats of server `id` (`None` when the server is
    /// down or the cluster is not durable).
    pub fn storage_stats(&self, id: ServerId) -> Option<StorageStats> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.storage_stats())
            .flatten()
    }

    /// Server `id`'s stable checkpoint height (0 = none yet).
    pub fn stable_checkpoint_of(&self, id: ServerId) -> Option<u64> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.stable_checkpoint())
    }

    /// Server `id`'s checkpoint-GC counters `(checkpoints_formed,
    /// gc_pruned_keys)`.
    pub fn checkpoint_counters(&self, id: ServerId) -> Option<(u64, u64)> {
        self.server_stats(id)
            .map(|s| (s.checkpoints_formed, s.gc_pruned_keys))
    }

    /// Chops up to `bytes` off the end of server `id`'s newest WAL segment —
    /// the torn-tail crash signature (a power cut mid-append). The server
    /// must be down. Returns how many bytes were actually removed.
    pub fn truncate_wal_tail(&self, id: ServerId, bytes: u64) -> std::io::Result<u64> {
        assert!(
            !self.servers.contains_key(&id),
            "truncate_wal_tail({id:?}): crash it first"
        );
        let plan = self.storage.as_ref().expect("durable cluster required");
        let dir = plan.server_dir(id);
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        segments.sort();
        let Some(last) = segments.last() else {
            return Ok(0);
        };
        let len = std::fs::metadata(last)?.len();
        let cut = bytes.min(len);
        let file = std::fs::OpenOptions::new().write(true).open(last)?;
        file.set_len(len - cut)?;
        Ok(cut)
    }

    /// Server ids currently alive.
    pub fn live_servers(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Server ids currently alive and launched as correct (the replicas whose
    /// logs the safety assertions compare).
    pub fn correct_servers(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self
            .servers
            .keys()
            .copied()
            .filter(|id| !self.behavior_of(*id).is_faulty())
            .collect();
        ids.sort();
        ids
    }

    /// Polls `predicate` against the cluster until it returns true or
    /// `timeout` elapses. Returns whether the predicate succeeded.
    pub fn wait_until(&self, timeout: Duration, mut predicate: impl FnMut(&Self) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if predicate(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops every node, returning final client stats keyed by client id.
    pub fn shutdown(mut self) -> HashMap<ClientId, ClientStats> {
        let mut stats = HashMap::new();
        for (id, handle) in self.clients.drain() {
            if let Some(node) = handle.stop() {
                if let Some(client) = node.as_any().downcast_ref::<PrestigeClient>() {
                    stats.insert(id, client.stats().clone());
                }
            }
        }
        for (_, handle) in self.servers.drain() {
            let _ = handle.stop();
        }
        stats
    }
}

/// Launches one server node over TCP, as the `prestige-node` binary does.
/// `behavior` is the server's Byzantine behaviour — [`ByzantineBehavior::Correct`]
/// for production nodes, an attack variant for adversarial deployments.
/// With a [`StoragePlan`] the server replays and attaches its WAL (the node's
/// directory under the plan root), so a killed process restarts from disk.
/// Returns the runtime handle; the process typically parks afterwards.
#[allow(clippy::too_many_arguments)]
pub fn launch_tcp_server(
    id: ServerId,
    config: ClusterConfig,
    registry: KeyRegistry,
    seed: u64,
    listen: SocketAddr,
    peers: HashMap<Actor, SocketAddr>,
    behavior: ByzantineBehavior,
    storage: Option<StoragePlan>,
) -> std::io::Result<NodeHandle<Message>> {
    let transport: TcpTransport<Message> =
        TcpTransport::bind(Actor::Server(id), TcpConfig::new(listen, peers))?;
    let (server, profile) = build_server(
        id,
        &config,
        &registry,
        seed,
        behavior,
        storage.as_ref(),
        true,
    )?;
    Ok(NodeHandle::spawn_instrumented(
        Box::new(server),
        Box::new(transport),
        seed,
        Vec::new(),
        profile,
    ))
}

/// Launches one closed-loop client over TCP.
pub fn launch_tcp_client(
    id: ClientId,
    config: ClusterConfig,
    registry: &KeyRegistry,
    seed: u64,
    concurrency: usize,
    listen: SocketAddr,
    peers: HashMap<Actor, SocketAddr>,
) -> std::io::Result<NodeHandle<Message>> {
    let transport: TcpTransport<Message> =
        TcpTransport::bind(Actor::Client(id), TcpConfig::new(listen, peers))?;
    let cc = ClientConfig::new(
        id,
        config.replicas.clone(),
        config.payload_size,
        concurrency,
    )
    .with_refill_batch(default_refill_batch(concurrency));
    let client = PrestigeClient::new(cc, registry);
    Ok(NodeHandle::spawn(
        Box::new(client),
        Box::new(transport),
        seed,
    ))
}

/// A full PrestigeBFT cluster running over real TCP sockets **in this
/// process**: every node binds its own ephemeral loopback port and talks to
/// the others through [`TcpTransport`] — serialization, the socket reactor
/// on each node's event loop, reconnects, the lot. This is the seam the
/// loopback-vs-TCP integration tests and `peak_net --tcp` use to exercise
/// the wire path that `LocalCluster` (by design) skips.
pub struct TcpCluster {
    config: ClusterConfig,
    servers: HashMap<ServerId, NodeHandle<Message>>,
    clients: HashMap<ClientId, NodeHandle<Message>>,
    transport_stats: HashMap<Actor, Arc<TransportStats>>,
    /// Per-server event-loop stage profiles (empty with profiling off).
    profiles: HashMap<ServerId, Arc<LoopProfile>>,
}

impl TcpCluster {
    /// Launches `config.n()` servers and `clients` closed-loop clients over
    /// TCP on `127.0.0.1`. Every node's ephemeral listener is bound up
    /// front and kept, so every node starts with the complete peer address
    /// map and every peer is already listening.
    pub fn launch(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
    ) -> std::io::Result<Self> {
        Self::launch_configured(config, seed, clients, concurrency, true)
    }

    /// [`Self::launch`] with an explicit stage-profiling switch.
    pub fn launch_configured(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
        profiling: bool,
    ) -> std::io::Result<Self> {
        let registry = KeyRegistry::new(seed, config.n(), clients);

        // Bind every listener before any node starts and hand each node its
        // own: every peer is already listening when the first frame is sent,
        // so no first connect is refused and nobody else can take a port in
        // between.
        let actors = (0..config.n())
            .map(|i| Actor::Server(ServerId(i)))
            .chain((0..clients).map(|c| Actor::Client(ClientId(c))));
        let mut listeners = HashMap::new();
        let mut addrs: HashMap<Actor, SocketAddr> = HashMap::new();
        for actor in actors {
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(actor, listener.local_addr()?);
            listeners.insert(actor, listener);
        }
        let mut endpoint = |me: Actor| -> std::io::Result<TcpTransport<Message>> {
            let listener = listeners.remove(&me).expect("one listener per actor");
            let mut peers = addrs.clone();
            peers.remove(&me);
            TcpTransport::from_listener(me, listener, peers)
        };

        let mut servers = HashMap::new();
        let mut transport_stats = HashMap::new();
        let mut profiles = HashMap::new();
        for i in 0..config.n() {
            let id = ServerId(i);
            let me = Actor::Server(id);
            let transport = endpoint(me)?;
            transport_stats.insert(me, transport.stats());
            let (server, profile) = build_server(
                id,
                &config,
                &registry,
                seed,
                ByzantineBehavior::Correct,
                None,
                profiling,
            )?;
            if let Some(p) = &profile {
                profiles.insert(id, Arc::clone(p));
            }
            servers.insert(
                id,
                NodeHandle::spawn_instrumented(
                    Box::new(server),
                    Box::new(transport),
                    seed,
                    Vec::new(),
                    profile,
                ),
            );
        }

        let mut client_handles = HashMap::new();
        for c in 0..clients {
            let id = ClientId(c);
            let me = Actor::Client(id);
            let transport = endpoint(me)?;
            transport_stats.insert(me, transport.stats());
            let cc = ClientConfig::new(
                id,
                config.replicas.clone(),
                config.payload_size,
                concurrency,
            )
            .with_refill_batch(default_refill_batch(concurrency));
            let client = PrestigeClient::new(cc, &registry);
            client_handles.insert(
                id,
                NodeHandle::spawn(Box::new(client), Box::new(transport), seed),
            );
        }

        Ok(TcpCluster {
            config,
            servers,
            clients: client_handles,
            transport_stats,
            profiles,
        })
    }

    /// The cluster configuration the nodes were launched with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Live server stats snapshot.
    pub fn server_stats(&self, id: ServerId) -> Option<ServerStats> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.stats().clone())
    }

    /// Live client stats snapshot.
    pub fn client_stats(&self, id: ClientId) -> Option<ClientStats> {
        self.clients
            .get(&id)?
            .inspect_as::<PrestigeClient, _, _>(|c| c.stats().clone())
    }

    /// Clears every client's latency accounting (benchmark warmup boundary).
    pub fn reset_client_latency(&self) {
        for handle in self.clients.values() {
            let _ = handle.inspect(|node| {
                if let Some(client) = node.as_any_mut().downcast_mut::<PrestigeClient>() {
                    client.reset_latency_stats();
                }
            });
        }
    }

    /// Total transactions confirmed across all clients.
    pub fn total_committed(&self) -> u64 {
        self.clients
            .keys()
            .filter_map(|&c| self.client_stats(c))
            .map(|s| s.committed_tx)
            .sum()
    }

    /// The current `(view, leader)` as observed by server `id`.
    pub fn view_of(&self, id: ServerId) -> Option<(View, ServerId)> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| (s.current_view(), s.current_leader()))
    }

    /// Snapshot of server `id`'s committed txBlock chain.
    pub fn committed_chain(&self, id: ServerId) -> Option<Vec<(u64, Digest)>> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.store().chain_digests())
    }

    /// Safety check across the given servers' committed logs
    /// ([`verify_no_fork_chains`]).
    pub fn verify_no_fork(&self, servers: &[ServerId]) -> Result<u64, String> {
        let mut chains = Vec::with_capacity(servers.len());
        for &id in servers {
            let chain = self
                .committed_chain(id)
                .ok_or_else(|| format!("server {id:?} did not answer the chain snapshot"))?;
            chains.push((id, chain));
        }
        verify_no_fork_chains(&chains)
    }

    /// Kills a server: its runtime stops and its transport shuts down, so
    /// its listener closes and established streams break — a process kill as
    /// seen from the rest of the cluster. Peers' transports park the dead
    /// address behind reconnect backoff.
    pub fn crash_server(&mut self, id: ServerId) {
        if let Some(handle) = self.servers.remove(&id) {
            let _ = handle.stop();
        }
    }

    /// Server ids currently alive.
    pub fn live_servers(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The transport counters of `actor`'s endpoint.
    pub fn transport_stats_of(&self, actor: Actor) -> Option<Arc<TransportStats>> {
        self.transport_stats.get(&actor).map(Arc::clone)
    }

    /// Server `id`'s event-loop stage profile (`None` with profiling off).
    pub fn loop_profile_of(&self, id: ServerId) -> Option<LoopSnapshot> {
        self.profiles.get(&id).map(|p| p.snapshot())
    }

    /// The cluster-wide event-loop stage profile: every server's counters
    /// merged. Empty (all zeros) with profiling off.
    pub fn loop_profile(&self) -> LoopSnapshot {
        let mut merged = LoopSnapshot::default();
        for profile in self.profiles.values() {
            merged.merge(&profile.snapshot());
        }
        merged
    }

    /// Cluster-wide transport counter sums — over TCP the reactor counters
    /// (`writev_calls`, `frames_coalesced`, `read_calls`, `poll_calls`, …)
    /// are live.
    pub fn transport_totals(&self) -> TransportTotals {
        let mut totals = TransportTotals::default();
        for stats in self.transport_stats.values() {
            stats.accumulate_into(&mut totals);
        }
        totals
    }

    /// Polls `predicate` until it returns true or `timeout` elapses.
    pub fn wait_until(&self, timeout: Duration, mut predicate: impl FnMut(&Self) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if predicate(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops every node, returning final client stats keyed by client id.
    pub fn shutdown(mut self) -> HashMap<ClientId, ClientStats> {
        let mut stats = HashMap::new();
        for (id, handle) in self.clients.drain() {
            if let Some(node) = handle.stop() {
                if let Some(client) = node.as_any().downcast_ref::<PrestigeClient>() {
                    stats.insert(id, client.stats().clone());
                }
            }
        }
        for (_, handle) in self.servers.drain() {
            let _ = handle.stop();
        }
        stats
    }
}

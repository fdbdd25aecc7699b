//! Cluster launcher: brings up a full PrestigeBFT cluster (servers + closed
//! loop clients) on real runtimes, over either transport.
//!
//! This is the net-runtime analogue of building a `Simulation` by hand: one
//! call wires key registries, transports, and node runtimes together. There
//! is one launcher, [`Cluster<F>`], generic over the [`Fabric`] that hands
//! out its endpoints: [`Loopback`] (in-process channels — what most
//! integration tests and the example use) or [`Tcp`] (every node on its own
//! `127.0.0.1` socket — serialization, the socket reactor, reconnects, the
//! lot). Multi-process deployments use the `prestige-node` binary, which
//! launches exactly one node per process from a TOML config through
//! [`launch_tcp_server`] / [`launch_tcp_client`].
//!
//! Clusters can be launched *adversarially* on either fabric:
//! [`Cluster::launch_full`] attaches per-server [`ByzantineBehavior`]s (the
//! paper's F1–F4 attacks, with S1/S2 strategies), an optional [`NetChaos`]
//! controller that injects delay, loss, and partitions at the [`Transport`]
//! seam while the cluster runs, and an optional [`StoragePlan`] so servers
//! can be killed and restarted from their WAL. Safety under those conditions
//! is checked with [`Cluster::verify_no_fork`], which compares the
//! digest-chained committed logs across replicas.

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
use std::io;
use std::net::{SocketAddr, TcpListener};
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

/// The fork check shared by both fabrics: wherever two replicas still
/// hold a committed block at the same sequence number, the digests (and,
/// by chaining, the whole prefix, pruned or not) must be identical. Lagging
/// replicas are fine; disagreeing ones are not. Returns the highest
/// sequence committed on *every* chain, or a description of the first
/// divergence.
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

/// Where a cluster's endpoints come from: the one seam between the launcher
/// and the transport underneath it. Everything else about a cluster —
/// behaviours, chaos, storage, crash/restart, the accessors — is written
/// once in [`Cluster`] against this trait.
pub trait Fabric: Sized {
    /// Reserves whatever the fabric needs for `actors` before any node
    /// starts.
    fn open(actors: &[Actor]) -> io::Result<Self>;

    /// The endpoint of `me`. Asking again for an actor whose earlier
    /// endpoint was shut down yields a fresh endpoint under the same
    /// identity (and, on sockets, the same address).
    fn endpoint(&mut self, me: Actor) -> io::Result<Box<dyn Transport<Message>>>;

    /// Cuts `actor` off abruptly (crash injection), for fabrics where
    /// stopping the node's runtime does not already do that.
    fn disconnect(&mut self, _actor: Actor) {}
}

/// The in-process fabric: mpsc channels, messages moved by value.
pub struct Loopback(LoopbackNet<Message>);

impl Fabric for Loopback {
    fn open(_actors: &[Actor]) -> io::Result<Self> {
        Ok(Loopback(LoopbackNet::new()))
    }

    fn endpoint(&mut self, me: Actor) -> io::Result<Box<dyn Transport<Message>>> {
        Ok(Box::new(self.0.endpoint(me)))
    }

    fn disconnect(&mut self, actor: Actor) {
        self.0.disconnect(actor);
    }
}

/// The socket fabric: every actor listens on its own ephemeral `127.0.0.1`
/// port. All listeners are bound before any node starts and each node is
/// handed its own, so every peer is already listening when the first frame
/// is sent — no first connect is refused and nobody else can take a port in
/// between. A crashed node's transport closes its listener; its next
/// endpoint re-binds the recorded address, where its peers' reconnect
/// backoff finds it again.
pub struct Tcp {
    addrs: HashMap<Actor, SocketAddr>,
    listeners: HashMap<Actor, TcpListener>,
}

impl Fabric for Tcp {
    fn open(actors: &[Actor]) -> io::Result<Self> {
        let mut fabric = Tcp {
            addrs: HashMap::new(),
            listeners: HashMap::new(),
        };
        for &actor in actors {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            fabric.addrs.insert(actor, listener.local_addr()?);
            fabric.listeners.insert(actor, listener);
        }
        Ok(fabric)
    }

    fn endpoint(&mut self, me: Actor) -> io::Result<Box<dyn Transport<Message>>> {
        let listener = match self.listeners.remove(&me) {
            Some(listener) => listener,
            None => {
                let addr = self.addrs.get(&me).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, format!("no address for {me}"))
                })?;
                TcpListener::bind(addr)?
            }
        };
        let mut peers = self.addrs.clone();
        peers.remove(&me);
        Ok(Box::new(TcpTransport::from_listener(me, listener, peers)?))
    }
}

/// Assembles one server — fresh or restarted: with a [`StoragePlan`] its WAL
/// is replayed and attached. The stage profile is always on (it costs well
/// under 1%, see the runtime docs).
fn build_server(
    id: ServerId,
    config: &ClusterConfig,
    registry: &KeyRegistry,
    seed: u64,
    behavior: ByzantineBehavior,
    storage: Option<&StoragePlan>,
) -> io::Result<(PrestigeServer, Arc<LoopProfile>)> {
    let mut server =
        PrestigeServer::with_behavior(id, config.clone(), registry.clone(), seed, behavior);
    if let Some(plan) = storage {
        let dir = plan.server_dir(id);
        std::fs::create_dir_all(&dir)?;
        // Replay-then-attach: the records rebuild committed state with
        // storage still detached (no re-appends), then the open WAL becomes
        // the server's durability sink.
        let (wal, records) = Wal::open(&dir, plan.options.clone()).map_err(io::Error::other)?;
        server.replay_wal(records);
        server.attach_storage(Box::new(wal));
    }
    let profile = Arc::new(LoopProfile::default());
    server.attach_profiler(Arc::clone(&profile));
    Ok((server, profile))
}

/// Spawns one closed-loop client keeping `concurrency` proposals in flight.
fn spawn_client(
    id: ClientId,
    config: &ClusterConfig,
    registry: &KeyRegistry,
    seed: u64,
    concurrency: usize,
    transport: Box<dyn Transport<Message>>,
) -> NodeHandle<Message> {
    let client = PrestigeClient::new(ClientConfig::for_cluster(id, config, concurrency), registry);
    NodeHandle::spawn(Box::new(client), transport, seed)
}

/// A PrestigeBFT cluster running on real node runtimes in this process, over
/// the fabric `F`.
pub struct Cluster<F: Fabric> {
    config: ClusterConfig,
    registry: KeyRegistry,
    seed: u64,
    fabric: F,
    chaos: Option<NetChaos>,
    /// `behaviors[i]` is server `i`'s; missing entries are correct.
    behaviors: Vec<ByzantineBehavior>,
    storage: Option<StoragePlan>,
    servers: HashMap<ServerId, NodeHandle<Message>>,
    clients: HashMap<ClientId, NodeHandle<Message>>,
    /// Per-actor transport counters, captured at spawn time (through the
    /// chaos wrapper, which shares its inner endpoint's stats). Entries
    /// survive crashes so reports still cover dead nodes' traffic.
    transport_stats: HashMap<Actor, Arc<TransportStats>>,
    /// Per-server event-loop stage profiles (entries survive crashes;
    /// restarts replace them with the fresh node's profile).
    profiles: HashMap<ServerId, Arc<LoopProfile>>,
}

/// The in-process channel cluster.
///
/// The frozen `benchmark/` package compiles against exactly these items of
/// the two aliases (keep them, with these signatures, when collapsing
/// further):
///
/// - `LocalCluster::launch(config, seed, clients, concurrency) -> Self`
/// - `LocalCluster::launch_durable(config, seed, clients, concurrency, StoragePlan) -> Self`
/// - `TcpCluster::launch(config, seed, clients, concurrency) -> io::Result<Self>`
/// - on both: `client_stats`, `server_stats`, `view_of`, `live_servers`,
///   `crash_server`, `committed_chain`, `loop_profile`, `transport_totals`,
///   `total_committed`, `reset_client_latency`, `shutdown(self)`
/// - on `LocalCluster`: `storage_stats`, `reputations_at`
/// - the free items [`verify_no_fork_chains`] and [`StoragePlan::new`]
///
/// `LocalCluster` and `TcpCluster` must stay *distinct* types: the benchmark
/// writes one trait impl for each.
pub type LocalCluster = Cluster<Loopback>;

/// The cluster over real TCP sockets on `127.0.0.1`, one ephemeral port per
/// node. See [`LocalCluster`] for what `benchmark/` compiles against.
pub type TcpCluster = Cluster<Tcp>;

impl Cluster<Loopback> {
    /// Launches `config.n()` servers and `clients` closed-loop clients (each
    /// keeping `concurrency` proposals in flight) over in-process channels.
    /// All servers are correct and all links are healthy.
    pub fn launch(config: ClusterConfig, seed: u64, clients: u64, concurrency: usize) -> Self {
        Self::launch_full(config, seed, clients, concurrency, &[], None, None)
            .expect("a loopback cluster without storage performs no I/O")
    }

    /// [`Self::launch`] with a durable storage plan: every server writes its
    /// WAL under the plan's root and can be killed and restarted
    /// ([`Cluster::restart_server`]) from disk. Panics if a WAL cannot be
    /// opened.
    pub fn launch_durable(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
        storage: StoragePlan,
    ) -> Self {
        Self::launch_full(config, seed, clients, concurrency, &[], None, Some(storage))
            .expect("open and replay every server's WAL")
    }
}

impl Cluster<Tcp> {
    /// Launches `config.n()` correct servers and `clients` closed-loop
    /// clients over TCP on `127.0.0.1`.
    pub fn launch(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
    ) -> io::Result<Self> {
        Self::launch_full(config, seed, clients, concurrency, &[], None, None)
    }
}

impl<F: Fabric> Cluster<F> {
    /// The full launcher: Byzantine behaviours, chaos, and durable storage
    /// in any combination, on either fabric. Server `i` runs with
    /// `behaviors[i]` (missing entries are [`ByzantineBehavior::Correct`]);
    /// when `chaos` is given, every endpoint — servers and clients — is
    /// wrapped in a [`ChaosTransport`] controlled by it, so partitions,
    /// delay, and loss can be injected while the cluster runs; with
    /// `storage`, every server writes its WAL under the plan's root and can
    /// be killed and restarted ([`Self::restart_server`]) from disk.
    pub fn launch_full(
        config: ClusterConfig,
        seed: u64,
        clients: u64,
        concurrency: usize,
        behaviors: &[ByzantineBehavior],
        chaos: Option<NetChaos>,
        storage: Option<StoragePlan>,
    ) -> io::Result<Self> {
        let servers = (0..config.n()).map(ServerId);
        let actors: Vec<Actor> = servers
            .clone()
            .map(Actor::Server)
            .chain((0..clients).map(|c| Actor::Client(ClientId(c))))
            .collect();
        let mut cluster = Cluster {
            registry: KeyRegistry::new(seed, config.n(), clients),
            fabric: F::open(&actors)?,
            behaviors: behaviors.to_vec(),
            config,
            seed,
            chaos,
            storage,
            servers: HashMap::new(),
            clients: HashMap::new(),
            transport_stats: HashMap::new(),
            profiles: HashMap::new(),
        };
        for id in servers {
            cluster.start_server(id)?;
        }
        for id in (0..clients).map(ClientId) {
            let transport = cluster.endpoint(Actor::Client(id))?;
            let handle = spawn_client(
                id,
                &cluster.config,
                &cluster.registry,
                seed,
                concurrency,
                transport,
            );
            cluster.clients.insert(id, handle);
        }
        Ok(cluster)
    }

    /// `me`'s endpoint on the fabric, wrapped in the chaos filter when a
    /// controller is attached, with its counters recorded.
    fn endpoint(&mut self, me: Actor) -> io::Result<Box<dyn Transport<Message>>> {
        let mut transport = self.fabric.endpoint(me)?;
        if let Some(controller) = &self.chaos {
            transport = Box::new(ChaosTransport::new(
                transport,
                controller.clone(),
                self.seed,
            ));
        }
        self.transport_stats.insert(me, transport.stats());
        Ok(transport)
    }

    /// Builds server `id` (fresh, or from its WAL) and spawns it on a new
    /// endpoint — in that order, so nothing is delivered to a node still
    /// replaying its log.
    fn start_server(&mut self, id: ServerId) -> io::Result<()> {
        let (server, profile) = build_server(
            id,
            &self.config,
            &self.registry,
            self.seed,
            self.behavior_of(id),
            self.storage.as_ref(),
        )?;
        let transport = self.endpoint(Actor::Server(id))?;
        let handle = NodeHandle::spawn_instrumented(
            Box::new(server),
            transport,
            self.seed,
            Vec::new(),
            Some(Arc::clone(&profile)),
        );
        self.profiles.insert(id, profile);
        self.servers.insert(id, handle);
        Ok(())
    }

    /// The Byzantine behaviour server `id` was launched with.
    pub fn behavior_of(&self, id: ServerId) -> ByzantineBehavior {
        self.behaviors
            .get(id.0 as usize)
            .copied()
            .unwrap_or_default()
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

    /// The cluster-wide event-loop stage profile: every server's counters
    /// merged.
    pub fn loop_profile(&self) -> LoopSnapshot {
        let mut merged = LoopSnapshot::default();
        for profile in self.profiles.values() {
            merged.merge(&profile.snapshot());
        }
        merged
    }

    /// Cluster-wide transport counter sums (servers and clients). Over TCP
    /// the reactor counters (`writev_calls`, `frames_coalesced`, `read_calls`,
    /// `poll_calls`, … and [`TransportTotals::syscalls_per_frame`]) are live;
    /// on the loopback fabric they are always zero.
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
    /// `(sequence number, digest)` pairs, from the server's checkpoint
    /// horizon (genesis until its store is first pruned) to its tip.
    pub fn committed_chain(&self, id: ServerId) -> Option<Vec<(u64, Digest)>> {
        self.servers
            .get(&id)?
            .inspect_as::<PrestigeServer, _, _>(|s| s.store().chain_digests())
    }

    /// Safety check: verifies that the given servers' committed logs contain
    /// **no fork** — wherever two replicas still hold a committed block at
    /// the same sequence number, the block digests (and therefore, by
    /// chaining, the whole prefix) are identical. Lagging replicas are fine;
    /// disagreeing ones are not.
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
    /// goes away — deregistered on loopback; over TCP its listener closes and
    /// its streams break, and peers park the dead address behind reconnect
    /// backoff — exactly what a killed process looks like to the rest of the
    /// cluster.
    pub fn crash_server(&mut self, id: ServerId) {
        self.fabric.disconnect(Actor::Server(id));
        if let Some(handle) = self.servers.remove(&id) {
            let _ = handle.stop();
        }
    }

    /// Restarts a crashed server from its on-disk WAL: a **fresh**
    /// `PrestigeServer` is built, the log directory is reopened (torn tails
    /// truncated, chain verified), the surviving records are replayed into
    /// it, and the node rejoins the fabric under its old identity and
    /// address as a follower — from where the sync plane pages it forward.
    /// Panics if the server is still running. Fails on a cluster launched
    /// without a [`StoragePlan`] (a server with no log would come back
    /// promising nothing, and s0 as genesis leader of V1), when the WAL
    /// cannot be opened or, over TCP, when the recorded address cannot be
    /// bound again.
    pub fn restart_server(&mut self, id: ServerId) -> io::Result<()> {
        assert!(
            !self.servers.contains_key(&id),
            "restart_server({id:?}): crash it first"
        );
        if self.storage.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("restart_server({id:?}): the cluster has no StoragePlan to restart from"),
            ));
        }
        self.start_server(id)
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

    /// Tears the last `records` records off server `id`'s WAL — the
    /// torn-tail crash signature (a power cut mid-append). The server must
    /// be down. Returns how many records were actually torn.
    pub fn tear_wal_tail(&self, id: ServerId, records: usize) -> io::Result<usize> {
        assert!(
            !self.servers.contains_key(&id),
            "tear_wal_tail({id:?}): crash it first"
        );
        let plan = self.storage.as_ref().expect("durable cluster required");
        prestige_storage::tear_tail(&plan.server_dir(id), records)
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
) -> io::Result<NodeHandle<Message>> {
    let transport: TcpTransport<Message> =
        TcpTransport::bind(Actor::Server(id), TcpConfig::new(listen, peers))?;
    let (server, profile) = build_server(id, &config, &registry, seed, behavior, storage.as_ref())?;
    Ok(NodeHandle::spawn_instrumented(
        Box::new(server),
        Box::new(transport),
        seed,
        Vec::new(),
        Some(profile),
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
) -> io::Result<NodeHandle<Message>> {
    let transport: TcpTransport<Message> =
        TcpTransport::bind(Actor::Client(id), TcpConfig::new(listen, peers))?;
    Ok(spawn_client(
        id,
        &config,
        registry,
        seed,
        concurrency,
        Box::new(transport),
    ))
}

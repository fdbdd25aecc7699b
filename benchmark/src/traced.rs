//! The traced run's launcher: the same public constructors the stock
//! launchers use, with each layer's trait object — `Process<Message>`,
//! `Transport<Message>`, `Storage` — wrapped in a timing decorator. Every
//! per-layer number is therefore taken from outside, by timing calls into
//! public functions; no file of the program knows it is being traced.

use crate::cluster::{Cluster, CLIENT};
use crate::spec::{Fabric, Workload, PAYLOAD_BYTES};
use crate::trace::{NodeSnapshot, NodeTrace, Phase, RequestId, SpanKind};
use prestige_core::{
    ByzantineBehavior, ClientConfig, ClientStats, LoopProfile, LoopSnapshot, PrestigeClient,
    PrestigeServer, ServerStats,
};
use prestige_crypto::KeyRegistry;
use prestige_net::{
    LoopbackNet, NodeHandle, StoragePlan, TcpConfig, TcpTransport, Transport, TransportStats,
    TransportTotals,
};
use prestige_sim::{Context, Process, TimerId};
use prestige_storage::{Storage, StorageStats, Wal, WalRecordRef};
use prestige_types::{Actor, ClusterConfig, Digest, Message, ServerId, View};
use std::any::Any;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one node's decorators share.
struct NodeShared {
    trace: Mutex<NodeTrace>,
    /// When this server first showed a view above the one the killed leader
    /// led (nanoseconds since the hub's epoch; 0 = not yet).
    new_view_ns: AtomicU64,
}

impl NodeShared {
    fn trace(&self) -> std::sync::MutexGuard<'_, NodeTrace> {
        self.trace
            .lock()
            .expect("a decorator panicked while recording")
    }

    /// Times `call` into a transport or storage and records it as one span.
    fn timed<R>(
        &self,
        hub: &HubShared,
        kind: SpanKind,
        request: Option<RequestId>,
        call: impl FnOnce() -> R,
    ) -> R {
        let start = hub.now_ns();
        let result = call();
        let end = hub.now_ns();
        self.trace().leaf(kind, start, end, request, false);
        result
    }
}

/// What the whole traced cluster shares: the clock, and the view-change
/// watch the harness arms when it kills the leader.
struct HubShared {
    epoch: Instant,
    /// Kill time (0 = leader still alive).
    kill_ns: AtomicU64,
    /// The view the killed leader led.
    base_view: AtomicU64,
    /// First view-change-class message any survivor handled after the kill.
    first_view_change_ns: AtomicU64,
}

impl HubShared {
    fn now_ns(&self) -> u64 {
        // Never 0, which the watch fields read as "unset".
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }
}

/// Handle the harness keeps on a traced cluster's recorders.
pub struct TraceHub {
    shared: Arc<HubShared>,
    nodes: Mutex<Vec<(Actor, Arc<NodeShared>)>>,
}

/// Timeline of one failover as the decorators saw it, in milliseconds after
/// the kill.
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewChangeTimeline {
    /// Kill to the first view-change-class message at a survivor.
    pub detect_ms: f64,
    /// That message to the last survivor showing the new view.
    pub elect_ms: f64,
    /// Offset of that moment from the kill (the harness adds the first
    /// commit after it).
    pub installed_after_kill_ms: f64,
}

impl TraceHub {
    pub fn new() -> Self {
        TraceHub {
            shared: Arc::new(HubShared {
                epoch: Instant::now(),
                kill_ns: AtomicU64::new(0),
                base_view: AtomicU64::new(0),
                first_view_change_ns: AtomicU64::new(0),
            }),
            nodes: Mutex::new(Vec::new()),
        }
    }

    fn node(&self, actor: Actor) -> Arc<NodeShared> {
        let node = Arc::new(NodeShared {
            trace: Mutex::new(NodeTrace::new(actor)),
            new_view_ns: AtomicU64::new(0),
        });
        self.nodes
            .lock()
            .expect("hub node list")
            .push((actor, Arc::clone(&node)));
        node
    }

    /// Starts the measured span on every node.
    pub fn start_recording(&self) {
        for (_, node) in self.nodes.lock().expect("hub node list").iter() {
            node.trace().start_recording();
        }
    }

    /// Ends the measured span on every node.
    pub fn stop_recording(&self) -> Vec<NodeSnapshot> {
        self.nodes
            .lock()
            .expect("hub node list")
            .iter()
            .map(|(_, node)| node.trace().stop_recording())
            .collect()
    }

    /// Arms the view-change watch: call right before killing the leader of
    /// `view`.
    pub fn arm_kill(&self, view: View) {
        self.shared.base_view.store(view.0, Ordering::SeqCst);
        self.shared
            .kill_ns
            .store(self.shared.now_ns(), Ordering::SeqCst);
    }

    /// What the decorators of `survivors` saw of the view change, or `None`
    /// while some survivor has not shown the new view.
    pub fn view_change(&self, survivors: &[ServerId]) -> Option<ViewChangeTimeline> {
        let kill = self.shared.kill_ns.load(Ordering::SeqCst);
        let first = self.shared.first_view_change_ns.load(Ordering::SeqCst);
        if kill == 0 || first == 0 {
            return None;
        }
        let nodes = self.nodes.lock().expect("hub node list");
        let mut installed = 0;
        for id in survivors {
            let (_, node) = nodes.iter().find(|(a, _)| *a == Actor::Server(*id))?;
            let at = node.new_view_ns.load(Ordering::SeqCst);
            if at == 0 {
                return None;
            }
            installed = installed.max(at);
        }
        let ms = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e6;
        Some(ViewChangeTimeline {
            detect_ms: ms(kill, first),
            elect_ms: ms(first, installed),
            installed_after_kill_ms: ms(kill, installed),
        })
    }
}

fn kind_of(message: &Message) -> SpanKind {
    match message {
        Message::Prop { .. } => SpanKind::MsgProp,
        Message::Notif { .. } => SpanKind::MsgNotif,
        Message::Ord { .. } => SpanKind::MsgOrd,
        Message::OrdReply { .. } => SpanKind::MsgOrdReply,
        Message::Cmt { .. } | Message::PreCmt { .. } => SpanKind::MsgCmt,
        Message::CmtReply { .. } | Message::PreCmtReply { .. } => SpanKind::MsgCmtReply,
        Message::CommitBlock { .. } => SpanKind::MsgCommitBlock,
        Message::SyncReq { .. } | Message::SyncResp { .. } => SpanKind::MsgSync,
        Message::CkptShare { .. } | Message::CkptCert { .. } => SpanKind::MsgCkpt,
        // The complaint that starts failure detection and everything after
        // it, plus the penalty refresh that only follows view changes.
        Message::Compt { .. }
        | Message::ConfVC { .. }
        | Message::ReVC { .. }
        | Message::Camp { .. }
        | Message::VoteCP { .. }
        | Message::NewVcBlock { .. }
        | Message::VcYes { .. }
        | Message::NewView { .. }
        | Message::NewViewAnnounce { .. }
        | Message::Ref { .. }
        | Message::Rdone { .. } => SpanKind::MsgViewChange,
    }
}

fn request_of(message: &Message) -> Option<RequestId> {
    match message {
        Message::Ord { view, n, .. }
        | Message::OrdReply { view, n, .. }
        | Message::Cmt { view, n, .. }
        | Message::CmtReply { view, n, .. } => Some((view.0, n.0)),
        Message::CommitBlock { block, .. } => Some((block.view.0, block.n.0)),
        _ => None,
    }
}

struct TimedProcess {
    inner: Box<dyn Process<Message> + Send>,
    node: Arc<NodeShared>,
    hub: Arc<HubShared>,
}

impl TimedProcess {
    fn timed(
        &mut self,
        kind: SpanKind,
        request: Option<RequestId>,
        call: impl FnOnce(&mut dyn Process<Message>),
    ) {
        // The recorder is unlocked while the handler runs: storage calls made
        // inside it lock it again from the same thread.
        self.node
            .trace()
            .open_handler(kind, self.hub.now_ns(), request);
        call(&mut *self.inner);
        self.node.trace().close_handler(self.hub.now_ns());
    }

    /// After the kill, notes the first view-change-class message and the
    /// moment this server shows a view above the dead leader's.
    fn watch_view_change(&self) {
        if self.hub.kill_ns.load(Ordering::SeqCst) == 0 {
            return;
        }
        let now = self.hub.now_ns();
        let _ = self.hub.first_view_change_ns.compare_exchange(
            0,
            now,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if self.node.new_view_ns.load(Ordering::SeqCst) != 0 {
            return;
        }
        let Some(server) = self.inner.as_any().downcast_ref::<PrestigeServer>() else {
            return;
        };
        if server.current_view().0 > self.hub.base_view.load(Ordering::SeqCst) {
            self.node.new_view_ns.store(now, Ordering::SeqCst);
        }
    }
}

impl Process<Message> for TimedProcess {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        self.timed(SpanKind::OnStart, None, |inner| inner.on_start(ctx));
    }

    fn on_message(&mut self, from: Actor, message: Message, ctx: &mut Context<Message>) {
        let kind = kind_of(&message);
        let request = request_of(&message);
        self.timed(kind, request, |inner| inner.on_message(from, message, ctx));
        if kind == SpanKind::MsgViewChange {
            self.watch_view_change();
        }
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<Message>) {
        self.timed(SpanKind::OnTimer, None, |inner| {
            inner.on_timer(id, tag, ctx)
        });
    }

    fn on_job_complete(&mut self, token: u64, ok: bool, ctx: &mut Context<Message>) {
        self.timed(SpanKind::OnJobComplete, None, |inner| {
            inner.on_job_complete(token, ok, ctx)
        });
    }

    // Harness inspections downcast to the concrete node, so the decorator
    // steps aside.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

struct TimedTransport {
    inner: Box<dyn Transport<Message>>,
    node: Arc<NodeShared>,
    hub: Arc<HubShared>,
}

impl TimedTransport {
    fn phase_of(message: &Message) -> Option<Phase> {
        match message {
            Message::Ord { .. } => Some(Phase::Ord),
            Message::Cmt { .. } => Some(Phase::Cmt),
            Message::CommitBlock { .. } => Some(Phase::CommitBlock),
            _ => None,
        }
    }
}

impl Transport<Message> for TimedTransport {
    fn me(&self) -> Actor {
        self.inner.me()
    }

    fn send(&mut self, to: Actor, message: Message) {
        let request = request_of(&message);
        let inner = &mut self.inner;
        self.node.timed(&self.hub, SpanKind::NetSend, request, || {
            inner.send(to, message)
        });
    }

    fn broadcast(&mut self, recipients: &[Actor], message: Message) {
        let request = request_of(&message);
        let phase = Self::phase_of(&message);
        let start = self.hub.now_ns();
        // The inner broadcast, not the default fan-out: the TCP transport
        // encodes the frame once for all recipients.
        self.inner.broadcast(recipients, message);
        let end = self.hub.now_ns();
        let mut trace = self.node.trace();
        trace.leaf(SpanKind::NetBroadcast, start, end, request, false);
        if let (Some(phase), Some(request)) = (phase, request) {
            trace.hop(phase, request, start);
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(Actor, Message)> {
        let kind = if timeout.is_zero() {
            SpanKind::NetPoll
        } else {
            SpanKind::NetWait
        };
        let start = self.hub.now_ns();
        let delivery = self.inner.recv_timeout(timeout);
        let end = self.hub.now_ns();
        let request = delivery.as_ref().and_then(|(_, m)| request_of(m));
        self.node
            .trace()
            .leaf(kind, start, end, request, delivery.is_some());
        delivery
    }

    fn stats(&self) -> Arc<TransportStats> {
        self.inner.stats()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

struct TimedStorage {
    inner: Box<dyn Storage>,
    node: Arc<NodeShared>,
    hub: Arc<HubShared>,
}

impl Storage for TimedStorage {
    fn append(&mut self, record: WalRecordRef<'_>) -> std::io::Result<()> {
        let fsyncs_before = self.inner.stats().fsyncs;
        let start = self.hub.now_ns();
        let result = self.inner.append(record);
        let end = self.hub.now_ns();
        let kind = if self.inner.stats().fsyncs > fsyncs_before {
            SpanKind::StorageAppendSync
        } else {
            SpanKind::StorageAppend
        };
        self.node.trace().leaf(kind, start, end, None, false);
        result
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.node
            .timed(&self.hub, SpanKind::StorageSync, None, || inner.sync())
    }

    fn prune_below(&mut self, stable_seq: u64) -> std::io::Result<u64> {
        let inner = &mut self.inner;
        self.node
            .timed(&self.hub, SpanKind::StoragePrune, None, || {
                inner.prune_below(stable_seq)
            })
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
}

/// A 4-server, 1-client cluster with every layer decorated.
pub struct TracedCluster {
    /// Present on the loopback fabric: a crash deregisters the endpoint.
    net: Option<LoopbackNet<Message>>,
    servers: HashMap<ServerId, NodeHandle<Message>>,
    client: Option<NodeHandle<Message>>,
    transport_stats: Vec<Arc<TransportStats>>,
    profiles: Vec<Arc<LoopProfile>>,
}

/// Binds (then frees) one ephemeral port per actor, as `TcpCluster` does, so
/// every node starts with the whole address map.
fn reserve_addresses(actors: &[Actor]) -> std::io::Result<HashMap<Actor, SocketAddr>> {
    let mut reservations = Vec::new();
    let mut addrs = HashMap::new();
    for &actor in actors {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        addrs.insert(actor, listener.local_addr()?);
        reservations.push(listener);
    }
    Ok(addrs)
}

impl TracedCluster {
    pub fn launch(
        config: ClusterConfig,
        seed: u64,
        workload: &Workload,
        storage: Option<StoragePlan>,
        hub: &TraceHub,
    ) -> std::io::Result<Self> {
        let registry = KeyRegistry::new(seed, config.n(), 1);
        let server_actors: Vec<Actor> = (0..config.n())
            .map(|i| Actor::Server(ServerId(i)))
            .collect();
        let client_actor = Actor::Client(CLIENT);
        let mut all_actors = server_actors.clone();
        all_actors.push(client_actor);

        let net = (workload.fabric == Fabric::Loopback).then(LoopbackNet::<Message>::new);
        let addrs = match workload.fabric {
            Fabric::Loopback => HashMap::new(),
            Fabric::Tcp => reserve_addresses(&all_actors)?,
        };
        let mut transport_stats = Vec::new();
        let mut endpoint =
            |me: Actor, node: &Arc<NodeShared>| -> std::io::Result<Box<dyn Transport<Message>>> {
                let inner: Box<dyn Transport<Message>> = match &net {
                    Some(net) => Box::new(net.endpoint(me)),
                    None => {
                        let peers = addrs
                            .iter()
                            .filter(|(a, _)| **a != me)
                            .map(|(a, sa)| (*a, *sa))
                            .collect();
                        Box::new(TcpTransport::<Message>::bind(
                            me,
                            TcpConfig::new(addrs[&me], peers),
                        )?)
                    }
                };
                transport_stats.push(inner.stats());
                Ok(Box::new(TimedTransport {
                    inner,
                    node: Arc::clone(node),
                    hub: Arc::clone(&hub.shared),
                }))
            };

        let mut servers = HashMap::new();
        let mut profiles = Vec::new();
        for i in 0..config.n() {
            let id = ServerId(i);
            let me = Actor::Server(id);
            let node = hub.node(me);
            let transport = endpoint(me, &node)?;
            let mut server = PrestigeServer::with_behavior(
                id,
                config.clone(),
                registry.clone(),
                seed,
                ByzantineBehavior::Correct,
            );
            if let Some(plan) = &storage {
                let dir = plan.server_dir(id);
                std::fs::create_dir_all(&dir)?;
                let (wal, records) =
                    Wal::open(&dir, plan.options.clone()).map_err(std::io::Error::other)?;
                server.replay_wal(records);
                server.attach_storage(Box::new(TimedStorage {
                    inner: Box::new(wal),
                    node: Arc::clone(&node),
                    hub: Arc::clone(&hub.shared),
                }));
            }
            let profile = Arc::new(LoopProfile::default());
            server.attach_profiler(Arc::clone(&profile));
            profiles.push(Arc::clone(&profile));
            let process = TimedProcess {
                inner: Box::new(server),
                node,
                hub: Arc::clone(&hub.shared),
            };
            servers.insert(
                id,
                NodeHandle::spawn_instrumented(
                    Box::new(process),
                    transport,
                    seed,
                    Vec::new(),
                    Some(profile),
                ),
            );
        }

        let node = hub.node(client_actor);
        let transport = endpoint(client_actor, &node)?;
        // The stock launchers' refill rule: top the window up once a quarter
        // of it has drained.
        let refill = (workload.concurrency / 4).max(1);
        let client_config = ClientConfig::new(
            CLIENT,
            config.replicas.clone(),
            PAYLOAD_BYTES,
            workload.concurrency,
        )
        .with_refill_batch(refill);
        let process = TimedProcess {
            inner: Box::new(PrestigeClient::new(client_config, &registry)),
            node,
            hub: Arc::clone(&hub.shared),
        };
        let client = NodeHandle::spawn(Box::new(process), transport, seed);

        Ok(TracedCluster {
            net,
            servers,
            client: Some(client),
            transport_stats,
            profiles,
        })
    }

    fn inspect_server<R: Send + 'static>(
        &self,
        id: ServerId,
        f: impl FnOnce(&PrestigeServer) -> R + Send + 'static,
    ) -> Option<R> {
        self.servers.get(&id)?.inspect_as::<PrestigeServer, _, _>(f)
    }
}

impl Cluster for TracedCluster {
    fn total_committed(&self) -> u64 {
        self.client_stats().map_or(0, |s| s.committed_tx)
    }

    fn reset_client_latency(&self) {
        if let Some(client) = &self.client {
            let _ = client.inspect(|node| {
                if let Some(c) = node.as_any_mut().downcast_mut::<PrestigeClient>() {
                    c.reset_latency_stats();
                }
            });
        }
    }

    fn client_stats(&self) -> Option<ClientStats> {
        // The same full-stats clone per poll as the stock launchers'
        // `total_committed`, so the poller loads the client thread equally in
        // traced and untraced runs.
        self.client
            .as_ref()?
            .inspect_as::<PrestigeClient, _, _>(|c| c.stats().clone())
    }

    fn server_stats(&self, id: ServerId) -> Option<ServerStats> {
        self.inspect_server(id, |s| s.stats().clone())
    }

    fn view_of(&self, id: ServerId) -> Option<(View, ServerId)> {
        self.inspect_server(id, |s| (s.current_view(), s.current_leader()))
    }

    fn live_servers(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort();
        ids
    }

    fn crash_server(&mut self, id: ServerId) {
        if let Some(net) = &self.net {
            net.disconnect(Actor::Server(id));
        }
        if let Some(handle) = self.servers.remove(&id) {
            let _ = handle.stop();
        }
    }

    fn committed_chain(&self, id: ServerId) -> Option<Vec<(u64, Digest)>> {
        self.inspect_server(id, |s| s.store().chain_digests())
    }

    fn loop_profile(&self) -> LoopSnapshot {
        let mut merged = LoopSnapshot::default();
        for profile in &self.profiles {
            merged.merge(&profile.snapshot());
        }
        merged
    }

    fn transport_totals(&self) -> TransportTotals {
        let mut totals = TransportTotals::default();
        for stats in &self.transport_stats {
            stats.accumulate_into(&mut totals);
        }
        totals
    }

    fn storage_stats(&self, id: ServerId) -> Option<StorageStats> {
        self.inspect_server(id, |s| s.storage_stats()).flatten()
    }

    fn penalty_of(&self, at: ServerId, whom: ServerId) -> Option<i64> {
        self.inspect_server(at, move |s| s.store().current_rp(whom))
    }

    fn shutdown(mut self: Box<Self>) {
        if let Some(client) = self.client.take() {
            let _ = client.stop();
        }
        for (_, handle) in self.servers.drain() {
            let _ = handle.stop();
        }
    }
}

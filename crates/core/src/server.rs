//! The PrestigeBFT server: state, construction, and event dispatch.
//!
//! A server is one replica of the consensus group. It owns the block store
//! (state machine), the reputation engine, the pacemaker, its key material,
//! the client table (which requests it has seen and committed, per client —
//! `client_table`), and the in-flight state of both protocols. The actual
//! message handlers live in the sibling modules (`replication`,
//! `view_change`, `sync`, `refresh_proto`), all implemented as
//! `impl PrestigeServer` blocks; this module wires them into the simulator's
//! [`Process`] interface and applies the configured Byzantine behaviour at
//! the dispatch level.

use crate::client_table::ClientTable;
use crate::faults::ByzantineBehavior;
use crate::pacemaker::{timer_tags, Pacemaker};
use crate::profile::{LoopProfile, LoopStage};
use crate::storage::BlockStore;
use prestige_crypto::{
    FramedHasher, KeyPair, KeyRegistry, PowSolution, QcBuilder, ThresholdVerifier,
};
use prestige_reputation::{RefreshTracker, ReputationEngine};
use prestige_sim::{cpu_cost, Context, Process, SimTime, TimerId};
use prestige_types::{
    Actor, ClientId, ClusterConfig, Digest, Message, Proposal, QuorumCertificate, SeqNum, ServerId,
    VcBlock, View,
};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// The four server states of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ServerRole {
    /// Normal operation, following the current leader.
    #[default]
    Follower,
    /// Performing reputation-determined computation before campaigning.
    Redeemer,
    /// Campaigning: collecting election votes.
    Candidate,
    /// Leading the current view.
    Leader,
}

/// Counters and series exported to the experiment harness.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Transactions committed by this server.
    pub committed_tx: u64,
    /// txBlocks committed by this server.
    pub committed_blocks: u64,
    /// vcBlocks installed (views entered), excluding genesis.
    pub views_installed: u64,
    /// Elections this server won.
    pub elections_won: u64,
    /// Campaigns this server started (redeemer transitions).
    pub campaigns_started: u64,
    /// Campaigns that timed out without a winner visible to this candidate
    /// (split votes / lost elections), counted at this server.
    pub election_timeouts: u64,
    /// Total simulated milliseconds spent solving reputation puzzles.
    pub pow_ms_total: f64,
    /// View changes this server confirmed (conf_QC formed).
    pub view_changes_confirmed: u64,
    /// Commit log for time series: (simulated ms, transactions in the block).
    pub commit_log: Vec<(f64, u64)>,
    /// Per-campaign log: (simulated ms at campaign start, rp used, pow ms).
    pub campaign_log: Vec<(f64, i64, f64)>,
    /// Replication messages dropped because a cryptographic check failed: a
    /// forged `Ord` signature, a batch that does not hash to its digest, a
    /// bad quorum share, or a bad QC in a `Cmt` / `CommitBlock`.
    pub verify_rejected: u64,
    /// QC verifications skipped because the certificate was already verified
    /// (memo cache hit, e.g. an ordering QC seen via `Cmt` and again inside
    /// the `CommitBlock`).
    pub qc_cache_hits: u64,
    /// Sync requests this server sent through the rate-limited repair path.
    pub sync_reqs_sent: u64,
    /// Sync requests this server refused to serve because the requester
    /// exceeded the per-peer rate limit.
    pub sync_throttled: u64,
    /// Campaigns refused because the certified tip claim did not check out
    /// (missing/short certificate, stale certificate view, forged QC, or an
    /// uncertified committed-tip claim).
    pub camp_cert_refusals: u64,
    /// `Ord` messages refused because the batch re-assigned an
    /// already-committed transaction (the Byzantine double-assign check).
    pub double_assign_refused: u64,
    /// Transactions whose `status` was forced to `false` at apply time
    /// because they had already committed in an earlier block (the
    /// execution-layer half of the double-assign defense).
    pub duplicate_tx_suppressed: u64,
    /// Stable checkpoints this server installed (own quorum or adopted cert).
    pub checkpoints_formed: u64,
    /// Request numbers retired below a client's committed floor in the
    /// client table (64 per bitmap word that filled, the distance moved when
    /// a window slid): they no longer occupy state and read as committed for
    /// ever. About one per committed transaction in steady state.
    pub gc_pruned_keys: u64,
    /// Election messages (`Camp` / `NewVcBlock`) re-broadcast by the repair
    /// timer because the view change stalled without visible progress.
    pub election_retransmits: u64,
    /// In-flight replication instances re-broadcast (`Ord` or `Cmt`) by the
    /// batch timer because their quorum stalled past the retransmit interval
    /// with no share arrivals in the meantime.
    pub instance_retransmits: u64,
}

/// What this server holds for one uncommitted instance — the state a
/// campaign proves and criterion C3 checks candidates against. A record
/// exists only above the committed tip: applying block `n` removes record
/// `n`, proof and all.
#[derive(Debug, Clone, Default)]
pub(crate) struct Instance {
    /// This view's phase-1 acknowledgement. It keeps the very batch it
    /// hashed, because `batch` below can be replaced by sync repair.
    pub(crate) ack: Option<OrderedAck>,
    /// The ordered batch, a shared handle to the `Ord` payload, kept so a
    /// later leader can re-propose it if the instance never commits —
    /// materialized into `pending_proposals` only on the rare view change.
    pub(crate) batch: Option<Arc<Vec<Proposal>>>,
    /// The ordering QC, the highest ordering view seen. With `batch` it
    /// makes the instance provable: campaign tip claims and sync answers
    /// use only instances holding both.
    pub(crate) ord_qc: Option<QuorumCertificate>,
    /// The view of the ordering QC this server commit-signed. A candidate's
    /// tip certificate must cover the instance at least this fresh.
    pub(crate) signed: Option<View>,
    /// The commit-certified block, received ahead of its predecessors and
    /// waiting for them so the digest chain is identical on every replica,
    /// beside its keys digest.
    pub(crate) parked: Option<(Arc<prestige_types::TxBlock>, Digest)>,
}

impl Instance {
    /// Whether this server can prove the instance: it holds both the
    /// ordering QC and a batch (the QC alone cannot be re-proposed).
    pub(crate) fn provable(&self) -> bool {
        self.ord_qc.is_some() && self.batch.is_some()
    }
}

/// A follower's phase-1 acknowledgement of one instance.
#[derive(Debug, Clone)]
pub(crate) struct OrderedAck {
    /// The ordering digest this follower signed a share over.
    pub(crate) digest: Digest,
    /// The keys digest of `batch`, the input `digest` was built on.
    pub(crate) keys: Digest,
    /// The batch hashed to `digest`, shared with the `Ord` message.
    pub(crate) batch: Arc<Vec<Proposal>>,
}

/// A leader's in-flight replication instance (one per sequence number).
#[derive(Debug, Clone)]
pub(crate) struct InflightInstance {
    pub(crate) view: View,
    /// The ordered batch, shared with the broadcast `Ord` message.
    pub(crate) batch: Arc<Vec<Proposal>>,
    /// The batch's keys digest, hashed once at proposal time; the ordering
    /// digest below is built on it, and the commit links the block into the
    /// chain with it.
    pub(crate) keys: Digest,
    pub(crate) digest: Digest,
    pub(crate) ordering_builder: QcBuilder,
    pub(crate) ordering_qc: Option<QuorumCertificate>,
    pub(crate) commit_builder: Option<QcBuilder>,
    /// When this instance's phase message (`Ord`, then `Cmt`) was last
    /// broadcast (ms). An instance whose quorum stalls past the retransmit
    /// interval is re-broadcast by the batch timer — the recovery path for
    /// protocol messages lost to backpressure or a healed partition, without
    /// which a full pipeline window can wedge a comeback leader forever.
    pub(crate) last_sent_ms: f64,
    /// When a quorum share for this instance last *arrived* (ms). The
    /// retransmit gate measures staleness from
    /// `max(last_sent_ms, last_progress_ms)`: an instance whose quorum is
    /// still filling in is making progress and must not be re-broadcast —
    /// healthy-path retransmits double network load exactly when the cluster
    /// is busiest and were the dominant p99 contributor at peak throughput.
    pub(crate) last_progress_ms: f64,
}

/// The state a server keeps while campaigning (redeemer / candidate).
#[derive(Debug, Clone)]
pub(crate) struct CampaignState {
    /// The view the campaign was started from.
    pub(crate) old_view: View,
    /// The view being campaigned for (`V'`).
    pub(crate) new_view: View,
    /// The reputation penalty computed for the campaign.
    pub(crate) rp: i64,
    /// The compensation index computed for the campaign.
    pub(crate) ci: u64,
    /// The confirmation QC justifying the view change (None for
    /// policy-triggered rotations).
    pub(crate) conf_qc: Option<QuorumCertificate>,
    /// The puzzle solution, available once the redeemer finishes.
    pub(crate) solution: Option<PowSolution>,
    /// The election vote collector (candidate phase).
    pub(crate) vote_builder: Option<QcBuilder>,
    /// The latest txBlock digest the campaign is bound to.
    pub(crate) tx_digest: Digest,
    /// The latest committed sequence number at campaign time.
    pub(crate) tx_seq: SeqNum,
    /// The *certified* contiguous ordered tip at campaign time (criterion C3
    /// claim — every instance in `(tx_seq, ord_seq]` is backed by an entry
    /// of `tip_cert`).
    pub(crate) ord_seq: SeqNum,
    /// Proof of `tx_seq`: the commit QC of the latest committed block
    /// (`None` only at genesis).
    pub(crate) commit_cert: Option<QuorumCertificate>,
    /// Proof of `ord_seq`: ordering QCs for `(tx_seq, ord_seq]`, ascending.
    pub(crate) tip_cert: Vec<QuorumCertificate>,
}

/// One PrestigeBFT replica.
pub struct PrestigeServer {
    pub(crate) id: ServerId,
    pub(crate) config: ClusterConfig,
    pub(crate) registry: Arc<KeyRegistry>,
    pub(crate) keypair: KeyPair,
    pub(crate) behavior: ByzantineBehavior,
    pub(crate) pacemaker: Pacemaker,
    pub(crate) engine: ReputationEngine,
    pub(crate) store: BlockStore,
    pub(crate) role: ServerRole,

    // --- replication state ---
    /// Proposals received but not yet ordered (leader side).
    pub(crate) pending_proposals: Vec<Proposal>,
    /// Per client, which request numbers this server has seen (pooled,
    /// ordered or committed — the proposal dedup) and which have committed
    /// in some block. Followers refuse to acknowledge an `Ord` that
    /// re-assigns a committed request (unless it is the verbatim re-proposal
    /// of an instance they already hold), and the apply path marks any
    /// racing duplicate `status = false` — together the two layers close the
    /// Byzantine double-assign avenue. Bounded per client, independent of
    /// history and of checkpoints (ATTACKS.md).
    pub(crate) clients: ClientTable,
    /// The next sequence number a leader will assign.
    pub(crate) next_seq: SeqNum,
    /// Leader-side in-flight instances keyed by sequence number.
    pub(crate) inflight: BTreeMap<u64, InflightInstance>,
    /// One record per uncommitted instance this server holds anything for,
    /// keyed by sequence number.
    pub(crate) instances: BTreeMap<u64, Instance>,
    /// Keys of transactions known *only* through an ordered batch (never via
    /// a client `Prop`, never committed). Commits prune it — by key, in any
    /// block — so view-change materialization cannot re-propose a
    /// transaction that already committed under a different sequence number.
    pub(crate) ordered_only_keys: BTreeSet<(ClientId, u64)>,
    /// Highest sequence number this server has sent a `CmtReply` for. A
    /// commit share enables a commit QC the leader may assemble without this
    /// server ever seeing the resulting `CommitBlock` (crash, partition), so
    /// criterion C3 refuses election votes to candidates whose ordered state
    /// does not cover this point — the quorum-intersection guarantee that an
    /// elected leader can re-propose every possibly-committed instance at
    /// its original sequence number. Monotonic; never reset.
    pub(crate) signed_commit_tip: u64,
    /// Requester-side rate limiting: last time (ms) a `SyncReq` was sent.
    pub(crate) last_sync_req_ms: f64,
    /// Server-side rate limiting: peer → last time (ms) it was sent a sync
    /// answer, bounding how often any one peer can make this server
    /// assemble sync payloads.
    pub(crate) sync_served_ms: BTreeMap<Actor, f64>,
    /// Receive-side rate limiting: peer → last time (ms) ordered entries
    /// from it were accepted for hashing.
    pub(crate) ordered_recv_ms: BTreeMap<Actor, f64>,
    /// Rotating cursor over peers for repair-timer sync requests, so a dead
    /// or partitioned leader does not absorb every repair attempt.
    pub(crate) sync_peer_cursor: usize,
    /// Committed tip observed at the last repair-timer tick; repair requests
    /// fire only when the tip has not moved for a full interval.
    pub(crate) last_repair_tip: u64,
    /// Whether the leader batch timer is armed.
    pub(crate) batch_timer_armed: bool,

    // --- verification state ---
    /// Memo cache of already-verified quorum certificates, keyed by
    /// statement/threshold/aggregate, so a certificate seen via `Cmt` and
    /// again via `CommitBlock` — or re-received through sync — is verified
    /// once.
    pub(crate) verified_qcs: BTreeSet<[u8; 32]>,
    /// FIFO eviction order bounding the memo cache.
    pub(crate) verified_qcs_order: VecDeque<[u8; 32]>,

    /// Stage profiler of the driving runtime, when attached: protocol-side
    /// sub-spans (inline verify, apply, storage append) report through it.
    /// `None` — the simulator and unprofiled runs — records nothing.
    pub(crate) profiler: Option<Arc<LoopProfile>>,

    // --- view-change state ---
    /// Views this server has voted in (criterion C1).
    pub(crate) voted_views: BTreeSet<u64>,
    /// Relayed complaints awaiting leader action, keyed by transaction key.
    pub(crate) complaints: BTreeMap<(ClientId, u64), View>,
    /// Collector of ReVC replies for the ConfVC this server broadcast, by view.
    pub(crate) confvc_builders: BTreeMap<u64, QcBuilder>,
    /// Active campaign (redeemer or candidate phase).
    pub(crate) campaign: Option<CampaignState>,
    /// Leader-elect state: the vcBlock being installed and its vcYes collector.
    pub(crate) pending_vc_block: Option<(VcBlock, QcBuilder)>,
    /// Timers for relayed complaints: timer id → transaction key.
    pub(crate) complaint_timers: BTreeMap<TimerId, (ClientId, u64)>,
    /// Timers for ConfVC collection: timer id → view.
    pub(crate) confvc_timers: BTreeMap<TimerId, u64>,
    /// The current election timer (candidate phase).
    pub(crate) election_timer: Option<TimerId>,
    /// The current PoW completion timer (redeemer phase).
    pub(crate) pow_timer: Option<TimerId>,
    /// Simulated time at which the current view was installed (ms).
    pub(crate) view_installed_at_ms: f64,
    /// Whether this server already initiated a policy rotation for the
    /// current view.
    pub(crate) policy_rotation_started: bool,
    /// Set once a policy rotation is due: replication in the current view is
    /// quiesced (no new batches, no ordering/commit replies) so candidates
    /// campaign against a stable log (§4.2.2 "stop replication in V").
    pub(crate) rotation_pending: bool,

    // --- durability & checkpoint state ---
    /// The write-ahead log this server records durable events through;
    /// `None` runs fully in-memory (the deterministic simulator default).
    pub(crate) storage: Option<Box<dyn prestige_storage::Storage>>,
    /// Checkpoint-share collectors keyed by checkpoint sequence number.
    pub(crate) ckpt_builders: BTreeMap<u64, QcBuilder>,
    /// The highest stable (quorum-certified) checkpoint sequence number.
    pub(crate) stable_checkpoint: u64,
    /// The certificate behind `stable_checkpoint`, served to far-behind
    /// peers in sync answers.
    pub(crate) stable_ckpt_cert: Option<QuorumCertificate>,
    /// The vote this server cast per campaigned view (criterion C1 record):
    /// view → (candidate, share). Lets the election-retransmission path
    /// re-send the *same* vote idempotently when a candidate re-broadcasts a
    /// `Camp` whose original `VoteCP` was lost, without ever double-voting.
    pub(crate) cast_votes: BTreeMap<u64, (ServerId, prestige_types::PartialSig)>,

    // --- refresh state ---
    pub(crate) refresh_tracker: RefreshTracker,
    pub(crate) refresh_builder: Option<QcBuilder>,

    // --- bookkeeping ---
    pub(crate) stats: ServerStats,
}

impl PrestigeServer {
    /// Creates a correct server.
    pub fn new(
        id: ServerId,
        config: ClusterConfig,
        registry: KeyRegistry,
        seed_unused: u64,
    ) -> Self {
        Self::with_behavior(
            id,
            config,
            registry,
            seed_unused,
            ByzantineBehavior::Correct,
        )
    }

    /// Creates a server with an explicit Byzantine behaviour.
    pub fn with_behavior(
        id: ServerId,
        config: ClusterConfig,
        registry: KeyRegistry,
        _seed: u64,
        behavior: ByzantineBehavior,
    ) -> Self {
        let keypair = registry
            .key_of(Actor::Server(id))
            .expect("server key must be registered")
            .clone();
        let mut pacemaker = Pacemaker::new(config.timeouts.clone(), config.policy);
        if behavior.mimics_timeouts() {
            pacemaker.set_deterministic_timeout(true);
        }
        let store = BlockStore::new(config.n());
        let refresh_tracker = RefreshTracker::new(config.f());
        PrestigeServer {
            id,
            config,
            registry: Arc::new(registry),
            keypair,
            behavior,
            pacemaker,
            engine: ReputationEngine,
            store,
            role: if id == ServerId(0) {
                // S1 leads the initial view V1 (matching the paper's Figure 1).
                ServerRole::Leader
            } else {
                ServerRole::Follower
            },
            pending_proposals: Vec::new(),
            clients: ClientTable::default(),
            next_seq: SeqNum(1),
            inflight: BTreeMap::new(),
            instances: BTreeMap::new(),
            ordered_only_keys: BTreeSet::new(),
            signed_commit_tip: 0,
            last_sync_req_ms: f64::NEG_INFINITY,
            sync_served_ms: BTreeMap::new(),
            ordered_recv_ms: BTreeMap::new(),
            sync_peer_cursor: 0,
            last_repair_tip: 0,
            batch_timer_armed: false,
            verified_qcs: BTreeSet::new(),
            verified_qcs_order: VecDeque::new(),
            profiler: None,
            voted_views: BTreeSet::new(),
            complaints: BTreeMap::new(),
            confvc_builders: BTreeMap::new(),
            campaign: None,
            pending_vc_block: None,
            complaint_timers: BTreeMap::new(),
            confvc_timers: BTreeMap::new(),
            election_timer: None,
            pow_timer: None,
            view_installed_at_ms: 0.0,
            policy_rotation_started: false,
            rotation_pending: false,
            storage: None,
            ckpt_builders: BTreeMap::new(),
            stable_checkpoint: 0,
            stable_ckpt_cert: None,
            cast_votes: BTreeMap::new(),
            refresh_tracker,
            refresh_builder: None,
            stats: ServerStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors used by harnesses and tests
    // ------------------------------------------------------------------

    /// This server's identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// This server's current role.
    pub fn role(&self) -> ServerRole {
        self.role
    }

    /// This server's configured Byzantine behaviour.
    pub fn behavior(&self) -> ByzantineBehavior {
        self.behavior
    }

    /// The server's block store (committed state).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Execution statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The view this server currently operates in.
    pub fn current_view(&self) -> View {
        self.store.current_view()
    }

    /// The server's own reputation penalty in the current view.
    pub fn current_rp(&self) -> i64 {
        self.store.current_rp(self.id)
    }

    /// The leader of the current view according to the latest vcBlock.
    pub fn current_leader(&self) -> ServerId {
        self.store.latest_vc_block().leader_id
    }

    /// The highest instance this server has contributed a commit share to —
    /// the committed half of its criterion-C3 voting floor. Exposed for the
    /// falsification harness's monotonicity invariant.
    pub fn signed_commit_tip(&self) -> u64 {
        self.signed_commit_tip
    }

    /// The certified ordered tip: the highest sequence number reachable from
    /// the committed tip through instances this server holds proof of — both
    /// an ordering QC and the batch, or a whole commit-certified block parked
    /// in the reorder buffer awaiting in-order apply (commit-QC assembly
    /// consumes the ordering entries before predecessors land, so a bare
    /// `certified_ord_tip` scan transiently dips at that gap). Exposed for
    /// the falsification harness's monotonicity invariant, which holds
    /// *within a view*: an election may legally orphan certified instances
    /// beyond a contiguity gap back to the proposal pool.
    pub fn certified_tip(&self) -> SeqNum {
        self.tip_through(|r| Instance::provable(r) || r.parked.is_some())
    }

    /// The highest sequence number reachable from the committed tip through
    /// consecutive instance records that all satisfy `holds`.
    pub(crate) fn tip_through(&self, holds: impl Fn(&Instance) -> bool) -> SeqNum {
        let mut tip = self.store.latest_seq().0;
        for (&n, record) in self.instances.range(tip + 1..) {
            if n != tip + 1 || !holds(record) {
                break;
            }
            tip = n;
        }
        SeqNum(tip)
    }

    /// Bitmap words the client table holds (request dedup and the committed
    /// ledger, all clients). Exposed for the falsification harness's
    /// bounded-state invariant.
    pub fn dedup_words(&self) -> usize {
        self.clients.words()
    }

    /// Whether this server believes it is the current leader.
    pub fn is_leader(&self) -> bool {
        self.role == ServerRole::Leader
    }

    /// One-line snapshot of the live replication/view-change state, for
    /// harness failure diagnostics (`chaos_net` prints it when a scenario
    /// assertion fails).
    pub fn debug_snapshot(&self) -> String {
        let holding = |holds: fn(&Instance) -> bool| -> Vec<u64> {
            let records = self.instances.iter();
            records.filter(|(_, r)| holds(r)).map(|(n, _)| *n).collect()
        };
        format!(
            "role={:?} view={} leader=s{} tip={} next_seq={} inflight={:?} pending_props={} \
             ordered={:?} certified={:?} parked_commits={:?} signed_tip={} signed_info={:?} \
             rotation_pending={} campaign={:?}",
            self.role,
            self.store.current_view().0,
            self.current_leader().0,
            self.store.latest_seq().0,
            self.next_seq.0,
            self.inflight.keys().collect::<Vec<_>>(),
            self.pending_proposals.len(),
            holding(|r| r.batch.is_some()),
            holding(|r| r.ord_qc.is_some()),
            holding(|r| r.parked.is_some()),
            self.signed_commit_tip,
            holding(|r| r.signed.is_some()),
            self.rotation_pending,
            self.campaign.as_ref().map(|c| (c.new_view.0, c.rp)),
        )
    }

    // ------------------------------------------------------------------
    // Shared helpers for the protocol modules
    // ------------------------------------------------------------------

    /// All server actors except this one.
    pub(crate) fn other_servers(&self) -> Vec<Actor> {
        self.config
            .replicas
            .servers()
            .filter(|s| *s != self.id)
            .map(Actor::Server)
            .collect()
    }

    /// Signs an arbitrary byte string with this server's key.
    pub(crate) fn sign(&self, message: &[u8]) -> [u8; 32] {
        self.keypair.sign(message)
    }

    /// Charges the per-message processing cost to this node.
    pub(crate) fn charge_message_cost(&self, ctx: &mut Context<Message>) {
        ctx.charge_cpu_ms(cpu_cost::PER_MESSAGE_MS);
    }

    /// Charges the cost of one signature / QC verification.
    pub(crate) fn charge_verify_cost(&self, ctx: &mut Context<Message>) {
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
    }

    /// Attaches the driving runtime's stage profiler so protocol-side
    /// sub-spans (inline verify, apply, storage append) report their self
    /// time to the right buckets. Never called by the simulator.
    pub fn attach_profiler(&mut self, profile: Arc<LoopProfile>) {
        self.profiler = Some(profile);
    }

    // ------------------------------------------------------------------
    // QC memoization
    // ------------------------------------------------------------------

    /// Memo key of a quorum certificate: statement + required threshold +
    /// aggregate. Including the aggregate pins the *exact* certificate, so a
    /// forged twin of a memoized statement can never ride the cache; including
    /// the threshold keeps a certificate checked at `f+1` from satisfying a
    /// later `2f+1` check.
    pub(crate) fn qc_memo_key(qc: &QuorumCertificate, threshold: u32) -> [u8; 32] {
        let mut h = FramedHasher::new();
        h.field(&prestige_crypto::qc_statement(
            qc.kind, qc.view, qc.seq, &qc.digest,
        ))
        .field(&threshold.to_be_bytes())
        .field(&qc.aggregate);
        h.finish().0
    }

    /// Bound on the QC memo cache (FIFO eviction). Large enough to cover every
    /// certificate live in a deep pipeline plus sync bursts, small enough to
    /// be irrelevant for memory.
    const QC_MEMO_CAPACITY: usize = 8192;

    /// Records a certificate as verified.
    pub(crate) fn memoize_qc(&mut self, key: [u8; 32]) {
        if self.verified_qcs.insert(key) {
            self.verified_qcs_order.push_back(key);
            if self.verified_qcs_order.len() > Self::QC_MEMO_CAPACITY {
                if let Some(evicted) = self.verified_qcs_order.pop_front() {
                    self.verified_qcs.remove(&evicted);
                }
            }
        }
    }

    /// Verifies a QC, consulting the memo cache first. Charges the
    /// verification CPU cost only when the certificate is actually verified,
    /// and counts a failed check in `verify_rejected`.
    pub(crate) fn verify_qc_cached(
        &mut self,
        qc: &QuorumCertificate,
        threshold: u32,
        ctx: &mut Context<Message>,
    ) -> bool {
        let key = Self::qc_memo_key(qc, threshold);
        if self.verified_qcs.contains(&key) {
            self.stats.qc_cache_hits += 1;
            return true;
        }
        self.charge_verify_cost(ctx);
        let span = LoopProfile::begin(&self.profiler);
        let ok = ThresholdVerifier::new(&self.registry)
            .verify(qc, threshold)
            .is_ok();
        LoopProfile::end_sub(&self.profiler, span, LoopStage::InlineVerify);
        if ok {
            self.memoize_qc(key);
        } else {
            self.stats.verify_rejected += 1;
        }
        ok
    }

    /// The candidate-freshness claim of criterion C3: the highest sequence
    /// number reachable from the committed tip through contiguously held
    /// ordered batches. Everything up to this point can be re-proposed *at
    /// its original sequence number* should this server be elected, which is
    /// what preserves instances that may have gathered a commit QC at a
    /// leader this server can no longer reach.
    pub(crate) fn ordered_contiguous_tip(&self) -> SeqNum {
        self.tip_through(|r| r.batch.is_some())
    }

    /// Records installation of a new view in local bookkeeping (role, timers,
    /// per-view vote bookkeeping, statistics).
    pub(crate) fn note_view_installed(&mut self, ctx: &mut Context<Message>, leader: ServerId) {
        self.stats.views_installed += 1;
        self.view_installed_at_ms = ctx.now().as_ms();
        self.policy_rotation_started = false;
        self.rotation_pending = false;
        self.campaign = None;
        self.pending_vc_block = None;
        self.election_timer = None;
        self.pow_timer = None;
        self.confvc_builders.clear();
        self.inflight.clear();
        // Acknowledgements are per view. Everything else an instance record
        // holds survives the view change keyed by its sequence number (shared
        // handles — no copies): it backs future C3 freshness claims, and an
        // elected leader re-proposes its contiguous prefix *at the original
        // sequence numbers* below.
        for record in self.instances.values_mut() {
            record.ack = None;
        }
        if leader == self.id {
            self.role = ServerRole::Leader;
            // Canary mutation (vopr mutation-score gate): pre-PR 4
            // leadership — ordered-but-uncommitted instances are discarded
            // and proposing restarts at the committed tip, so an instance
            // that gathered a commit QC at the unreachable old leader gets
            // refilled with fresh content at the same sequence number.
            #[cfg(feature = "canary-c3-fork")]
            {
                for record in self.instances.values_mut() {
                    record.batch = None;
                    record.ord_qc = None;
                }
                self.next_seq = self.store.latest_seq().next();
            }
            #[cfg(not(feature = "canary-c3-fork"))]
            self.preserve_ordered_instances(ctx);
            self.arm_batch_timer(ctx);
        } else {
            self.role = ServerRole::Follower;
        }
        self.arm_policy_timer(ctx);
        // Prune vote bookkeeping for long-dead views to bound memory.
        let current = self.store.current_view().0;
        self.voted_views.retain(|v| *v + 64 >= current);
        self.cast_votes.retain(|v, _| *v + 64 >= current);
    }

    /// The elected-leader half of [`Self::note_view_installed`]:
    /// committed-instance preservation plus proposal-pool hygiene.
    #[cfg_attr(feature = "canary-c3-fork", allow(dead_code))]
    fn preserve_ordered_instances(&mut self, ctx: &mut Context<Message>) {
        // Committed-instance preservation: re-propose the contiguous
        // ordered prefix at its original sequence numbers in the new
        // view. Criterion C3 guarantees this prefix covers every
        // instance a commit QC may exist for, so no replica that already
        // committed one of them can ever diverge from the new chain.
        let tip = self.ordered_contiguous_tip().0;
        let preserved: Vec<(u64, Arc<Vec<Proposal>>)> = self
            .instances
            .range(..=tip)
            .filter_map(|(n, r)| Some((*n, Arc::clone(r.batch.as_ref()?))))
            .collect();
        // Instances beyond a gap cannot be re-proposed in place (their
        // predecessors are unknown here), and C3 proves no commit QC can
        // exist for them — their transactions return to the proposal
        // pool under the usual dedup, to be batched at fresh sequence
        // numbers. The orphans' certificates go with them: winning the
        // election proved nothing beyond `tip` possibly committed, and a
        // stale QC pin left behind would make this server (as a future
        // follower) refuse another leader's legitimate fresh content at
        // those sequence numbers.
        let orphans: Vec<Arc<Vec<Proposal>>> = self
            .instances
            .range_mut(tip + 1..)
            .filter_map(|(_, r)| {
                r.ord_qc = None;
                r.batch.take()
            })
            .collect();
        if !orphans.is_empty() {
            let mut pending_keys: BTreeSet<(ClientId, u64)> =
                self.pending_proposals.iter().map(|p| p.tx.key()).collect();
            for batch in orphans {
                for proposal in batch.iter() {
                    let key = proposal.tx.key();
                    // `remove`: the transaction is now in the proposal
                    // pool, no longer known *only* through an ordered
                    // batch — keeping the set consistent with the batches
                    // actually retained bounds its growth.
                    if self.ordered_only_keys.remove(&key) && pending_keys.insert(key) {
                        self.pending_proposals.push(proposal.clone());
                    }
                }
            }
        }
        // Purge the proposal pool of every transaction already scheduled
        // inside a preserved instance: as a follower this server pooled
        // all client proposals, including the ones the old leader had in
        // flight, and flushing them into a fresh batch while the
        // re-proposal commits them would assign one transaction to two
        // sequence numbers. (Before the double-assign cross-check made
        // followers refuse such batches, this path silently committed
        // the duplicates — the behaviour `canary-double-commit`
        // re-introduces for the vopr mutation-score gate.)
        #[cfg(not(feature = "canary-double-commit"))]
        if !preserved.is_empty() && !self.pending_proposals.is_empty() {
            let scheduled: BTreeSet<(ClientId, u64)> = preserved
                .iter()
                .flat_map(|(_, batch)| batch.iter().map(|p| p.tx.key()))
                .collect();
            self.pending_proposals
                .retain(|p| !scheduled.contains(&p.tx.key()));
        }
        self.next_seq = SeqNum(tip).next();
        for (n, batch) in preserved {
            self.propose_batch_at(SeqNum(n), batch, ctx);
        }
    }

    /// Arms the leader's batch flush timer if not already armed.
    pub(crate) fn arm_batch_timer(&mut self, ctx: &mut Context<Message>) {
        if self.role == ServerRole::Leader && !self.behavior.silent_as_leader() {
            ctx.set_timer(self.pacemaker.batch_interval(), timer_tags::BATCH);
            self.batch_timer_armed = true;
        }
    }

    /// Arms the policy rotation timer, if a timing policy is configured.
    pub(crate) fn arm_policy_timer(&mut self, ctx: &mut Context<Message>) {
        if let Some(interval) = self.pacemaker.rotation_interval() {
            ctx.set_timer(interval, timer_tags::POLICY);
        }
    }

    /// Whether the timing policy currently justifies a rotation (used to
    /// accept campaigns that carry no confirmation QC).
    pub(crate) fn rotation_due(&self, now: SimTime) -> bool {
        match self.pacemaker.rotation_interval() {
            Some(interval) => now.as_ms() - self.view_installed_at_ms >= interval.as_ms() * 0.9,
            None => false,
        }
    }
}

impl Process<Message> for PrestigeServer {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        self.view_installed_at_ms = ctx.now().as_ms();
        if self.role == ServerRole::Leader {
            self.arm_batch_timer(ctx);
        }
        self.arm_policy_timer(ctx);
        self.arm_sync_repair_timer(ctx);
        if self.behavior.attacks_view_changes() {
            let period =
                prestige_sim::SimDuration::from_ms(self.pacemaker.timeouts().base_timeout_ms);
            ctx.set_timer(period, timer_tags::ATTACK);
        }
    }

    fn on_message(&mut self, from: Actor, message: Message, ctx: &mut Context<Message>) {
        // F2 quiet servers ignore everything.
        if self.behavior.silent_as_follower() {
            return;
        }
        self.charge_message_cost(ctx);
        match message {
            // Client interaction & replication.
            Message::Prop {
                proposals,
                client_sig,
            } => self.handle_prop(from, proposals, client_sig, ctx),
            Message::Ord {
                view,
                n,
                batch,
                digest,
                sig,
            } => self.handle_ord(from, view, n, batch, digest, sig, ctx),
            Message::OrdReply {
                view,
                n,
                digest,
                share,
            } => self.handle_ord_reply(view, n, digest, share, ctx),
            Message::Cmt {
                view,
                n,
                ordering_qc,
                sig,
            } => self.handle_cmt(from, view, n, ordering_qc, sig, ctx),
            Message::CmtReply {
                view,
                n,
                digest,
                share,
            } => self.handle_cmt_reply(view, n, digest, share, ctx),
            Message::CommitBlock { block, sig } => self.handle_commit_block(from, block, sig, ctx),
            // Notifications are client-bound; a server receiving one ignores it.
            Message::Notif { .. } => {}
            // Baseline-protocol messages are not part of PrestigeBFT.
            Message::PreCmt { .. }
            | Message::PreCmtReply { .. }
            | Message::NewView { .. }
            | Message::NewViewAnnounce { .. } => {}

            // View change.
            Message::Compt {
                proposal,
                client_sig,
            } => self.handle_compt(from, proposal, client_sig, ctx),
            Message::ConfVC { view, tx_key, sig } => {
                self.handle_conf_vc(from, view, tx_key, sig, ctx)
            }
            Message::ReVC {
                view,
                tx_key,
                share,
            } => self.handle_re_vc(view, tx_key, share, ctx),
            Message::Camp {
                conf_qc,
                view,
                new_view,
                rp,
                ci,
                nonce,
                hash_result,
                latest_seq,
                latest_ord_seq,
                commit_cert,
                tip_cert,
                latest_tx_digest,
                sig,
            } => self.handle_camp(
                from,
                crate::view_change::CampClaims {
                    conf_qc,
                    view,
                    new_view,
                    rp,
                    ci,
                    nonce,
                    hash_result,
                    latest_seq,
                    latest_ord_seq,
                    commit_cert,
                    tip_cert,
                    latest_tx_digest,
                    sig,
                },
                ctx,
            ),
            Message::VoteCP {
                new_view,
                candidate,
                share,
            } => self.handle_vote_cp(new_view, candidate, share, ctx),
            Message::NewVcBlock { block, sig } => self.handle_new_vc_block(from, block, sig, ctx),
            Message::VcYes {
                view,
                digest,
                share,
            } => self.handle_vc_yes(view, digest, share, ctx),

            // Refresh. A `Ref` naming this server is an endorsement of its own
            // pending refresh; any other `Ref` is a request to endorse.
            Message::Ref {
                view,
                server,
                share,
            } => {
                if server == self.id {
                    self.handle_refresh_endorsement(view, share, ctx)
                } else {
                    self.handle_ref(view, server, share, ctx)
                }
            }
            Message::Rdone {
                view,
                server,
                rs_qc,
                rp,
                ci,
                sig,
            } => self.handle_rdone(view, server, rs_qc, rp, ci, sig, ctx),

            // Checkpoints.
            Message::CkptShare {
                n,
                view: _,
                digest,
                share,
            } => self.handle_ckpt_share(n, digest, share, ctx),
            Message::CkptCert { cert } => self.handle_ckpt_cert(cert, ctx),

            // Sync.
            Message::SyncReq { view, from: lo, to } => self.serve_sync(from, view, lo, to, ctx),
            Message::SyncResp {
                vc_blocks,
                tx_blocks,
                ordered,
                ckpt,
            } => self.handle_sync_resp(from, vc_blocks, tx_blocks, ordered, ckpt, ctx),
        }
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<Message>) {
        if self.behavior.silent_as_follower() {
            return;
        }
        match tag {
            timer_tags::BATCH => self.on_batch_timer(ctx),
            timer_tags::COMPLAINT => self.on_complaint_timer(id, ctx),
            timer_tags::CONF_VC => self.on_confvc_timer(id, ctx),
            timer_tags::POW_DONE => self.on_pow_done(id, ctx),
            timer_tags::ELECTION => self.on_election_timer(id, ctx),
            timer_tags::POLICY => self.on_policy_timer(ctx),
            timer_tags::POLICY_CAMPAIGN => self.on_policy_campaign_timer(ctx),
            timer_tags::ATTACK => self.on_attack_timer(ctx),
            timer_tags::SYNC_REPAIR => self.on_sync_repair_timer(ctx),
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_server(n: u32, id: u32) -> PrestigeServer {
        let config = ClusterConfig::new(n);
        let registry = KeyRegistry::new(1, n, 4);
        PrestigeServer::new(ServerId(id), config, registry, 0)
    }

    #[test]
    fn initial_roles_match_figure_one() {
        let s1 = make_server(4, 0);
        let s2 = make_server(4, 1);
        assert_eq!(s1.role(), ServerRole::Leader);
        assert!(s1.is_leader());
        assert_eq!(s2.role(), ServerRole::Follower);
        assert_eq!(s1.current_view(), View(1));
        assert_eq!(s1.current_leader(), ServerId(0));
        assert_eq!(s1.current_rp(), 1);
    }

    #[test]
    fn other_servers_excludes_self() {
        let s2 = make_server(4, 1);
        let others = s2.other_servers();
        assert_eq!(others.len(), 3);
        assert!(!others.contains(&Actor::Server(ServerId(1))));
    }

    #[test]
    fn signatures_come_from_own_key() {
        let s1 = make_server(4, 0);
        let sig = s1.sign(b"hello");
        assert!(s1
            .registry
            .verify(Actor::Server(ServerId(0)), b"hello", &sig));
        assert!(!s1
            .registry
            .verify(Actor::Server(ServerId(1)), b"hello", &sig));
    }

    #[test]
    fn byzantine_behavior_is_recorded() {
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(1, 4, 0);
        let s = PrestigeServer::with_behavior(
            ServerId(2),
            config,
            registry,
            0,
            ByzantineBehavior::Quiet,
        );
        assert_eq!(s.behavior(), ByzantineBehavior::Quiet);
        assert!(s.behavior().is_faulty());
    }
}

//! A leader-based BFT replica with the *passive* view-change protocol.
//!
//! This is the baseline family the paper measures against: replication is
//! linear and leader-driven (like HotStuff/SBFT), but leadership rotates on a
//! fixed schedule (`L = V mod n`). The two weaknesses the paper attributes to
//! passive view changes are modeled faithfully:
//!
//! * an unavailable scheduled leader cannot be skipped — every replica must
//!   wait out a full view timeout before moving to the next view;
//! * the incoming leader may be stale and must sync its log from a peer
//!   before it can propose (the cost HotStuff's extra phase exists to avoid;
//!   here it shows up directly as idle time at the start of each view).
//!
//! Replication is one *phase ladder*: a block climbs the QC kinds of
//! [`BaselineProtocol::phases`] in order. The leader opens each rung with its
//! own share and asks the followers for theirs (`Ord`, then `PreCmt` with
//! three phases, then `Cmt`). A quorum on a rung opens the next one, and a
//! quorum on the last commits the block. A share for any other rung is
//! ignored.
//!
//! Every replica votes to leave its view when its view timer fires, and the
//! timer re-arms on progress. A follower's progress is an `Ord`, phase QC or
//! `CommitBlock` from the leader, so the followers time the leader out, as
//! the backups do in VR Revisited (§4.2). The leader sees none of its own
//! messages. Its progress is its own commits, as a QC is for HotStuff's
//! pacemaker, so a leader that commits never votes itself out. A leader with
//! nothing to commit (idle, or stuck on a block that cannot reach a quorum)
//! votes after a timeout, as its followers do. A quiet (F2) or equivocating
//! (F3) leader commits nothing and is timed out by its followers.

use prestige_core::storage::{block_keys_digest, tx_block_digest, BlockStore};
use prestige_core::{keys_by_client, ByzantineBehavior, ClientTable, Pacemaker, ServerStats};
use prestige_crypto::{
    hash_many, keys_digest, sign_share, KeyPair, KeyRegistry, QcBuilder, ThresholdVerifier,
};
use prestige_sim::{cpu_cost, Context, Process, TimerId};
use prestige_types::{
    key_runs, Actor, ClusterConfig, Digest, KeyRun, Message, PartialSig, Proposal, QcKind,
    QuorumCertificate, SeqNum, ServerId, Transaction, TxBlock, View,
};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Timer tags local to the baseline protocols (distinct from
/// `prestige_core::timer_tags`).
mod tags {
    /// Leader-progress / view timeout.
    pub const VIEW: u64 = 20;
    /// Leader batch flush.
    pub const BATCH: u64 = 21;
    /// Policy rotation check.
    pub const POLICY: u64 = 22;
}

/// Which baseline profile a [`PassiveBftServer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaselineProtocol {
    /// Three-phase replication, passive rotation (HotStuff-style).
    HotStuff,
    /// Three-phase replication with an extra execution-ack round (SBFT-lite).
    SbftLite,
    /// Two-phase replication, passive rotation (Prosecutor-lite pipeline).
    ProsecutorLite,
}

impl BaselineProtocol {
    /// The QC-building phases a block climbs, in order, before it commits.
    pub fn phases(&self) -> &'static [QcKind] {
        match self {
            BaselineProtocol::HotStuff | BaselineProtocol::SbftLite => {
                &[QcKind::Ordering, QcKind::PreCommit, QcKind::Commit]
            }
            BaselineProtocol::ProsecutorLite => &[QcKind::Ordering, QcKind::Commit],
        }
    }

    /// Extra per-block CPU overhead (ms) modelling protocol-specific costs
    /// (SBFT's collector aggregation and execution acknowledgements).
    pub fn extra_block_cpu_ms(&self) -> f64 {
        match self {
            BaselineProtocol::SbftLite => 0.5,
            _ => 0.0,
        }
    }

    /// Short display name matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineProtocol::HotStuff => "hs",
            BaselineProtocol::SbftLite => "sb",
            BaselineProtocol::ProsecutorLite => "pr",
        }
    }
}

/// How many `Ord`s a follower holds for a view it has not entered yet: the
/// core leader's in-flight cap, though a baseline leader has none.
const EARLY_ORDS: usize = 4;

/// An `Ord` that arrived, from its view's leader, before the view's
/// `NewViewAnnounce`.
#[derive(Debug)]
struct EarlyOrd {
    from: Actor,
    view: View,
    n: SeqNum,
    batch: Arc<Vec<Proposal>>,
    digest: Digest,
    sig: [u8; 32],
}

/// A block the leader is replicating in its current view, and the rung of
/// the phase ladder it is on.
#[derive(Debug, Clone)]
struct Instance {
    batch: Arc<Vec<Proposal>>,
    /// The batch's keys digest: the ordering digest's input, reused to link
    /// the committed block into the chain.
    keys: Digest,
    digest: Digest,
    /// The current rung: an index into [`BaselineProtocol::phases`].
    phase: usize,
    /// The current rung's shares, the leader's own among them.
    votes: QcBuilder,
    /// The first rung's QC, which the committed block carries.
    ordering_qc: Option<QuorumCertificate>,
}

/// A replica of a passive-view-change BFT protocol.
pub struct PassiveBftServer {
    id: ServerId,
    config: ClusterConfig,
    protocol: BaselineProtocol,
    registry: Arc<KeyRegistry>,
    keypair: KeyPair,
    behavior: ByzantineBehavior,
    pacemaker: Pacemaker,
    store: BlockStore,

    view: View,
    /// The next view this replica will vote to enter when its timer expires.
    next_target: View,
    /// Incoming-leader sync in progress: proposals are held back until the log
    /// has caught up with the highest sequence number reported by peers.
    syncing_until_seq: Option<SeqNum>,
    /// Set once this replica has voted to leave the current view (timeout or
    /// policy rotation): it stops participating in the old view's replication,
    /// exactly like PBFT-style view-change mode. Cleared on entering a view.
    view_change_pending: bool,

    pending_proposals: Vec<Proposal>,
    /// The core's client table: the requests seen, and those committed.
    clients: ClientTable,
    next_seq: SeqNum,
    inflight: BTreeMap<u64, Instance>,
    acked_digests: HashMap<u64, Digest>,
    /// Out-of-order committed blocks, each beside its keys digest.
    parked_blocks: BTreeMap<u64, (Arc<TxBlock>, Digest)>,
    /// `Ord`s for a later view that overtook its `NewViewAnnounce` (links
    /// need not keep order). Replayed when that view is entered, dropped
    /// when another is.
    early_ords: Vec<EarlyOrd>,

    /// Per view this replica is scheduled to lead: the `NewView` shares so
    /// far, and the highest log position they report with its holder.
    new_views: HashMap<u64, (QcBuilder, (SeqNum, ServerId))>,
    view_timer: Option<TimerId>,

    stats: ServerStats,
}

impl PassiveBftServer {
    /// Creates a correct replica of the given baseline protocol.
    pub fn new(
        id: ServerId,
        config: ClusterConfig,
        registry: KeyRegistry,
        protocol: BaselineProtocol,
    ) -> Self {
        Self::with_behavior(id, config, registry, protocol, ByzantineBehavior::Correct)
    }

    /// Creates a replica with an explicit Byzantine behaviour.
    pub fn with_behavior(
        id: ServerId,
        config: ClusterConfig,
        registry: KeyRegistry,
        protocol: BaselineProtocol,
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
        // View 1 is led by the rotation schedule: L = V mod n.
        let view = View::INITIAL;
        PassiveBftServer {
            id,
            config,
            protocol,
            registry: Arc::new(registry),
            keypair,
            behavior,
            pacemaker,
            store,
            view,
            next_target: view.next(),
            syncing_until_seq: None,
            view_change_pending: false,
            pending_proposals: Vec::new(),
            clients: ClientTable::default(),
            next_seq: SeqNum(1),
            inflight: BTreeMap::new(),
            acked_digests: HashMap::new(),
            parked_blocks: BTreeMap::new(),
            early_ords: Vec::new(),
            new_views: HashMap::new(),
            view_timer: None,
            stats: ServerStats::default(),
        }
    }

    /// This replica's identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The protocol profile this replica runs.
    pub fn protocol(&self) -> BaselineProtocol {
        self.protocol
    }

    /// The replica's current view.
    pub fn current_view(&self) -> View {
        self.view
    }

    /// The scheduled leader of the replica's current view.
    pub fn current_leader(&self) -> ServerId {
        self.config.replicas.rotation_leader(self.view)
    }

    /// Whether this replica is the scheduled leader of its current view.
    pub fn is_leader(&self) -> bool {
        self.current_leader() == self.id
    }

    /// The committed state.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Execution statistics (same shape as PrestigeBFT's for easy comparison).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn other_servers(&self) -> Vec<Actor> {
        self.config
            .replicas
            .servers()
            .filter(|s| *s != self.id)
            .map(Actor::Server)
            .collect()
    }

    fn quorum(&self) -> u32 {
        self.config.quorum()
    }

    /// The baseline's ordering digest, over the batch's keys digest.
    fn ordering_digest(view: View, n: SeqNum, keys: &Digest) -> Digest {
        hash_many([
            b"baseline-batch".as_slice(),
            &view.0.to_be_bytes(),
            &n.0.to_be_bytes(),
            &keys.0,
        ])
    }

    fn new_view_digest(view: View) -> Digest {
        hash_many([b"newview".as_slice(), &view.0.to_be_bytes()])
    }

    fn reset_view_timer(&mut self, ctx: &mut Context<Message>) {
        let timeout = self.pacemaker.election_timeout(ctx.rng());
        self.view_timer = Some(ctx.set_timer(timeout, tags::VIEW));
    }

    fn arm_batch_timer(&mut self, ctx: &mut Context<Message>) {
        ctx.set_timer(self.pacemaker.batch_interval(), tags::BATCH);
    }

    /// The leader opens rung `kind` of block `n` with its own share.
    fn open_votes(&self, kind: QcKind, n: SeqNum, digest: Digest) -> QcBuilder {
        let mut votes = QcBuilder::new(kind, self.view, n, digest, self.quorum());
        if let Some(own) = sign_share(&self.registry, self.id, kind, self.view, n, &digest) {
            let _ = votes.add_share(&self.registry, &own);
        }
        votes
    }

    /// A follower's share on rung `kind` of block `n`: signed, or garbage
    /// when it equivocates.
    fn vote(&self, kind: QcKind, view: View, n: SeqNum, digest: &Digest) -> Option<PartialSig> {
        if self.behavior.equivocates() {
            return Some(PartialSig {
                signer: self.id,
                sig: [0xCC; 32],
            });
        }
        sign_share(&self.registry, self.id, kind, view, n, digest)
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn handle_prop(&mut self, proposals: Vec<Proposal>, ctx: &mut Context<Message>) {
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        self.clients
            .pool_unseen(proposals, &mut self.pending_proposals);
        if self.pending_proposals.len() >= self.config.batch_size {
            self.flush_batch(ctx);
        }
    }

    fn flush_batch(&mut self, ctx: &mut Context<Message>) {
        if !self.is_leader() || self.behavior.silent_as_leader() || self.syncing_until_seq.is_some()
        {
            return;
        }
        if self.view_change_pending {
            return; // In view-change mode the old view makes no more progress.
        }
        if self.pending_proposals.is_empty() {
            return;
        }
        let take = self.pending_proposals.len().min(self.config.batch_size);
        let batch: Arc<Vec<Proposal>> = Arc::new(self.pending_proposals.drain(..take).collect());
        let view = self.view;
        let n = self.next_seq;
        self.next_seq = self.next_seq.next();
        let keys = keys_digest(batch.iter().map(|p| p.tx.key()));
        let digest = Self::ordering_digest(view, n, &keys);
        ctx.charge_cpu_ms(cpu_cost::PER_TX_MS * batch.len() as f64);

        let votes = self.open_votes(QcKind::Ordering, n, digest);
        let sig = self.keypair.sign(digest.as_ref());
        ctx.broadcast(
            self.other_servers(),
            Message::Ord {
                view,
                n,
                batch: Arc::clone(&batch),
                digest,
                sig,
            },
        );
        self.inflight.insert(
            n.0,
            Instance {
                batch,
                keys,
                digest,
                phase: 0,
                votes,
                ordering_qc: None,
            },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Ord message fields
    fn handle_ord(
        &mut self,
        from: Actor,
        view: View,
        n: SeqNum,
        batch: Arc<Vec<Proposal>>,
        digest: Digest,
        sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        if view > self.view
            && from == Actor::Server(self.config.replicas.rotation_leader(view))
            && self.early_ords.len() < EARLY_ORDS
        {
            // The new leader's first blocks can overtake its announcement;
            // dropped, they would park every later block behind the hole
            // until a view timeout.
            self.early_ords.push(EarlyOrd {
                from,
                view,
                n,
                batch,
                digest,
                sig,
            });
            return;
        }
        if view != self.view || from != Actor::Server(self.current_leader()) {
            return;
        }
        if self.view_change_pending {
            return;
        }
        if n <= self.store.latest_seq() {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        if !self.registry.verify(from, digest.as_ref(), &sig) {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_TX_MS * batch.len() as f64);
        let keys = keys_digest(batch.iter().map(|p| p.tx.key()));
        if Self::ordering_digest(view, n, &keys) != digest {
            return;
        }
        if let Some(existing) = self.acked_digests.get(&n.0) {
            if *existing != digest {
                return;
            }
        }
        self.acked_digests.insert(n.0, digest);
        let pool = &mut self.pending_proposals;
        for run in key_runs(&batch, |p| p.tx.key()) {
            self.clients.note_seen_run(&run, |number| {
                pool.push(batch[run.index_of(number)].clone())
            });
        }
        // Progress from the leader: reset the failure-detection timer.
        self.reset_view_timer(ctx);
        let Some(share) = self.vote(QcKind::Ordering, view, n, &digest) else {
            return;
        };
        ctx.send(
            from,
            Message::OrdReply {
                view,
                n,
                digest,
                share,
            },
        );
    }

    /// A follower's vote on a rung the leader opened: `PreCmt` and `Cmt`
    /// carry the QC of the rung below `vote` and ask for a `vote` share.
    fn handle_qc_vote(
        &mut self,
        from: Actor,
        view: View,
        n: SeqNum,
        phase_qc: QuorumCertificate,
        vote: QcKind,
        ctx: &mut Context<Message>,
    ) {
        if view != self.view || from != Actor::Server(self.current_leader()) {
            return;
        }
        if self.view_change_pending {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        let phases = self.protocol.phases();
        let below = phases.windows(2).find(|w| w[1] == vote).map(|w| w[0]);
        if Some(phase_qc.kind) != below
            || phase_qc.seq != n
            || ThresholdVerifier::new(&self.registry)
                .verify(&phase_qc, self.quorum())
                .is_err()
        {
            return;
        }
        self.reset_view_timer(ctx);
        let digest = phase_qc.digest;
        let Some(share) = self.vote(vote, view, n, &digest) else {
            return;
        };
        let reply = if vote == QcKind::PreCommit {
            Message::PreCmtReply {
                view,
                n,
                digest,
                share,
            }
        } else {
            Message::CmtReply {
                view,
                n,
                digest,
                share,
            }
        };
        ctx.send(from, reply);
    }

    /// The leader counts a follower's share on rung `kind` of block `n`. A
    /// quorum on the block's current rung opens the next one, or commits the
    /// block after the last; a share for any other rung is ignored.
    fn handle_reply(
        &mut self,
        kind: QcKind,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if !self.is_leader() || view != self.view {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        let phases = self.protocol.phases();
        let Some(instance) = self.inflight.get_mut(&n.0) else {
            return;
        };
        if instance.digest != digest || phases[instance.phase] != kind {
            return;
        }
        let votes = &mut instance.votes;
        if votes.add_share(&self.registry, &share).is_err() || !votes.complete() {
            return;
        }
        let qc = votes.assemble().expect("a complete rung assembles");
        let rung = instance.phase + 1;
        let Some(&next) = phases.get(rung) else {
            return self.commit_block(n, qc, ctx);
        };
        let votes = self.open_votes(next, n, digest);
        let instance = self.inflight.get_mut(&n.0).expect("instance present");
        instance.phase = rung;
        instance.votes = votes;
        if kind == QcKind::Ordering {
            instance.ordering_qc = Some(qc.clone());
        }
        let sig = self.keypair.sign(digest.as_ref());
        let message = if next == QcKind::PreCommit {
            Message::PreCmt {
                view,
                n,
                prepare_qc: qc,
                sig,
            }
        } else {
            Message::Cmt {
                view,
                n,
                ordering_qc: qc,
                sig,
            }
        };
        ctx.broadcast(self.other_servers(), message);
    }

    /// The leader commits block `n` on its last rung's QC: it builds the
    /// block, broadcasts it and applies it.
    fn commit_block(
        &mut self,
        n: SeqNum,
        commit_qc: QuorumCertificate,
        ctx: &mut Context<Message>,
    ) {
        let instance = self.inflight.remove(&n.0).expect("instance present");
        let txs = instance.batch.iter().map(|p| p.tx.clone()).collect();
        let mut block = TxBlock::new(self.view, n, txs);
        block.ordering_qc = instance.ordering_qc;
        block.commit_qc = Some(commit_qc);
        ctx.charge_cpu_ms(self.protocol.extra_block_cpu_ms());
        // The leader's own progress: its commits re-arm its view timer, as
        // the leader's messages re-arm a follower's.
        self.reset_view_timer(ctx);
        let chain = tx_block_digest(n, block.header.prev_digest, &instance.keys);
        let sig = self.keypair.sign(chain.as_ref());
        let block = Arc::new(block);
        ctx.broadcast(
            self.other_servers(),
            Message::CommitBlock {
                block: Arc::clone(&block),
                sig,
            },
        );
        self.apply_committed_block(block, instance.keys, ctx);
    }

    fn handle_commit_block(&mut self, block: Arc<TxBlock>, ctx: &mut Context<Message>) {
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS * 2.0);
        let quorum = self.quorum();
        let verifier = ThresholdVerifier::new(&self.registry);
        let valid = match (&block.ordering_qc, &block.commit_qc) {
            (Some(o), Some(c)) => {
                o.seq == block.n
                    && c.kind == QcKind::Commit
                    && c.seq == block.n
                    && verifier.verify(o, quorum).is_ok()
                    && verifier.verify(c, quorum).is_ok()
            }
            _ => false,
        };
        if !valid {
            return;
        }
        self.reset_view_timer(ctx);
        let keys = block_keys_digest(&block);
        self.apply_committed_block(block, keys, ctx);
    }

    fn apply_committed_block(
        &mut self,
        block: Arc<TxBlock>,
        keys: Digest,
        ctx: &mut Context<Message>,
    ) {
        if block.n <= self.store.latest_seq() {
            return;
        }
        if block.n.0 > self.store.latest_seq().0 + 1 {
            self.parked_blocks.insert(block.n.0, (block, keys));
            return;
        }
        self.apply_in_order(block, keys, ctx);
        while let Some((&next, _)) = self.parked_blocks.iter().next() {
            if next != self.store.latest_seq().0 + 1 {
                break;
            }
            let (block, keys) = self.parked_blocks.remove(&next).expect("present");
            self.apply_in_order(block, keys, ctx);
        }
    }

    fn apply_in_order(&mut self, block: Arc<TxBlock>, keys: Digest, ctx: &mut Context<Message>) {
        if !self.store.insert_tx_block(Arc::clone(&block), keys) {
            return;
        }
        self.stats.committed_blocks += 1;
        self.stats.committed_tx += block.tx.len() as u64;
        self.stats.last_commit_ms = Some(ctx.now().as_ms());
        let runs: Vec<KeyRun> = key_runs(&block.tx, Transaction::key).collect();
        for run in &runs {
            let retired = &mut self.stats.gc_pruned_keys;
            self.clients.note_committed_run(run, retired, |_| {});
        }
        // A proposal of ours at this number lost to the block, and followers
        // holding the block drop its `Ord`: its requests go back to the pool.
        if let Some(stale) = self.inflight.remove(&block.n.0) {
            self.pending_proposals.extend(stale.batch.iter().cloned());
        }
        let clients = &self.clients;
        self.pending_proposals
            .retain(|p| !clients.is_committed(p.tx.key()));
        self.acked_digests.remove(&block.n.0);
        // A leader never proposes a number already committed (VR Revisited
        // §4.2), and an incoming leader that was syncing is caught up here.
        self.next_seq = self.next_seq.max(block.n.next());
        self.syncing_until_seq = self.syncing_until_seq.filter(|to| block.n < *to);
        // Notify clients. The signature covers only the sequence number, so
        // one signing serves every client of the block.
        let sig = self.keypair.sign(&block.n.0.to_be_bytes());
        for (client, tx_keys) in keys_by_client(&runs) {
            ctx.send(
                Actor::Client(client),
                Message::Notif {
                    tx_keys,
                    seq: block.n,
                    view: block.view,
                    sig,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Passive view change
    // ------------------------------------------------------------------

    /// View timeout (or policy rotation): vote to move to `next_target` by
    /// messaging its scheduled leader.
    fn send_new_view(&mut self, ctx: &mut Context<Message>) {
        // Entering view-change mode: stop participating in the old view.
        self.view_change_pending = true;
        let target = self.next_target;
        self.next_target = target.next();
        let digest = Self::new_view_digest(target);
        let share = match sign_share(
            &self.registry,
            self.id,
            QcKind::ViewChange,
            target,
            SeqNum(0),
            &digest,
        ) {
            Some(s) => s,
            None => return,
        };
        let scheduled = self.config.replicas.rotation_leader(target);
        let latest_seq = self.store.latest_seq();
        if scheduled == self.id {
            // Deliver to ourselves directly.
            self.handle_new_view(target, latest_seq, share, ctx);
        } else {
            let message = Message::NewView {
                view: target,
                latest_seq,
                share,
            };
            ctx.send(Actor::Server(scheduled), message);
        }
        self.reset_view_timer(ctx);
    }

    fn handle_new_view(
        &mut self,
        view: View,
        latest_seq: SeqNum,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if view <= self.view {
            return;
        }
        if self.config.replicas.rotation_leader(view) != self.id {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        let digest = Self::new_view_digest(view);
        let (id, quorum) = (self.id, self.quorum());
        let (votes, high) = self.new_views.entry(view.0).or_insert_with(|| {
            let votes = QcBuilder::new(QcKind::ViewChange, view, SeqNum(0), digest, quorum);
            (votes, (SeqNum(0), id))
        });
        if votes.add_share(&self.registry, &share).is_err() {
            return;
        }
        // Track the highest log position reported so the incoming leader knows
        // how far it must sync.
        if latest_seq > high.0 {
            *high = (latest_seq, share.signer);
        }
        if !votes.complete() {
            return;
        }
        let (votes, (high_seq, high_holder)) =
            self.new_views.remove(&view.0).expect("entry present");
        let qc = votes.assemble().expect("a complete quorum assembles");
        // Enter the view as its leader.
        self.enter_view(view, ctx);
        self.stats.elections_won += 1;
        let sig = self.keypair.sign(digest.as_ref());
        ctx.broadcast(
            self.other_servers(),
            Message::NewViewAnnounce {
                view,
                new_view_qc: qc,
                sig,
            },
        );
        // The passive protocol's weakness: a stale incoming leader must sync
        // before it can propose.
        if high_seq > self.store.latest_seq() {
            self.syncing_until_seq = Some(high_seq);
            ctx.send(
                Actor::Server(high_holder),
                Message::SyncReq {
                    view,
                    from: self.store.latest_seq().0 + 1,
                    to: high_seq.0,
                },
            );
        }
        self.arm_batch_timer(ctx);
    }

    fn handle_new_view_announce(
        &mut self,
        from: Actor,
        view: View,
        new_view_qc: QuorumCertificate,
        ctx: &mut Context<Message>,
    ) {
        if view <= self.view {
            return;
        }
        if from != Actor::Server(self.config.replicas.rotation_leader(view)) {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        if new_view_qc.kind != QcKind::ViewChange
            || new_view_qc.view != view
            || ThresholdVerifier::new(&self.registry)
                .verify(&new_view_qc, self.quorum())
                .is_err()
        {
            return;
        }
        self.enter_view(view, ctx);
    }

    fn enter_view(&mut self, view: View, ctx: &mut Context<Message>) {
        self.view = view;
        self.next_target = view.next();
        self.inflight.clear();
        self.acked_digests.clear();
        self.syncing_until_seq = None;
        self.view_change_pending = false;
        // `handle_new_view` ignores the views up to this one.
        self.new_views.retain(|v, _| *v > view.0);
        self.stats.views_installed += 1;
        self.reset_view_timer(ctx);
        if self.is_leader() {
            self.next_seq = self.store.latest_seq().next();
            if !self.behavior.silent_as_leader() {
                self.arm_batch_timer(ctx);
            }
        }
        let early_ords = std::mem::take(&mut self.early_ords);
        for e in early_ords.into_iter().filter(|e| e.view == view) {
            self.handle_ord(e.from, view, e.n, e.batch, e.digest, e.sig, ctx);
        }
    }

    fn handle_sync_req(&mut self, from: Actor, lo: u64, hi: u64, ctx: &mut Context<Message>) {
        ctx.send(
            from,
            Message::SyncResp {
                vc_blocks: Vec::new(),
                tx_blocks: self.store.tx_blocks_in(lo, hi).take(256).collect(),
                ordered: Vec::new(),
                ckpt: None,
            },
        );
    }

    fn handle_sync_resp(&mut self, tx_blocks: Vec<TxBlock>, ctx: &mut Context<Message>) {
        let mut blocks = tx_blocks;
        blocks.sort_by_key(|b| b.n.0);
        for block in blocks {
            if block.n <= self.store.latest_seq() {
                continue;
            }
            ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
            let ok = match &block.commit_qc {
                Some(c) => ThresholdVerifier::new(&self.registry)
                    .verify(c, self.quorum())
                    .is_ok(),
                None => false,
            };
            if ok {
                let keys = block_keys_digest(&block);
                self.apply_committed_block(Arc::new(block), keys, ctx);
            }
        }
    }
}

impl Process<Message> for PassiveBftServer {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        self.reset_view_timer(ctx);
        if self.is_leader() && !self.behavior.silent_as_leader() {
            self.arm_batch_timer(ctx);
        }
        if let Some(interval) = self.pacemaker.rotation_interval() {
            ctx.set_timer(interval, tags::POLICY);
        }
    }

    fn on_message(&mut self, from: Actor, message: Message, ctx: &mut Context<Message>) {
        if self.behavior.silent_as_follower() {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_MESSAGE_MS);
        match message {
            Message::Prop { proposals, .. } => self.handle_prop(proposals, ctx),
            Message::Compt { proposal, .. } => self.handle_prop(vec![proposal], ctx),
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
            } => self.handle_reply(QcKind::Ordering, view, n, digest, share, ctx),
            Message::PreCmt {
                view,
                n,
                prepare_qc,
                ..
            } => self.handle_qc_vote(from, view, n, prepare_qc, QcKind::PreCommit, ctx),
            Message::PreCmtReply {
                view,
                n,
                digest,
                share,
            } => self.handle_reply(QcKind::PreCommit, view, n, digest, share, ctx),
            Message::Cmt {
                view,
                n,
                ordering_qc,
                ..
            } => self.handle_qc_vote(from, view, n, ordering_qc, QcKind::Commit, ctx),
            Message::CmtReply {
                view,
                n,
                digest,
                share,
            } => self.handle_reply(QcKind::Commit, view, n, digest, share, ctx),
            Message::CommitBlock { block, .. } => self.handle_commit_block(block, ctx),
            Message::NewView {
                view,
                latest_seq,
                share,
            } => self.handle_new_view(view, latest_seq, share, ctx),
            Message::NewViewAnnounce {
                view, new_view_qc, ..
            } => self.handle_new_view_announce(from, view, new_view_qc, ctx),
            Message::SyncReq { from: lo, to, .. } => self.handle_sync_req(from, lo, to, ctx),
            Message::SyncResp { tx_blocks, .. } => self.handle_sync_resp(tx_blocks, ctx),
            // PrestigeBFT-specific messages are not part of the baselines.
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<Message>) {
        if self.behavior.silent_as_follower() {
            return;
        }
        match tag {
            tags::VIEW if self.view_timer == Some(id) => {
                // No progress within the timeout (no message from the
                // leader at a follower, no commit at the leader): vote for
                // the next scheduled leader. Faulty scheduled leaders cannot
                // be skipped — this full timeout is the passive protocol's
                // robustness cost.
                self.send_new_view(ctx);
            }
            tags::BATCH if self.is_leader() && !self.behavior.silent_as_leader() => {
                if self.behavior.equivocates() {
                    let message = Message::Ord {
                        view: self.view,
                        n: self.next_seq,
                        batch: Arc::new(Vec::new()),
                        digest: Digest::ZERO,
                        sig: [0xEF; 32],
                    };
                    ctx.broadcast(self.other_servers(), message);
                } else {
                    self.flush_batch(ctx);
                }
                self.arm_batch_timer(ctx);
            }
            tags::POLICY => {
                if let Some(interval) = self.pacemaker.rotation_interval() {
                    ctx.set_timer(interval, tags::POLICY);
                    // Policy-driven rotation: move to the next scheduled view.
                    self.send_new_view(ctx);
                }
            }
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
    use prestige_sim::{Effects, Emission, SimRng, SimTime};
    use prestige_types::{ClientId, Transaction, Wire};

    /// A message in flight: sender, recipient, message.
    type Envelope = (Actor, Actor, Message);

    /// Four replicas of `protocol` in view 1, which s1 leads, with five
    /// proposals waiting at s1.
    fn cluster(protocol: BaselineProtocol) -> Vec<PassiveBftServer> {
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(7, 4, 1);
        let mut servers: Vec<_> = (0..4)
            .map(|i| PassiveBftServer::new(ServerId(i), config.clone(), registry.clone(), protocol))
            .collect();
        let proposals = (1..=5)
            .map(|i| Proposal::new(Transaction::with_size(ClientId(1), i, 16), Digest::ZERO));
        servers[1].pending_proposals.extend(proposals);
        servers
    }

    /// Runs `f` on `server` and returns what it sent to other servers.
    fn step(
        server: &mut PassiveBftServer,
        f: impl FnOnce(&mut PassiveBftServer, &mut Context<Message>),
    ) -> Vec<Envelope> {
        let mut effects = Effects::new();
        let (mut rng, mut timer_ids) = (SimRng::new(3), 0);
        let me = Actor::Server(server.id());
        f(
            server,
            &mut Context::new(SimTime::ZERO, me, &mut rng, &mut timer_ids, &mut effects),
        );
        let mut out = Vec::new();
        for emission in effects.emissions {
            match emission {
                Emission::Send(to, m) => out.push((me, to, m)),
                Emission::Broadcast(tos, m) => {
                    out.extend(tos.into_iter().map(|to| (me, to, m.clone())))
                }
            }
        }
        out.retain(|(_, to, _)| matches!(to, Actor::Server(_)));
        out
    }

    fn deliver(servers: &mut [PassiveBftServer], (from, to, message): Envelope) -> Vec<Envelope> {
        let Actor::Server(id) = to else {
            unreachable!("step keeps only server-bound messages")
        };
        step(&mut servers[id.0 as usize], |s, ctx| {
            s.on_message(from, message, ctx)
        })
    }

    /// Delivers `queue` and everything it causes; returns the kinds sent.
    fn pump(servers: &mut [PassiveBftServer], mut queue: Vec<Envelope>) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        while let Some(envelope) = queue.pop() {
            kinds.push(envelope.2.kind());
            queue.extend(deliver(servers, envelope));
        }
        kinds
    }

    /// Like [`pump`], but keeps back the messages `hold` picks and returns
    /// them undelivered.
    fn pump_holding(
        servers: &mut [PassiveBftServer],
        mut queue: Vec<Envelope>,
        hold: impl Fn(&Envelope) -> bool,
    ) -> Vec<Envelope> {
        let mut held = Vec::new();
        while let Some(envelope) = queue.pop() {
            if hold(&envelope) {
                held.push(envelope);
            } else {
                queue.extend(deliver(servers, envelope));
            }
        }
        held
    }

    /// `count` requests of `client`, numbered from `first`.
    fn requests(client: u64, first: u64, count: u64) -> Vec<Proposal> {
        (first..first + count)
            .map(|i| {
                Proposal::new(
                    Transaction::with_size(ClientId(client), i, 16),
                    Digest::ZERO,
                )
            })
            .collect()
    }

    /// Whether every server has committed requests 1..=5 of client 2.
    fn client_2_committed(servers: &[PassiveBftServer]) -> bool {
        let committed =
            |s: &PassiveBftServer| (1..=5).all(|i| s.clients.is_committed((ClientId(2), i)));
        servers.iter().all(committed)
    }

    /// s1 commits view 1's block 1 while s0, s3 and s2 vote for view 2, so
    /// s2 enters it, as leader, on a quorum that reports no block: one block
    /// behind its followers. Returns the cluster, every follower in view 2,
    /// with block 1's `CommitBlock`s undelivered. s2's pool holds requests
    /// 1..=5 of client 2, older than anything else in it.
    fn leader_one_block_behind() -> (Vec<PassiveBftServer>, Vec<Envelope>) {
        let mut servers = cluster(BaselineProtocol::HotStuff);
        step(&mut servers[2], |s, ctx| {
            s.handle_prop(requests(2, 1, 5), ctx)
        });
        let ords = step(&mut servers[1], |s, ctx| s.flush_batch(ctx));
        let is_commit = |e: &Envelope| e.2.kind() == "CommitBlock";
        let commit_blocks = pump_holding(&mut servers, ords, is_commit);
        assert_eq!(commit_blocks.len(), 3);
        let mut votes = Vec::new();
        for i in [0, 3, 2] {
            votes.extend(step(&mut servers[i], |s, ctx| s.send_new_view(ctx)));
        }
        pump(&mut servers, votes);
        assert!(servers.iter().all(|s| s.current_view() == View(2)));
        assert_eq!(servers[2].store.latest_seq(), SeqNum(0));
        (servers, commit_blocks)
    }

    #[test]
    fn a_leader_that_learns_an_old_commit_proposes_after_it() {
        // Block 1 reaches every replica before s2's first flush.
        let (mut servers, commit_blocks) = leader_one_block_behind();
        pump(&mut servers, commit_blocks);
        assert_eq!(servers[2].store.latest_seq(), SeqNum(1));
        let ords = step(&mut servers[2], |s, ctx| s.flush_batch(ctx));
        let Some((_, _, Message::Ord { n, batch, .. })) = ords.first() else {
            panic!("expected an Ord, got {ords:?}");
        };
        assert_eq!(*n, SeqNum(2), "the leader's first number is its tip's next");
        assert_eq!(batch.len(), 5, "client 2's requests, and nothing committed");
        pump(&mut servers, ords);
        assert!(client_2_committed(&servers));
    }

    #[test]
    fn a_proposal_that_an_old_commit_overtakes_gives_its_requests_back() {
        // s2 proposes at 1 before block 1 reaches it; its followers, which
        // hold block 1, drop that Ord.
        let (mut servers, mut commit_blocks) = leader_one_block_behind();
        let to_s2 = |e: &Envelope| e.1 == Actor::Server(ServerId(2));
        let at = commit_blocks
            .iter()
            .position(to_s2)
            .expect("block 1 for s2");
        let late = commit_blocks.remove(at);
        pump(&mut servers, commit_blocks);
        let ords = step(&mut servers[2], |s, ctx| s.flush_batch(ctx));
        assert!(matches!(ords[0].2, Message::Ord { n: SeqNum(1), .. }));
        assert!(pump(&mut servers, ords).iter().all(|k| *k == "Ord"));
        // Block 1 lands at s2; its next flush carries client 2's requests.
        pump(&mut servers, vec![late]);
        let ords = step(&mut servers[2], |s, ctx| s.flush_batch(ctx));
        assert!(matches!(
            ords[..],
            [(_, _, Message::Ord { n: SeqNum(2), .. }), ..]
        ));
        pump(&mut servers, ords);
        assert!(client_2_committed(&servers));
        assert!(servers[2].inflight.is_empty());
    }

    #[test]
    fn per_client_and_per_view_state_stay_bounded() {
        // Ten rounds, each a rotation whose quorum never forms, then one that
        // does and whose leader commits ten blocks of five requests from one
        // of three clients: 100 blocks over 20 views.
        let mut servers = cluster(BaselineProtocol::HotStuff);
        servers[1].pending_proposals.clear();
        let mut next_request = [1u64; 3];
        for round in 0..10 {
            let view = servers[0].current_view();
            // Every replica votes for the next view, but only s0's vote
            // arrives. Then all of them vote for the one after.
            let mut votes = Vec::new();
            for server in servers.iter_mut() {
                votes.extend(step(server, |s, ctx| s.send_new_view(ctx)));
            }
            let from_s0 = |e: &Envelope| e.0 == Actor::Server(ServerId(0));
            pump(&mut servers, votes.into_iter().filter(from_s0).collect());
            let mut votes = Vec::new();
            for server in servers.iter_mut() {
                votes.extend(step(server, |s, ctx| s.send_new_view(ctx)));
            }
            pump(&mut servers, votes);
            let view = View(view.0 + 2);
            assert!(servers.iter().all(|s| s.current_view() == view));
            let leader = servers[0].current_leader().0 as usize;
            let client = round % 3;
            for _ in 0..10 {
                let batch = requests(client as u64, next_request[client], 5);
                next_request[client] += 5;
                step(&mut servers[leader], |s, ctx| s.handle_prop(batch, ctx));
                let ords = step(&mut servers[leader], |s, ctx| s.flush_batch(ctx));
                pump(&mut servers, ords);
            }
        }
        for server in &servers {
            assert_eq!(server.store.latest_seq(), SeqNum(100));
            assert!(server.new_views.is_empty(), "{:?}", server.new_views.keys());
            // One word each of seen and committed, per client.
            assert_eq!(server.clients.words(), 2 * 3);
        }
    }

    #[test]
    fn a_share_for_any_rung_but_the_current_one_is_ignored() {
        let mut servers = cluster(BaselineProtocol::HotStuff);
        let ords = step(&mut servers[1], |s, ctx| s.flush_batch(ctx));
        let digest = servers[1].inflight[&1].digest;
        let replies: Vec<_> = ords
            .into_iter()
            .flat_map(|e| deliver(&mut servers, e))
            .collect();
        assert_eq!(replies.len(), 3);
        let mut replies = replies.into_iter();
        assert!(deliver(&mut servers, replies.next().unwrap()).is_empty());
        let pre_cmts = deliver(&mut servers, replies.next().unwrap());
        assert!(pre_cmts.iter().all(|e| e.2.kind() == "PreCmt"));
        let rung = |servers: &[PassiveBftServer]| {
            let instance = &servers[1].inflight[&1];
            (instance.phase, instance.votes.count())
        };
        assert_eq!(
            rung(&servers),
            (1, 1),
            "the pre-commit rung holds s1's own share"
        );

        // The third OrdReply arrives after the ordering QC formed.
        assert!(deliver(&mut servers, replies.next().unwrap()).is_empty());
        assert_eq!(rung(&servers), (1, 1));

        // A valid commit share arrives before the commit rung opens.
        let registry = Arc::clone(&servers[0].registry);
        let share = sign_share(
            &registry,
            ServerId(0),
            QcKind::Commit,
            View(1),
            SeqNum(1),
            &digest,
        );
        let early = Message::CmtReply {
            view: View(1),
            n: SeqNum(1),
            digest,
            share: share.unwrap(),
        };
        let to_leader = (
            Actor::Server(ServerId(0)),
            Actor::Server(ServerId(1)),
            early,
        );
        assert!(deliver(&mut servers, to_leader).is_empty());
        assert_eq!(rung(&servers), (1, 1));

        // The rest of the ladder still commits the block everywhere.
        let kinds = pump(&mut servers, pre_cmts);
        assert_eq!(kinds.iter().filter(|k| **k == "CommitBlock").count(), 3);
        assert!(servers.iter().all(|s| s.store.latest_seq() == SeqNum(1)));
        assert!(servers[1].inflight.is_empty());
    }

    #[test]
    fn a_leader_that_cannot_commit_votes_itself_out() {
        // s1 orders a block that no follower answers. Its view timer fires
        // with nothing committed, and it votes for view 2's leader, s2.
        let mut servers = cluster(BaselineProtocol::HotStuff);
        step(&mut servers[1], |s, ctx| {
            s.on_start(ctx);
            s.flush_batch(ctx);
        });
        let timer = servers[1].view_timer.expect("armed on start");
        let sent = step(&mut servers[1], |s, ctx| s.on_timer(timer, tags::VIEW, ctx));
        let [(_, to, Message::NewView { view, .. })] = &sent[..] else {
            panic!("expected one NewView, got {sent:?}");
        };
        assert_eq!((*to, *view), (Actor::Server(ServerId(2)), View(2)));
    }

    #[test]
    fn an_ord_that_overtakes_its_view_announce_is_answered_once_the_view_is_entered() {
        // Every replica votes for view 2, which s2 leads; s2 enters it on the
        // quorum and announces it.
        let mut servers = cluster(BaselineProtocol::HotStuff);
        let mut new_views = Vec::new();
        for server in servers.iter_mut() {
            new_views.extend(step(server, |s, ctx| s.send_new_view(ctx)));
        }
        let announces: Vec<_> = (new_views.into_iter())
            .flat_map(|e| deliver(&mut servers, e))
            .filter(|e| e.2.kind() == "NewViewAnnounce")
            .collect();
        assert_eq!(servers[2].current_view(), View(2));
        // s2's first block reaches s0 before the announcement does ...
        let proposals = (1..=5)
            .map(|i| Proposal::new(Transaction::with_size(ClientId(2), i, 16), Digest::ZERO));
        servers[2].pending_proposals.extend(proposals);
        let ords = step(&mut servers[2], |s, ctx| s.flush_batch(ctx));
        let to_s0 = |e: &Envelope| e.1 == Actor::Server(ServerId(0));
        let ord = ords.into_iter().find(to_s0).expect("an Ord for s0");
        assert!(
            deliver(&mut servers, ord).is_empty(),
            "s0 is still in view 1"
        );
        // ... as does an Ord for view 3 from its leader, s3, which s0 never
        // enters.
        let stray = Message::Ord {
            view: View(3),
            n: SeqNum(1),
            batch: Arc::new(Vec::new()),
            digest: Digest::ZERO,
            sig: [0; 32],
        };
        let stray = (
            Actor::Server(ServerId(3)),
            Actor::Server(ServerId(0)),
            stray,
        );
        assert!(deliver(&mut servers, stray).is_empty());
        // Entering view 2 answers s2's Ord and drops the stray.
        let announce = announces
            .into_iter()
            .find(to_s0)
            .expect("an announce for s0");
        let replies = deliver(&mut servers, announce);
        let [(_, to, Message::OrdReply { view, n, .. })] = &replies[..] else {
            panic!("expected one OrdReply, got {replies:?}");
        };
        assert_eq!(
            (*to, *view, *n),
            (Actor::Server(ServerId(2)), View(2), SeqNum(1))
        );
        assert!(servers[0].early_ords.is_empty());
    }

    #[test]
    fn two_phase_replication_never_sends_a_pre_commit() {
        for (protocol, pre_commits) in [
            (BaselineProtocol::ProsecutorLite, 0),
            (BaselineProtocol::HotStuff, 3),
        ] {
            let mut servers = cluster(protocol);
            let ords = step(&mut servers[1], |s, ctx| s.flush_batch(ctx));
            let kinds = pump(&mut servers, ords);
            let count = |kind| kinds.iter().filter(|k| **k == kind).count();
            assert_eq!(count("PreCmt"), pre_commits, "{protocol:?}");
            assert_eq!(count("CommitBlock"), 3, "{protocol:?}");
            let block = servers[0].store.tx_blocks_in(1, 1).next().unwrap();
            assert_eq!(block.ordering_qc.as_ref().unwrap().kind, QcKind::Ordering);
            assert_eq!(block.commit_qc.as_ref().unwrap().kind, QcKind::Commit);
        }
    }

    #[test]
    fn protocol_profiles() {
        let three = [QcKind::Ordering, QcKind::PreCommit, QcKind::Commit];
        assert_eq!(BaselineProtocol::HotStuff.phases(), three);
        assert_eq!(BaselineProtocol::SbftLite.phases(), three);
        assert_eq!(
            BaselineProtocol::ProsecutorLite.phases(),
            [QcKind::Ordering, QcKind::Commit]
        );
        assert_eq!(BaselineProtocol::HotStuff.label(), "hs");
        assert!(BaselineProtocol::SbftLite.extra_block_cpu_ms() > 0.0);
    }

    #[test]
    fn rotation_schedule_decides_initial_leader() {
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(2, 4, 1);
        // View 1: leader is S(1 mod 4) = ServerId(1).
        let s1 = PassiveBftServer::new(
            ServerId(1),
            config.clone(),
            registry.clone(),
            BaselineProtocol::HotStuff,
        );
        let s0 = PassiveBftServer::new(ServerId(0), config, registry, BaselineProtocol::HotStuff);
        assert!(s1.is_leader());
        assert!(!s0.is_leader());
        assert_eq!(s0.current_leader(), ServerId(1));
        assert_eq!(s0.current_view(), View(1));
    }

    #[test]
    fn digests_are_stable() {
        assert_eq!(
            PassiveBftServer::new_view_digest(View(4)),
            PassiveBftServer::new_view_digest(View(4))
        );
        assert_ne!(
            PassiveBftServer::new_view_digest(View(4)),
            PassiveBftServer::new_view_digest(View(5))
        );
    }
}

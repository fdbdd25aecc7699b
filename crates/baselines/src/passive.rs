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

use prestige_core::storage::{block_keys_digest, tx_block_digest, BlockStore};
use prestige_core::{ByzantineBehavior, Pacemaker, ServerStats};
use prestige_crypto::{
    hash_many, keys_digest, sign_share, KeyPair, KeyRegistry, QcBuilder, ThresholdVerifier,
};
use prestige_sim::{cpu_cost, Context, Process, TimerId};
use prestige_types::{
    Actor, ClientId, ClusterConfig, Digest, Message, PartialSig, Proposal, QcKind,
    QuorumCertificate, SeqNum, ServerId, TxBlock, View,
};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
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
    /// Number of QC-building phases before a block commits.
    pub fn phases(&self) -> usize {
        match self {
            BaselineProtocol::HotStuff | BaselineProtocol::SbftLite => 3,
            BaselineProtocol::ProsecutorLite => 2,
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

/// Per-sequence-number replication state on the leader.
#[derive(Debug, Clone)]
struct Instance {
    view: View,
    batch: Arc<Vec<Proposal>>,
    /// The batch's keys digest: the ordering digest's input, reused to link
    /// the committed block into the chain.
    keys: Digest,
    digest: Digest,
    prepare_builder: QcBuilder,
    prepare_qc: Option<QuorumCertificate>,
    precommit_builder: Option<QcBuilder>,
    precommit_qc: Option<QuorumCertificate>,
    commit_builder: Option<QcBuilder>,
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
    /// Whether this replica currently believes it is the leader of `view`.
    leading: bool,
    /// Incoming-leader sync in progress: proposals are held back until the log
    /// has caught up with the highest sequence number reported by peers.
    syncing_until_seq: Option<SeqNum>,
    /// Set once this replica has voted to leave the current view (timeout or
    /// policy rotation): it stops participating in the old view's replication,
    /// exactly like PBFT-style view-change mode. Cleared on entering a view.
    view_change_pending: bool,

    pending_proposals: Vec<Proposal>,
    seen_tx: HashSet<(ClientId, u64)>,
    next_seq: SeqNum,
    inflight: BTreeMap<u64, Instance>,
    acked_digests: HashMap<u64, Digest>,
    /// Out-of-order committed blocks, each beside its keys digest.
    parked_blocks: BTreeMap<u64, (Arc<TxBlock>, Digest)>,

    new_view_builders: HashMap<u64, QcBuilder>,
    new_view_high_seq: HashMap<u64, (SeqNum, ServerId)>,
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
        let leading = config.replicas.rotation_leader(view) == id;
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
            leading,
            syncing_until_seq: None,
            view_change_pending: false,
            pending_proposals: Vec::new(),
            seen_tx: HashSet::new(),
            next_seq: SeqNum(1),
            inflight: BTreeMap::new(),
            acked_digests: HashMap::new(),
            parked_blocks: BTreeMap::new(),
            new_view_builders: HashMap::new(),
            new_view_high_seq: HashMap::new(),
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

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.leading
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

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn handle_prop(&mut self, proposals: Vec<Proposal>, ctx: &mut Context<Message>) {
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        for proposal in proposals {
            let key = proposal.tx.key();
            if self.seen_tx.insert(key) {
                self.pending_proposals.push(proposal);
            }
        }
        if self.leading
            && !self.behavior.silent_as_leader()
            && self.syncing_until_seq.is_none()
            && self.pending_proposals.len() >= self.config.batch_size
        {
            self.flush_batch(ctx);
        }
    }

    fn flush_batch(&mut self, ctx: &mut Context<Message>) {
        if !self.leading || self.behavior.silent_as_leader() || self.syncing_until_seq.is_some() {
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

        let mut prepare_builder = QcBuilder::new(QcKind::Ordering, view, n, digest, self.quorum());
        if let Some(share) = sign_share(&self.registry, self.id, QcKind::Ordering, view, n, &digest)
        {
            let _ = prepare_builder.add_share(&self.registry, &share);
        }
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
                view,
                batch,
                keys,
                digest,
                prepare_builder,
                prepare_qc: None,
                precommit_builder: None,
                precommit_qc: None,
                commit_builder: None,
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
        for proposal in batch.iter() {
            let key = proposal.tx.key();
            if self.seen_tx.insert(key) {
                self.pending_proposals.push(proposal.clone());
            }
        }
        // Progress from the leader: reset the failure-detection timer.
        self.reset_view_timer(ctx);
        let share = if self.behavior.equivocates() {
            PartialSig {
                signer: self.id,
                sig: [0xCC; 32],
            }
        } else {
            match sign_share(&self.registry, self.id, QcKind::Ordering, view, n, &digest) {
                Some(s) => s,
                None => return,
            }
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

    fn handle_ord_reply(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if !self.leading || view != self.view {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        let three_phase = self.protocol.phases() == 3;
        let quorum = self.quorum();
        let registry = Arc::clone(&self.registry);
        let instance = match self.inflight.get_mut(&n.0) {
            Some(i) if i.view == view && i.digest == digest && i.prepare_qc.is_none() => i,
            _ => return,
        };
        if instance
            .prepare_builder
            .add_share(&registry, &share)
            .is_err()
            || !instance.prepare_builder.complete()
        {
            return;
        }
        let prepare_qc = match instance.prepare_builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        instance.prepare_qc = Some(prepare_qc.clone());
        if three_phase {
            let mut builder = QcBuilder::new(QcKind::PreCommit, view, n, digest, quorum);
            if let Some(own) = sign_share(&registry, self.id, QcKind::PreCommit, view, n, &digest) {
                let _ = builder.add_share(&registry, &own);
            }
            instance.precommit_builder = Some(builder);
            let sig = self.keypair.sign(digest.as_ref());
            ctx.broadcast(
                self.other_servers(),
                Message::PreCmt {
                    view,
                    n,
                    prepare_qc,
                    sig,
                },
            );
        } else {
            let mut builder = QcBuilder::new(QcKind::Commit, view, n, digest, quorum);
            if let Some(own) = sign_share(&registry, self.id, QcKind::Commit, view, n, &digest) {
                let _ = builder.add_share(&registry, &own);
            }
            instance.commit_builder = Some(builder);
            let sig = self.keypair.sign(digest.as_ref());
            ctx.broadcast(
                self.other_servers(),
                Message::Cmt {
                    view,
                    n,
                    ordering_qc: prepare_qc,
                    sig,
                },
            );
        }
    }

    /// A follower's vote on a phase QC from the leader. `PreCmt` carries the
    /// prepare QC and asks for a pre-commit share; `Cmt` carries the QC of
    /// the phase before commit (pre-commit with three phases, prepare with
    /// two) and asks for a commit share.
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
        let expected_kind = match vote {
            QcKind::Commit if self.protocol.phases() == 3 => QcKind::PreCommit,
            _ => QcKind::Ordering,
        };
        if phase_qc.kind != expected_kind
            || phase_qc.seq != n
            || ThresholdVerifier::new(&self.registry)
                .verify(&phase_qc, self.quorum())
                .is_err()
        {
            return;
        }
        self.reset_view_timer(ctx);
        let digest = phase_qc.digest;
        let share = if self.behavior.equivocates() {
            PartialSig {
                signer: self.id,
                sig: [0xCD; 32],
            }
        } else {
            match sign_share(&self.registry, self.id, vote, view, n, &digest) {
                Some(s) => s,
                None => return,
            }
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

    fn handle_pre_cmt_reply(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if !self.leading || view != self.view {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        let quorum = self.quorum();
        let registry = Arc::clone(&self.registry);
        let instance = match self.inflight.get_mut(&n.0) {
            Some(i) if i.view == view && i.digest == digest && i.precommit_qc.is_none() => i,
            _ => return,
        };
        let builder = match instance.precommit_builder.as_mut() {
            Some(b) => b,
            None => return,
        };
        if builder.add_share(&registry, &share).is_err() || !builder.complete() {
            return;
        }
        let precommit_qc = match builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        instance.precommit_qc = Some(precommit_qc.clone());
        let mut commit_builder = QcBuilder::new(QcKind::Commit, view, n, digest, quorum);
        if let Some(own) = sign_share(&registry, self.id, QcKind::Commit, view, n, &digest) {
            let _ = commit_builder.add_share(&registry, &own);
        }
        instance.commit_builder = Some(commit_builder);
        let sig = self.keypair.sign(digest.as_ref());
        ctx.broadcast(
            self.other_servers(),
            Message::Cmt {
                view,
                n,
                ordering_qc: precommit_qc,
                sig,
            },
        );
    }

    fn handle_cmt_reply(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if !self.leading || view != self.view {
            return;
        }
        ctx.charge_cpu_ms(cpu_cost::PER_VERIFY_MS);
        let registry = Arc::clone(&self.registry);
        let complete = match self.inflight.get_mut(&n.0) {
            Some(i) if i.view == view && i.digest == digest => match i.commit_builder.as_mut() {
                Some(b) => b.add_share(&registry, &share).is_ok() && b.complete(),
                None => false,
            },
            _ => false,
        };
        if !complete {
            return;
        }
        let instance = self.inflight.remove(&n.0).expect("instance present");
        let commit_qc = instance
            .commit_builder
            .expect("commit builder present")
            .assemble()
            .expect("complete builder assembles");
        let txs: Vec<_> = match Arc::try_unwrap(instance.batch) {
            Ok(batch) => batch.into_iter().map(|p| p.tx).collect(),
            Err(shared) => shared.iter().map(|p| p.tx.clone()).collect(),
        };
        let mut block = TxBlock::new(view, n, txs);
        block.ordering_qc = instance.prepare_qc;
        block.commit_qc = Some(commit_qc);
        ctx.charge_cpu_ms(self.protocol.extra_block_cpu_ms());
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
        self.stats
            .commit_log
            .push((ctx.now().as_ms(), block.tx.len() as u64));
        let mut committed: HashSet<(ClientId, u64)> = HashSet::with_capacity(block.tx.len());
        for tx in &block.tx {
            committed.insert(tx.key());
            self.seen_tx.insert(tx.key());
        }
        self.pending_proposals
            .retain(|p| !committed.contains(&p.tx.key()));
        self.acked_digests.remove(&block.n.0);
        // If we were syncing up as an incoming leader, check whether we are
        // caught up now.
        if let Some(target) = self.syncing_until_seq {
            if self.store.latest_seq() >= target {
                self.syncing_until_seq = None;
                self.next_seq = self.store.latest_seq().next();
            }
        }
        // Notify clients.
        let mut by_client: BTreeMap<ClientId, Vec<(ClientId, u64)>> = BTreeMap::new();
        for tx in &block.tx {
            by_client.entry(tx.client).or_default().push(tx.key());
        }
        for (client, tx_keys) in by_client {
            let sig = self.keypair.sign(&block.n.0.to_be_bytes());
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
        let quorum = self.quorum();
        let registry = Arc::clone(&self.registry);
        let builder = self
            .new_view_builders
            .entry(view.0)
            .or_insert_with(|| QcBuilder::new(QcKind::ViewChange, view, SeqNum(0), digest, quorum));
        if builder.add_share(&registry, &share).is_err() {
            return;
        }
        // Track the highest log position reported so the incoming leader knows
        // how far it must sync.
        let entry = self
            .new_view_high_seq
            .entry(view.0)
            .or_insert((latest_seq, share.signer));
        if latest_seq > entry.0 {
            *entry = (latest_seq, share.signer);
        }
        if !builder.complete() {
            return;
        }
        let qc = match builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        self.new_view_builders.remove(&view.0);
        let (high_seq, high_holder) = self
            .new_view_high_seq
            .remove(&view.0)
            .unwrap_or((self.store.latest_seq(), self.id));
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
        } else {
            self.next_seq = self.store.latest_seq().next();
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
        self.leading = self.config.replicas.rotation_leader(view) == self.id;
        self.inflight.clear();
        self.acked_digests.clear();
        self.syncing_until_seq = None;
        self.view_change_pending = false;
        self.stats.views_installed += 1;
        self.reset_view_timer(ctx);
        if self.leading {
            self.next_seq = self.store.latest_seq().next();
            if !self.behavior.silent_as_leader() {
                self.arm_batch_timer(ctx);
            }
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
        if self.leading && !self.behavior.silent_as_leader() {
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
            } => self.handle_ord_reply(view, n, digest, share, ctx),
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
            } => self.handle_pre_cmt_reply(view, n, digest, share, ctx),
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
            } => self.handle_cmt_reply(view, n, digest, share, ctx),
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
                // No leader progress within the timeout: vote for the next
                // scheduled leader. Faulty scheduled leaders cannot be
                // skipped — this full timeout is the passive protocol's
                // robustness cost.
                self.send_new_view(ctx);
            }
            tags::BATCH if self.leading && !self.behavior.silent_as_leader() => {
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

    #[test]
    fn protocol_profiles() {
        assert_eq!(BaselineProtocol::HotStuff.phases(), 3);
        assert_eq!(BaselineProtocol::SbftLite.phases(), 3);
        assert_eq!(BaselineProtocol::ProsecutorLite.phases(), 2);
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

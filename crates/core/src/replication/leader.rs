//! Leader-side replication: batching, the pipelined ordering window, QC
//! assembly from reply shares, and stalled-instance retransmission.

use super::PIPELINE_DEPTH;
use crate::pacemaker::timer_tags;
use crate::server::{InflightInstance, PrestigeServer, ServerRole};
use prestige_crypto::{keys_digest, ordering_digest, sign_share, QcBuilder};
use prestige_sim::{cpu_cost, Context};
use prestige_types::{
    Actor, Digest, Message, PartialSig, Proposal, QcKind, QuorumCertificate, SeqNum, Transaction,
    TxBlock, View,
};
use std::sync::Arc;

impl PrestigeServer {
    // ------------------------------------------------------------------
    // Client proposals
    // ------------------------------------------------------------------

    /// Handles a `Prop` bundle from a client: buffer new transactions and, if
    /// this server leads and the batch is full, start a consensus instance.
    pub(crate) fn handle_prop(
        &mut self,
        _from: Actor,
        proposals: Vec<Proposal>,
        _client_sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        self.charge_verify_cost(ctx);
        ctx.charge_cpu_ms(cpu_cost::PER_TX_MS * proposals.len() as f64);
        for proposal in proposals {
            if self.clients.note_seen(proposal.tx.key()) {
                self.pending_proposals.push(proposal);
            }
        }
        if self.role == ServerRole::Leader
            && !self.behavior.silent_as_leader()
            && self.pending_proposals.len() >= self.config.batch_size
        {
            self.flush_ready_batches(ctx);
        }
    }

    /// Leader pipeline fill: flushes *full* batches while the in-flight
    /// window has room, so a backlog of proposals floods the window instead
    /// of trickling out one batch per inbound event. Partial batches are left
    /// for the batch timer.
    pub(crate) fn flush_ready_batches(&mut self, ctx: &mut Context<Message>) {
        while self.inflight.len() < PIPELINE_DEPTH
            && self.pending_proposals.len() >= self.config.batch_size
        {
            let before = self.inflight.len();
            self.flush_batch(ctx);
            if self.inflight.len() == before {
                break; // Quiesced (rotation pending, role change, …).
            }
        }
    }

    /// Leader batch flush: assigns the next sequence number to the pending
    /// proposals (up to β of them) and broadcasts the `Ord` message. Respects
    /// the pipeline window: with `PIPELINE_DEPTH` instances already in
    /// flight, the flush waits until a commit frees a slot.
    pub(crate) fn flush_batch(&mut self, ctx: &mut Context<Message>) {
        if self.role != ServerRole::Leader || self.behavior.silent_as_leader() {
            return;
        }
        if self.rotation_pending {
            return; // Replication quiesces ahead of a policy rotation.
        }
        if self.pending_proposals.is_empty() {
            return;
        }
        if self.inflight.len() >= PIPELINE_DEPTH {
            return; // Window full: wait for an in-flight instance to commit.
        }
        let take = self.pending_proposals.len().min(self.config.batch_size);
        // The batch is assembled exactly once and shared: the broadcast `Ord`
        // and the leader's in-flight instance reference the same allocation.
        let batch: Arc<Vec<Proposal>> = Arc::new(self.pending_proposals.drain(..take).collect());
        let n = self.next_seq;
        self.next_seq = self.next_seq.next();
        self.propose_batch_at(n, batch, ctx);
    }

    /// Leader ordering round for `batch` at sequence number `n` in the
    /// current view: broadcast the `Ord` and open the in-flight instance.
    /// Used by [`Self::flush_batch`] for fresh batches and by the view-change
    /// installation to re-propose preserved ordered batches at their
    /// original sequence numbers.
    pub(crate) fn propose_batch_at(
        &mut self,
        n: SeqNum,
        batch: Arc<Vec<Proposal>>,
        ctx: &mut Context<Message>,
    ) {
        if self.role != ServerRole::Leader || self.behavior.silent_as_leader() {
            return;
        }
        let view = self.current_view();
        let keys = keys_digest(batch.iter().map(|p| p.tx.key()));
        let digest = ordering_digest(view, n, &keys);
        ctx.charge_cpu_ms(cpu_cost::PER_TX_MS * batch.len() as f64);

        let mut ordering_builder =
            QcBuilder::new(QcKind::Ordering, view, n, digest, self.config.quorum());
        if let Some(share) = sign_share(&self.registry, self.id, QcKind::Ordering, view, n, &digest)
        {
            let _ = ordering_builder.add_share(&self.registry, &share);
        }
        let sig = self.sign(digest.as_ref());
        let message = Message::Ord {
            view,
            n,
            batch: Arc::clone(&batch),
            digest,
            sig,
        };
        ctx.broadcast(self.other_servers(), message);
        self.inflight.insert(
            n.0,
            InflightInstance {
                view,
                batch,
                keys,
                digest,
                ordering_builder,
                ordering_qc: None,
                commit_builder: None,
                last_sent_ms: ctx.now().as_ms(),
                last_progress_ms: ctx.now().as_ms(),
            },
        );
    }

    /// Re-broadcasts the current phase message of every in-flight instance
    /// whose quorum has stalled past [`Self::retransmit_interval_ms`]: `Cmt`
    /// when the ordering QC is already assembled, `Ord` otherwise. This is
    /// what lets a leader whose broadcasts were lost (backpressure shed, a
    /// partition that healed) make progress again instead of wedging with a
    /// full window; followers handle both messages idempotently and re-send
    /// their shares. Staleness is measured from the *later* of the last
    /// broadcast and the last share arrival: an instance whose quorum is
    /// actively filling is healthy, and re-broadcasting it would flood the
    /// cluster with duplicate work exactly when it is busiest (the measured
    /// p99 tail at peak throughput).
    pub(crate) fn retransmit_stalled_instances(&mut self, ctx: &mut Context<Message>) {
        let now = ctx.now().as_ms();
        let interval = self.retransmit_interval_ms();
        type Stalled = (
            u64,
            View,
            Option<QuorumCertificate>,
            Arc<Vec<Proposal>>,
            Digest,
        );
        let mut stalled: Vec<Stalled> = Vec::new();
        for (n, instance) in self.inflight.iter_mut() {
            if now - instance.last_sent_ms.max(instance.last_progress_ms) < interval {
                continue;
            }
            instance.last_sent_ms = now;
            stalled.push((
                *n,
                instance.view,
                instance.ordering_qc.clone(),
                Arc::clone(&instance.batch),
                instance.digest,
            ));
        }
        for (n, view, ordering_qc, batch, digest) in stalled {
            self.stats.instance_retransmits += 1;
            let sig = self.sign(digest.as_ref());
            let message = match ordering_qc {
                Some(ordering_qc) => Message::Cmt {
                    view,
                    n: SeqNum(n),
                    ordering_qc,
                    sig,
                },
                None => Message::Ord {
                    view,
                    n: SeqNum(n),
                    batch,
                    digest,
                    sig,
                },
            };
            ctx.broadcast(self.other_servers(), message);
        }
    }

    /// Leader batch timer: flush whatever is pending (even a partial batch)
    /// and re-arm. Equivocating leaders emit garbage traffic instead.
    pub(crate) fn on_batch_timer(&mut self, ctx: &mut Context<Message>) {
        if self.role != ServerRole::Leader {
            self.batch_timer_armed = false;
            return;
        }
        if self.behavior.silent_as_leader() {
            self.batch_timer_armed = false;
            return;
        }
        if self.behavior.equivocates() {
            // F3 / F4+F3: spray an invalid ordering message (bad signature) —
            // it consumes bandwidth and verification CPU but commits nothing.
            let view = self.current_view();
            let n = self.next_seq;
            let message = Message::Ord {
                view,
                n,
                batch: Arc::new(Vec::new()),
                digest: Digest::ZERO,
                sig: [0xEE; 32],
            };
            ctx.broadcast(self.other_servers(), message);
        } else {
            // Fill the window with full batches, then flush any partial
            // remainder so stragglers never wait longer than one interval.
            self.flush_ready_batches(ctx);
            self.flush_batch(ctx);
            // Nudge instances whose quorum has stalled (lost messages): a
            // wedged window otherwise blocks the pipeline forever.
            self.retransmit_stalled_instances(ctx);
        }
        ctx.set_timer(self.pacemaker.batch_interval(), timer_tags::BATCH);
        self.batch_timer_armed = true;
    }

    // ------------------------------------------------------------------
    // Reply shares → quorum certificates
    // ------------------------------------------------------------------

    /// Leader handling of an `OrdReply` share: verify it into the matching
    /// in-flight instance; completing the quorum broadcasts `Cmt`.
    pub(crate) fn handle_ord_reply(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if self.role != ServerRole::Leader || view != self.current_view() {
            return;
        }
        self.charge_verify_cost(ctx);
        let instance = match self.inflight.get_mut(&n.0) {
            Some(i) if i.view == view && i.digest == digest && i.ordering_qc.is_none() => i,
            _ => return,
        };
        if instance
            .ordering_builder
            .add_share(&self.registry, &share)
            .is_err()
        {
            self.stats.verify_rejected += 1;
            return;
        }
        // A share landed: the quorum is filling in, hold the retransmitter.
        instance.last_progress_ms = ctx.now().as_ms();
        if !instance.ordering_builder.complete() {
            return;
        }
        let ordering_qc = match instance.ordering_builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        instance.ordering_qc = Some(ordering_qc.clone());
        let mut commit_builder =
            QcBuilder::new(QcKind::Commit, view, n, digest, self.config.quorum());
        if let Some(own) = sign_share(&self.registry, self.id, QcKind::Commit, view, n, &digest) {
            let _ = commit_builder.add_share(&self.registry, &own);
        }
        instance.commit_builder = Some(commit_builder);
        // Certified recovery plane: the assembled QC plus the in-flight batch
        // make this instance provable, so the leader's own future campaigns
        // can claim it and sync answers can serve it. Pruned when the
        // instance commits.
        let batch = Arc::clone(&instance.batch);
        self.record_ord_qc(n.0, &ordering_qc);
        self.instances.entry(n.0).or_default().batch = Some(batch);
        // The leader assembled this QC from verified shares: seed the memo so
        // it is never re-verified if it comes back around (e.g. via sync).
        let memo = Self::qc_memo_key(&ordering_qc, self.config.quorum());
        self.memoize_qc(memo);
        let sig = self.sign(digest.as_ref());
        ctx.broadcast(
            self.other_servers(),
            Message::Cmt {
                view,
                n,
                ordering_qc,
                sig,
            },
        );
    }

    /// Leader handling of a `CmtReply` share: verify it into the matching
    /// in-flight instance; once 2f+1 arrive, the block is committed,
    /// broadcast, clients are notified, and the pipeline window refills.
    pub(crate) fn handle_cmt_reply(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if self.role != ServerRole::Leader || view != self.current_view() {
            return;
        }
        self.charge_verify_cost(ctx);
        let instance = match self.inflight.get_mut(&n.0) {
            Some(i) if i.view == view && i.digest == digest => i,
            _ => return,
        };
        let Some(builder) = instance.commit_builder.as_mut() else {
            return;
        };
        if builder.add_share(&self.registry, &share).is_err() {
            self.stats.verify_rejected += 1;
            return;
        }
        // A share landed: the quorum is filling in, hold the retransmitter.
        instance.last_progress_ms = ctx.now().as_ms();
        if !builder.complete() {
            return;
        }
        let commit_qc = match builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        let memo = Self::qc_memo_key(&commit_qc, self.config.quorum());
        self.memoize_qc(memo);
        let instance = self.inflight.remove(&n.0).expect("instance present");
        // The instance is committing: release the certificate-store
        // references first (`handle_ord_reply` recorded them for the
        // recovery plane) so the batch is uniquely held again and the
        // transactions move straight into the block. A still-shared batch
        // falls back to per-transaction clones. `drain` allocates an
        // exact-size `Vec<Transaction>`; `into_iter` would collect in place
        // and keep the larger proposal buffer alive inside the stored block.
        // The record itself stays until the block applies: a block parked
        // behind a gap must not drop a commit-sign view C3 still checks.
        if let Some(record) = self.instances.get_mut(&n.0) {
            record.batch = None;
            record.ord_qc = None;
        }
        let txs: Vec<Transaction> = match Arc::try_unwrap(instance.batch) {
            Ok(mut batch) => batch.drain(..).map(|p| p.tx).collect(),
            Err(shared) => shared.iter().map(|p| p.tx.clone()).collect(),
        };
        let mut block = TxBlock::new(view, n, txs);
        block.ordering_qc = instance.ordering_qc;
        block.commit_qc = Some(commit_qc);

        // Apply locally first: the store adopts the uniquely held block
        // without copying, and the stored, chain-linked form is what fans out
        // as `CommitBlock` — zero deep copies end to end. The keys digest
        // hashed at proposal time links it into the chain.
        let me = Actor::Server(self.id);
        self.apply_committed_block(me, Arc::new(block), instance.keys, ctx);
        // A window slot just freed up: keep the pipeline full.
        self.flush_ready_batches(ctx);
    }
}

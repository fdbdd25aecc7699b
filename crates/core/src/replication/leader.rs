//! Leader-side replication: batching, the pipelined ordering window, QC
//! assembly from reply shares, and stalled-instance retransmission.

use super::PIPELINE_DEPTH;
use crate::pacemaker::timer_tags;
use crate::server::{Leading, OrderedAck, PrestigeServer};
use prestige_crypto::{keys_digest, ordering_digest};
use prestige_sim::{cpu_cost, Context};
use prestige_types::{
    Actor, Digest, Message, PartialSig, Proposal, QcKind, QuorumCertificate, SeqNum, TxBlock, View,
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
        self.clients
            .pool_unseen(proposals, &mut self.pending_proposals);
        if self.is_leader()
            && !self.behavior.silent_as_leader()
            && self.pending_proposals.len() >= self.config.batch_size
        {
            self.flush_ready_batches(ctx);
        }
    }

    /// The pipeline window's occupancy: instances this leader proposed in
    /// the current view whose commit quorum has not formed yet.
    pub(crate) fn in_flight(&self) -> usize {
        self.instances.values().filter(|r| r.lead.is_some()).count()
    }

    /// Leader pipeline fill: flushes *full* batches while the in-flight
    /// window has room, so a backlog of proposals floods the window instead
    /// of trickling out one batch per inbound event. Partial batches are left
    /// for the batch timer.
    pub(crate) fn flush_ready_batches(&mut self, ctx: &mut Context<Message>) {
        while self.in_flight() < PIPELINE_DEPTH
            && self.pending_proposals.len() >= self.config.batch_size
        {
            let before = self.in_flight();
            self.flush_batch(ctx);
            if self.in_flight() == before {
                break; // Quiesced (rotation pending, role change, …).
            }
        }
    }

    /// Leader batch flush: assigns the next sequence number to the pending
    /// proposals (up to β of them) and broadcasts the `Ord` message. Respects
    /// the pipeline window: with `PIPELINE_DEPTH` instances already in
    /// flight, the flush waits until a commit frees a slot.
    pub(crate) fn flush_batch(&mut self, ctx: &mut Context<Message>) {
        if !self.is_leader() || self.behavior.silent_as_leader() {
            return;
        }
        if self.rotation_pending {
            return; // Replication quiesces ahead of a policy rotation.
        }
        if self.pending_proposals.is_empty() {
            return;
        }
        if self.in_flight() >= PIPELINE_DEPTH {
            return; // Window full: wait for an in-flight instance to commit.
        }
        let take = self.pending_proposals.len().min(self.config.batch_size);
        // The batch is assembled exactly once and shared: the broadcast `Ord`
        // and the leader's instance record reference the same allocation.
        let batch: Arc<Vec<Proposal>> = Arc::new(self.pending_proposals.drain(..take).collect());
        let n = self.next_seq;
        self.next_seq = self.next_seq.next();
        self.propose_batch_at(n, batch, ctx);
    }

    /// Leader ordering round for `batch` at sequence number `n` in the
    /// current view: broadcast the `Ord`, record the proposal as this
    /// leader's acknowledgement, and open the ordering quorum.
    /// Used by [`Self::flush_batch`] for fresh batches and by the view-change
    /// installation to re-propose preserved ordered batches at their
    /// original sequence numbers.
    pub(crate) fn propose_batch_at(
        &mut self,
        n: SeqNum,
        batch: Arc<Vec<Proposal>>,
        ctx: &mut Context<Message>,
    ) {
        if !self.is_leader() || self.behavior.silent_as_leader() {
            return;
        }
        let view = self.current_view();
        let keys = keys_digest(batch.iter().map(|p| p.tx.key()));
        let digest = ordering_digest(view, n, &keys);
        ctx.charge_cpu_ms(cpu_cost::PER_TX_MS * batch.len() as f64);

        let (quorum, _) = self.open_quorum(QcKind::Ordering, view, n, digest, self.config.quorum());
        let sig = self.sign(digest.as_ref());
        let message = Message::Ord {
            view,
            n,
            batch: Arc::clone(&batch),
            digest,
            sig,
        };
        ctx.broadcast(self.other_servers(), message);
        let record = self.instances.entry(n.0).or_default();
        record.ack = Some(OrderedAck {
            digest,
            keys,
            batch,
        });
        record.lead = Some(Leading {
            ordering_qc: None,
            quorum,
            last_active_ms: ctx.now().as_ms(),
        });
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
        let view = self.current_view();
        let mut stalled = Vec::new();
        for (&n, record) in self.instances.iter_mut() {
            let (Some(lead), Some(ack)) = (&mut record.lead, &record.ack) else {
                continue;
            };
            if now - lead.last_active_ms < interval {
                continue;
            }
            lead.last_active_ms = now;
            let n = SeqNum(n);
            let sig = self.keypair.sign(ack.digest.as_ref());
            stalled.push(match &lead.ordering_qc {
                Some(ordering_qc) => Message::Cmt {
                    view,
                    n,
                    ordering_qc: ordering_qc.clone(),
                    sig,
                },
                None => Message::Ord {
                    view,
                    n,
                    batch: Arc::clone(&ack.batch),
                    digest: ack.digest,
                    sig,
                },
            });
        }
        for message in stalled {
            self.stats.instance_retransmits += 1;
            ctx.broadcast(self.other_servers(), message);
        }
    }

    /// Leader batch timer: flush whatever is pending (even a partial batch)
    /// and re-arm. Equivocating leaders emit garbage traffic instead.
    pub(crate) fn on_batch_timer(&mut self, ctx: &mut Context<Message>) {
        if !self.is_leader() || self.behavior.silent_as_leader() {
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
    }

    // ------------------------------------------------------------------
    // Reply shares → quorum certificates
    // ------------------------------------------------------------------

    /// Verifies a reply share into the open quorum of instance `n`, if this
    /// leader proposed it in `view` over `digest` and the quorum is in the
    /// share's `phase`: ordering until the ordering QC forms, commit after.
    /// A share for the other phase is ignored. Returns the certificate the
    /// share completes.
    fn add_reply_share(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        phase: QcKind,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) -> Option<QuorumCertificate> {
        if !self.is_leader() || view != self.current_view() {
            return None;
        }
        self.charge_verify_cost(ctx);
        let record = self.instances.get_mut(&n.0)?;
        let (Some(lead), Some(ack)) = (&mut record.lead, &record.ack) else {
            return None;
        };
        let open = match lead.ordering_qc {
            None => QcKind::Ordering,
            Some(_) => QcKind::Commit,
        };
        if ack.digest != digest || open != phase {
            return None;
        }
        if lead.quorum.add_share(&self.registry, &share).is_err() {
            self.stats.verify_rejected += 1;
            return None;
        }
        // A share landed: the quorum is filling in, hold the retransmitter.
        lead.last_active_ms = ctx.now().as_ms();
        if !lead.quorum.complete() {
            return None;
        }
        lead.quorum.assemble().ok()
    }

    /// Leader handling of an `OrdReply` share: completing the ordering
    /// quorum opens the commit quorum and broadcasts `Cmt`.
    pub(crate) fn handle_ord_reply(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        let phase = QcKind::Ordering;
        let Some(ordering_qc) = self.add_reply_share(view, n, digest, phase, share, ctx) else {
            return;
        };
        let (quorum, _) = self.open_quorum(QcKind::Commit, view, n, digest, self.config.quorum());
        let Some(record) = self.instances.get_mut(&n.0) else {
            return;
        };
        if let (Some(lead), Some(ack)) = (&mut record.lead, &record.ack) {
            lead.ordering_qc = Some(ordering_qc.clone());
            lead.quorum = quorum;
            // Certified recovery plane: the assembled QC plus the proposed
            // batch make this instance provable, so the leader's own future
            // campaigns can claim it and sync answers can serve it. Released
            // when the instance commits.
            record.batch = Some(Arc::clone(&ack.batch));
        }
        self.record_ord_qc(n.0, &ordering_qc);
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

    /// Leader handling of a `CmtReply` share: once 2f+1 arrive, the block is
    /// committed, broadcast, clients are notified, and the pipeline window
    /// refills.
    pub(crate) fn handle_cmt_reply(
        &mut self,
        view: View,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        let phase = QcKind::Commit;
        let Some(commit_qc) = self.add_reply_share(view, n, digest, phase, share, ctx) else {
            return;
        };
        let memo = Self::qc_memo_key(&commit_qc, self.config.quorum());
        self.memoize_qc(memo);
        // The instance is committing: its leader state leaves the record,
        // and so do the certificate-store references `handle_ord_reply`
        // recorded for the recovery plane. The block's transactions share
        // their payloads with the batch. The record itself stays until the
        // block applies: a block parked behind a gap must not drop a
        // commit-sign view C3 still checks.
        let Some(record) = self.instances.get_mut(&n.0) else {
            return;
        };
        let (Some(lead), Some(ack)) = (record.lead.take(), record.ack.take()) else {
            return;
        };
        record.batch = None;
        record.ord_qc = None;
        let txs = ack.batch.iter().map(|p| p.tx.clone()).collect();
        let mut block = TxBlock::new(view, n, txs);
        block.ordering_qc = lead.ordering_qc;
        block.commit_qc = Some(commit_qc);

        // Apply locally first: the store adopts the uniquely held block
        // without copying, and the stored, chain-linked form is what fans out
        // as `CommitBlock` — zero deep copies end to end. The keys digest
        // hashed at proposal time links it into the chain.
        let me = Actor::Server(self.id);
        self.apply_committed_block(me, Arc::new(block), ack.keys, ctx);
        // A window slot just freed up: keep the pipeline full.
        self.flush_ready_batches(ctx);
    }
}

//! Follower-side replication: the `Ord` / `Cmt` / `CommitBlock` receive
//! handlers. This is where the certified recovery plane gets its raw
//! material — commit-signing an instance records the per-instance ordering
//! view the election check holds candidates to, and the ordering
//! QC arriving inside `Cmt` is stored so this server's own future campaigns
//! can *prove* their tip claims — and where the Byzantine double-assign
//! avenue is closed (a batch re-assigning an already-committed transaction
//! is refused before it can earn a phase-1 share).

use super::PIPELINE_DEPTH;
use crate::profile::{LoopProfile, LoopStage};
use crate::server::{OrderedAck, PrestigeServer};
use prestige_crypto::{keys_digest, ordering_digest, sign_share};
use prestige_sim::{cpu_cost, Context};
use prestige_types::{
    key_runs, Actor, Digest, Message, PartialSig, Proposal, QcKind, QuorumCertificate, SeqNum,
    TxBlock, View,
};
use std::sync::Arc;

impl PrestigeServer {
    /// Whether two batches carry the same transactions in the same order —
    /// the content-identity check behind re-proposal acceptance (digests
    /// cannot be compared across views, since they bind the ordering view).
    pub(crate) fn same_proposal_keys(a: &[Proposal], b: &[Proposal]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.tx.key() == y.tx.key())
    }

    /// Records an ordered batch (shared handle, no copies) so a later leader
    /// can re-propose these proposals if the instance never commits — the
    /// one adoption path shared by live orderings and synced certified
    /// entries. A request first seen here (not via `Prop`, not committed)
    /// becomes *ordered-only* in the client table; commits clear that, so
    /// only genuinely uncommitted transactions survive into a view-change
    /// re-propose.
    pub(crate) fn remember_ordered_batch(&mut self, n: u64, batch: &Arc<Vec<Proposal>>) {
        for run in key_runs(batch, |p| p.tx.key()) {
            self.clients.note_ordered_run(&run);
        }
        self.instances.entry(n).or_default().batch = Some(Arc::clone(batch));
    }

    /// The batch held for instance `n`, if any.
    pub(crate) fn held_batch(&self, n: u64) -> Option<&Arc<Vec<Proposal>>> {
        self.instances.get(&n)?.batch.as_ref()
    }

    // ------------------------------------------------------------------
    // Phase 1: ordering
    // ------------------------------------------------------------------

    /// Follower handling of the leader's `Ord` message: guard, verify the
    /// leader signature and the batch digest, record the ordering, and reply
    /// with a phase-1 share.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_ord(
        &mut self,
        from: Actor,
        view: View,
        n: SeqNum,
        batch: Arc<Vec<Proposal>>,
        digest: Digest,
        sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        // Servers never respond to a leader of a lower view, and only the
        // current leader may order.
        if view != self.current_view() || from != Actor::Server(self.current_leader()) {
            return;
        }
        if self.rotation_pending {
            return; // Replication quiesces ahead of a policy rotation.
        }
        if n <= self.store.latest_seq() {
            return;
        }
        // A sequence number must not be reused with a different payload —
        // checked before paying for any crypto.
        if let Some(ack) = self.instances.get(&n.0).and_then(|r| r.ack.as_ref()) {
            if ack.digest != digest {
                return;
            }
        }
        self.charge_verify_cost(ctx);
        let span = LoopProfile::begin(&self.profiler);
        // The batch's keys are hashed here once; the keys digest is kept
        // with the acknowledgement and links the committed block into the
        // chain later.
        let keys = self
            .registry
            .verify(from, digest.as_ref(), &sig)
            .then(|| {
                ctx.charge_cpu_ms(cpu_cost::PER_TX_MS * batch.len() as f64);
                keys_digest(batch.iter().map(|p| p.tx.key()))
            })
            .filter(|keys| ordering_digest(view, n, keys) == digest);
        LoopProfile::end_sub(&self.profiler, span, LoopStage::InlineVerify);
        let Some(keys) = keys else {
            self.stats.verify_rejected += 1;
            return;
        };
        // Bound how far ahead of the committed tip an ordering may run:
        // an honest leader never exceeds its pipeline window plus this
        // follower's commit lag, while a Byzantine leader could otherwise
        // stuff `instances` with far-future entries that are now
        // retained across view changes. A refused legitimate `Ord` (extreme
        // commit lag) is repaired by the leader's retransmission.
        if n.0 > self.store.latest_seq().0 + PIPELINE_DEPTH as u64 + 1024 {
            return;
        }
        // Certified-content pinning: once this follower holds the ordering
        // QC of instance `n` (it commit-signed it, or adopted it through
        // sync), that certificate names the only content that may ever
        // commit there — a commit QC for it may already exist somewhere.
        // Only a content-identical re-proposal earns an acknowledgement;
        // conflicting content is refused, and a certified instance whose
        // batch this follower does not hold is refused *until the recovery
        // plane supplies it* (an ack must never endorse content the
        // follower cannot check against its certificate; the batch is asked
        // for where the certificate arrived, in `handle_cmt`, or by the
        // repair tick after a restart). This is what
        // stops a Byzantine leader that was legitimately elected on
        // genuine QCs — but without the batches behind them — from
        // re-filling a possibly-committed instance with fresh content:
        // every conflicting ordering quorum would need 2f+1 acks, and it
        // intersects the instance's 2f+1 commit signers in a correct
        // server that refuses here.
        // Canary mutation (vopr mutation-score gate): cert-pinning is part of
        // the post-PR 4 fork defense — without it a newly elected leader that
        // ignores certified-but-uncommitted instances can refill them with
        // fresh content and still earn an ordering quorum.
        #[cfg(not(feature = "canary-c3-fork"))]
        if let Some(qc) = self.instances.get(&n.0).and_then(|r| r.ord_qc.as_ref()) {
            // Acceptable iff the content provably matches the certificate:
            // either it equals the batch held for the instance, or the
            // incoming (view, digest) *is* the certified statement itself
            // (the digest binds the content, so this is the certified
            // payload arriving — possibly for the first time).
            let is_certified_payload = (qc.view, qc.digest) == (view, digest);
            let held = self.held_batch(n.0);
            let matches_held = held.is_some_and(|held| Self::same_proposal_keys(held, &batch));
            if !is_certified_payload && !matches_held {
                if held.is_some() {
                    // Conflicting content for a certified instance.
                    self.stats.double_assign_refused += 1;
                }
                return;
            }
        }
        // Double-assign cross-check: a batch containing a transaction that
        // already committed in some block is only acceptable when it is the
        // verbatim re-proposal of an instance this follower already holds
        // (committed-instance preservation re-runs the ordering of exactly
        // the preserved content in a new view — and the race where the
        // earlier commit lands *after* the ack is closed at apply time by
        // the deterministic `status` dedup). Anything else is a Byzantine
        // leader assigning one transaction to two instances: refuse before
        // it can earn a phase-1 share.
        // Canary mutation (vopr mutation-score gate): this cross-check is one
        // of the three defenses PR 5 added against the post-election silent
        // double-commit; `canary-double-commit` removes all three.
        #[cfg(not(feature = "canary-double-commit"))]
        if key_runs(&batch, |p| p.tx.key()).any(|run| self.clients.any_committed(&run)) {
            let verbatim_repropose = self
                .held_batch(n.0)
                .is_some_and(|held| Self::same_proposal_keys(held, &batch));
            if !verbatim_repropose {
                self.stats.double_assign_refused += 1;
                return;
            }
        }
        self.instances.entry(n.0).or_default().ack = Some(OrderedAck {
            digest,
            keys,
            batch: Arc::clone(&batch),
        });
        self.remember_ordered_batch(n.0, &batch);

        let share = if self.behavior.equivocates() {
            // F3: reply with a corrupted share.
            PartialSig {
                signer: self.id,
                sig: [0xBA; 32],
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

    // ------------------------------------------------------------------
    // Phase 2: commit
    // ------------------------------------------------------------------

    /// Follower handling of the leader's `Cmt` message: structural guards,
    /// then the (memoized) ordering-QC check, then the phase-2 share.
    pub(crate) fn handle_cmt(
        &mut self,
        from: Actor,
        view: View,
        n: SeqNum,
        ordering_qc: QuorumCertificate,
        _sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        if view != self.current_view() || from != Actor::Server(self.current_leader()) {
            return;
        }
        if self.rotation_pending {
            return;
        }
        if ordering_qc.kind != QcKind::Ordering || ordering_qc.view != view || ordering_qc.seq != n
        {
            return;
        }
        // A memo hit (typically: this follower acknowledged the ordering
        // itself and already saw this exact certificate) skips the crypto.
        if !self.verify_qc_cached(&ordering_qc, self.config.quorum(), ctx) {
            return;
        }
        if n <= self.store.latest_seq() {
            return; // Already committed: the share can no longer matter.
        }
        let digest = ordering_qc.digest;
        // Certified recovery plane: the validated ordering QC is this
        // server's *proof* of the instance. Store it for future tip
        // certificates and sync answers. Without an ack for the certified
        // digest this server signs an instance it cannot re-propose: it never
        // saw the `Ord` (lost broadcast), or its batch lost the ordering race
        // (an equivocating leader sent it the minority payload, dropped
        // here). Either way the share below still counts toward the quorum,
        // and the certified batch is fetched from the leader — the one place
        // that asks for it.
        self.record_ord_qc(n.0, &ordering_qc);
        let record = self.instances.entry(n.0).or_default();
        if record.ack.as_ref().is_none_or(|ack| ack.digest != digest) {
            if record.ack.is_some() {
                record.batch = None;
            }
            self.request_sync(from, n.0, ctx);
        }
        let share = if self.behavior.equivocates() {
            PartialSig {
                signer: self.id,
                sig: [0xBB; 32],
            }
        } else {
            match sign_share(&self.registry, self.id, QcKind::Commit, view, n, &digest) {
                Some(s) => s,
                None => return,
            }
        };
        // This share may complete a commit QC this server never hears about
        // again (leader crash or partition right after assembly); C3 uses the
        // recorded tip — and the per-instance record below — to refuse
        // electing any candidate that could not re-propose the instance
        // (committed-instance preservation, now certificate-checked). The
        // record must also survive *this server* crashing: log the ordering
        // QC before the share leaves, so a restarted replica keeps refusing
        // candidates that cannot cover the instance.
        self.wal_append(prestige_storage::WalRecordRef::OrdQc(&ordering_qc));
        self.signed_commit_tip = self.signed_commit_tip.max(n.0);
        self.instances.entry(n.0).or_default().signed = Some(view);
        ctx.send(
            from,
            Message::CmtReply {
                view,
                n,
                digest,
                share,
            },
        );
    }

    /// Follower handling of the finalized `CommitBlock` broadcast.
    ///
    /// The relayer is trusted with nothing but a catch-up question, and its
    /// signature is ignored: committed blocks may legitimately arrive from
    /// the leader of an earlier view during a view change, or via sync from
    /// any peer, so the whole proof is carried by the block itself — two
    /// quorum QCs of one view over one digest, and a body that hashes to
    /// that digest ([`Self::verify_and_apply_block`]). Each certificate is
    /// verified at most once per node: the ordering QC was usually already
    /// checked when it arrived inside `Cmt`, so only the commit QC costs
    /// anything here.
    pub(crate) fn handle_commit_block(
        &mut self,
        from: Actor,
        block: Arc<TxBlock>,
        _sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        if block.n <= self.store.latest_seq() {
            return; // Stale: no point paying for crypto.
        }
        self.verify_and_apply_block(from, block, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_qc, with_ctx};
    use super::*;
    use crate::server::PrestigeServer;
    use prestige_crypto::KeyRegistry;
    use prestige_sim::{Emission, Process};
    use prestige_types::{ClientId, ClusterConfig, ServerId, Transaction};

    fn deliver_ord(
        follower: &mut PrestigeServer,
        registry: &KeyRegistry,
        view: View,
        n: u64,
        batch: Vec<Proposal>,
    ) -> bool {
        let digest = PrestigeServer::batch_digest(view, SeqNum(n), &batch);
        let leader = Actor::Server(ServerId(0));
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        let effects = with_ctx(follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Ord {
                    view,
                    n: SeqNum(n),
                    batch: Arc::new(batch),
                    digest,
                    sig,
                },
                ctx,
            );
        });
        effects
            .emissions
            .iter()
            .any(|e| matches!(e, Emission::Send(_, Message::OrdReply { .. })))
    }

    /// A block at `(view, n)` with body `body` whose two quorum QCs certify
    /// the batch `certified` — the ordering QC formed in `ord_view`, the
    /// commit QC in `cmt_view`. Genuine blocks have the two batches and all
    /// three views equal.
    fn certified_block(
        registry: &KeyRegistry,
        (view, ord_view, cmt_view): (View, View, View),
        n: u64,
        certified: &[Transaction],
        body: Vec<Transaction>,
    ) -> TxBlock {
        let quorum = ClusterConfig::new(4).quorum();
        let batch: Vec<Proposal> = certified
            .iter()
            .map(|tx| Proposal::new(tx.clone(), Digest::ZERO))
            .collect();
        let digest = PrestigeServer::batch_digest(ord_view, SeqNum(n), &batch);
        let qc = |kind, view| build_qc(registry, kind, view, SeqNum(n), digest, quorum);
        let mut block = TxBlock::new(view, SeqNum(n), body);
        block.ordering_qc = Some(qc(QcKind::Ordering, ord_view));
        block.commit_qc = Some(qc(QcKind::Commit, cmt_view));
        block
    }

    fn commit_block(
        follower: &mut PrestigeServer,
        registry: &KeyRegistry,
        view: View,
        n: u64,
        txs: Vec<Transaction>,
    ) {
        let block = certified_block(registry, (view, view, view), n, &txs, txs.clone());
        with_ctx(follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::CommitBlock {
                    block: Arc::new(block),
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
    }

    #[test]
    fn blocks_whose_qcs_do_not_certify_their_body_are_refused() {
        // Genuine quorum QCs over `{(c1, 100)}` carried with the body
        // `{(c1, 999)}`, relayed by s3 — not the leader — under a zero
        // signature, live and over the sync plane (how a lagging replica
        // learns its prefix); and a block whose body and digests agree but
        // whose ordering quorum formed in view 1 and its commit quorum in
        // view 2, so no single instance was both ordered and committed.
        let registry = KeyRegistry::new(9, 4, 2);
        let certified = [Transaction::with_size(ClientId(1), 100, 16)];
        let swapped = vec![Transaction::with_size(ClientId(1), 999, 16)];
        let one = (View(1), View(1), View(1));
        let swap = certified_block(&registry, one, 1, &certified, swapped);
        let split = (View(1), View(1), View(2));
        let split = certified_block(&registry, split, 1, &certified, certified.to_vec());
        let live = |block| Message::CommitBlock {
            block: Arc::new(block),
            sig: [0u8; 32],
        };
        let synced = Message::SyncResp {
            vc_blocks: Vec::new(),
            tx_blocks: vec![swap.clone()],
            ordered: Vec::new(),
            ckpt: None,
        };
        for message in [live(swap), synced, live(split)] {
            let mut follower =
                PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
            with_ctx(&mut follower, |s, ctx| {
                s.on_message(Actor::Server(ServerId(3)), message, ctx)
            });
            assert_eq!(
                follower.store().latest_seq(),
                SeqNum(0),
                "an uncertified body must not enter the chain"
            );
            assert_eq!(follower.stats().verify_rejected, 1);
        }
    }

    #[test]
    fn a_held_batch_replaced_after_the_ack_does_not_vouch_for_a_swapped_body() {
        // The follower acknowledged `{(c1, 100)}` at instance 1; sync repair
        // (or the leader path) then replaces the batch it *holds* for the
        // instance. The acknowledgement vouches only for the batch that was
        // hashed, so a block carrying the replacement under the
        // acknowledged digest's QCs is refused, and the genuine one applies.
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let certified = [Transaction::with_size(ClientId(1), 100, 16)];
        let swapped = vec![Transaction::with_size(ClientId(1), 999, 16)];
        let proposals = |txs: &[Transaction]| -> Vec<Proposal> {
            let propose = |tx: &Transaction| Proposal::new(tx.clone(), Digest::ZERO);
            txs.iter().map(propose).collect()
        };
        assert!(deliver_ord(
            &mut follower,
            &registry,
            View(1),
            1,
            proposals(&certified)
        ));
        follower.instances.get_mut(&1).unwrap().batch = Some(Arc::new(proposals(&swapped)));

        let one = (View(1), View(1), View(1));
        for (body, tip) in [(swapped, 0), (certified.to_vec(), 1)] {
            let block = certified_block(&registry, one, 1, &certified, body);
            let message = Message::CommitBlock {
                block: Arc::new(block),
                sig: [0u8; 32],
            };
            with_ctx(&mut follower, |s, ctx| {
                s.on_message(Actor::Server(ServerId(0)), message, ctx)
            });
            assert_eq!(follower.store().latest_seq(), SeqNum(tip));
        }
        assert_eq!(follower.stats().verify_rejected, 1);
    }

    #[test]
    fn ord_reassigning_a_committed_tx_is_refused() {
        // A Byzantine leader assigns tx X to instance 2 after X already
        // committed in instance 1 — the follower must refuse the phase-1
        // acknowledgement (previously it acked and the duplicate could
        // commit twice).
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let view = View(1);
        let tx_x = Transaction::with_size(ClientId(1), 100, 16);
        commit_block(&mut follower, &registry, view, 1, vec![tx_x.clone()]);
        assert_eq!(follower.store().latest_seq(), SeqNum(1));

        let acked = deliver_ord(
            &mut follower,
            &registry,
            view,
            2,
            vec![Proposal::new(tx_x, Digest::ZERO)],
        );
        assert!(!acked, "re-assignment of a committed tx must be refused");
        assert_eq!(follower.stats().double_assign_refused, 1);
        assert!(follower.held_batch(2).is_none());
    }

    #[test]
    fn fresh_ord_without_committed_txs_is_acked() {
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let view = View(1);
        let tx_x = Transaction::with_size(ClientId(1), 100, 16);
        commit_block(&mut follower, &registry, view, 1, vec![tx_x]);
        let tx_y = Transaction::with_size(ClientId(1), 200, 16);
        let acked = deliver_ord(
            &mut follower,
            &registry,
            view,
            2,
            vec![Proposal::new(tx_y, Digest::ZERO)],
        );
        assert!(acked, "a fresh batch must still be acknowledged");
        assert_eq!(follower.stats().double_assign_refused, 0);
    }

    #[test]
    fn duplicate_tx_racing_the_commit_is_suppressed_at_apply_time() {
        // The racing half of the double-assign defense: the follower acks
        // Ord(2, {X}) *before* X commits at instance 1, so the refusal above
        // cannot fire. When instance 2 later commits, the duplicate X must
        // be deterministically marked `status = false`.
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let view = View(1);
        let tx_x = Transaction::with_size(ClientId(1), 100, 16);
        let tx_y = Transaction::with_size(ClientId(1), 200, 16);
        assert!(deliver_ord(
            &mut follower,
            &registry,
            view,
            2,
            vec![
                Proposal::new(tx_x.clone(), Digest::ZERO),
                Proposal::new(tx_y.clone(), Digest::ZERO)
            ],
        ));
        // X commits first at instance 1…
        commit_block(&mut follower, &registry, view, 1, vec![tx_x.clone()]);
        // …then the double-assigned instance 2 commits anyway (its QCs were
        // already in flight).
        commit_block(
            &mut follower,
            &registry,
            view,
            2,
            vec![tx_x.clone(), tx_y.clone()],
        );
        assert_eq!(follower.store().latest_seq(), SeqNum(2));
        let block2 = follower.store().tx_block(SeqNum(2)).unwrap();
        assert_eq!(
            block2.status,
            vec![false, true],
            "the duplicate must be suppressed, the fresh tx must execute"
        );
        assert_eq!(follower.stats().duplicate_tx_suppressed, 1);
    }

    #[test]
    fn certified_instance_refuses_conflicting_content() {
        // The certified-content pinning check: once a follower holds the
        // ordering QC of an instance, only content-identical re-proposals
        // may be acknowledged — an elected Byzantine leader that won on
        // genuine QCs must not be able to re-fill the instance with fresh
        // content (which could fork against an existing commit QC).
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let quorum = follower.config.quorum();
        let view = View(1);
        let tx_a = Transaction::with_size(ClientId(1), 10, 16);
        let batch_a = vec![Proposal::new(tx_a.clone(), Digest::ZERO)];
        assert!(deliver_ord(
            &mut follower,
            &registry,
            view,
            1,
            batch_a.clone()
        ));
        // The Cmt certifies instance 1.
        let digest = PrestigeServer::batch_digest(view, SeqNum(1), &batch_a);
        let qc = build_qc(&registry, QcKind::Ordering, view, SeqNum(1), digest, quorum);
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::Cmt {
                    view,
                    n: SeqNum(1),
                    ordering_qc: qc,
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert!(follower.instances[&1].ord_qc.is_some());

        // A view change clears the per-view ack bookkeeping; the leader of
        // the "new view" now re-proposes *different* content at 1.
        with_ctx(&mut follower, |s, ctx| {
            s.note_view_installed(ctx, ServerId(2));
        });
        let tx_b = Transaction::with_size(ClientId(1), 20, 16);
        let refused = !deliver_ord(
            &mut follower,
            &registry,
            view,
            1,
            vec![Proposal::new(tx_b, Digest::ZERO)],
        );
        assert!(refused, "conflicting content for a certified instance");
        assert_eq!(follower.stats().double_assign_refused, 1);

        // The verbatim re-proposal of the certified content is accepted.
        assert!(
            deliver_ord(&mut follower, &registry, view, 1, batch_a),
            "the certified content itself must still be acknowledged"
        );
    }

    #[test]
    fn cmt_without_prior_ord_stores_the_qc_and_requests_the_batch() {
        // A follower that sees the `Cmt` but never the `Ord` (lost broadcast)
        // — or that acked a batch whose digest lost the ordering race (an
        // equivocating leader sent it the minority payload) — must still
        // commit-sign: its share counts toward the quorum. It records the
        // certificate, drops the losing batch, and asks the leader once for
        // the certified batch it cannot re-propose.
        let registry = KeyRegistry::new(9, 4, 2);
        let view = View(1);
        let leader = Actor::Server(ServerId(0));
        let minority = Transaction::with_size(ClientId(1), 10, 16);
        let minority = vec![Proposal::new(minority, Digest::ZERO)];
        for acked in [None, Some(minority)] {
            let mut follower =
                PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
            if let Some(batch) = acked {
                assert!(deliver_ord(&mut follower, &registry, view, 1, batch));
                assert!(follower.held_batch(1).is_some());
            }
            let quorum = follower.config.quorum();
            let digest = Digest([5; 32]);
            let qc = build_qc(&registry, QcKind::Ordering, view, SeqNum(1), digest, quorum);
            let effects = with_ctx(&mut follower, |s, ctx| {
                s.on_message(
                    leader,
                    Message::Cmt {
                        view,
                        n: SeqNum(1),
                        ordering_qc: qc,
                        sig: [0u8; 32],
                    },
                    ctx,
                );
            });
            assert!(
                effects
                    .emissions
                    .iter()
                    .any(|e| matches!(e, Emission::Send(_, Message::CmtReply { .. }))),
                "the commit share must still be sent"
            );
            let reqs: Vec<_> = effects
                .emissions
                .iter()
                .filter_map(|e| match e {
                    Emission::Send(peer, Message::SyncReq { view, from, to }) => {
                        Some((*peer, *view, *from, *to))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                reqs,
                [(leader, View(1), 1, 1)],
                "the missing certified batch must be requested from the leader"
            );
            assert!(
                follower.held_batch(1).is_none(),
                "the losing batch is dropped"
            );
            assert!(follower.instances[&1].ord_qc.is_some());
            assert_eq!(
                follower.certified_ord_tip(),
                SeqNum(0),
                "a QC without its batch does not certify the instance"
            );
        }
    }
}

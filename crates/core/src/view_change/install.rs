//! The leader-elect phase (§4.2.4): preparing, validating, and adopting the
//! new `vcBlock` — which, since wire v3, carries the certified state-transfer
//! payload (the elected leader's committed tip, certified ordered tip, and
//! the ordering QCs proving every claimed instance).

use crate::server::{Phase, PrestigeServer};
use crate::storage::vc_block_digest;
use prestige_crypto::sign_share;
use prestige_sim::Context;
use prestige_types::{
    Actor, Digest, Message, PartialSig, QcKind, QuorumCertificate, SeqNum, VcBlock, View,
};

impl PrestigeServer {
    /// The candidate won: prepare and broadcast the new `vcBlock`, then wait
    /// for `2f + 1` adoption acknowledgements. The block carries the
    /// campaign's certified state transfer, so adopters can audit the
    /// re-proposal set the new leader was elected on. The candidate stays
    /// one until the view installs.
    pub(crate) fn become_leader(&mut self, vc_qc: QuorumCertificate, ctx: &mut Context<Message>) {
        let Phase::Candidate { campaign, .. } = &self.phase else {
            return;
        };
        self.stats.elections_won += 1;
        let block = self
            .store
            .latest_vc_block()
            .successor(
                campaign.new_view,
                self.id,
                campaign.rp,
                campaign.ci,
                campaign.conf_qc.clone(),
                Some(vc_qc),
            )
            .with_state_transfer(
                campaign.tx_seq,
                campaign.commit_cert.clone(),
                campaign.ord_seq,
                campaign.tip_cert.clone(),
            );
        let digest = vc_block_digest(&block);
        let quorum = self.config.quorum();
        let (builder, _) = self.open_quorum(QcKind::ViewChange, block.v, SeqNum(1), digest, quorum);
        let sig = self.sign(digest.as_ref());
        ctx.broadcast(
            self.other_servers(),
            Message::NewVcBlock {
                block: block.clone(),
                sig,
            },
        );
        self.pending_vc_block = Some((block, builder));
    }

    /// Handles the elected leader's `vcBlock`: validate, adopt, acknowledge.
    pub(crate) fn handle_new_vc_block(
        &mut self,
        from: Actor,
        block: VcBlock,
        sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        if block.v <= self.store.current_view() {
            return;
        }
        if from != Actor::Server(block.leader_id) {
            return;
        }
        self.charge_verify_cost(ctx);
        let digest = vc_block_digest(&block);
        if !self.registry.verify(from, digest.as_ref(), &sig) {
            return;
        }
        // Leadership legitimacy: a vc_QC of 2f+1 election votes.
        let vc_qc = match &block.vc_qc {
            Some(qc) => qc,
            None => return,
        };
        let quorum = self.config.quorum();
        if vc_qc.kind != QcKind::ViewChange
            || vc_qc.view != block.v
            || !self.verify_qc_cached(vc_qc, quorum, ctx)
        {
            return;
        }
        // Certified state transfer: the claimed state must be proven,
        // exactly as in the vote path — the commit QC of the claimed
        // committed tip (or an inflated `committed_seq` would pass the span
        // check below with an empty certificate and suppress adopters'
        // missing-state sync), then one valid ordering QC per instance of
        // `(committed_seq, ord_tip]`. Voters already verified these
        // certificates, so for them this is a memo-cache walk; for adopters
        // that never saw the campaign it is the first (and only) check
        // standing between a lying leader and their acknowledgement.
        let proven = self
            .verify_commit_claim(block.committed_seq, block.commit_cert.as_ref(), ctx)
            .and_then(|()| {
                self.verify_tip_cert(block.committed_seq, block.ord_tip, &block.tip_cert, ctx)
            });
        if let Err(refusal) = proven {
            *self.stats.camp_refusals.entry(refusal).or_default() += 1;
            return;
        }
        // Deliberately NOT re-applied here: the voter-side coverage check
        // (`signed_instances_covered`). An adopter may legitimately have
        // commit-signed new instances between the candidate's claim snapshot
        // and this block's arrival (rotation races), and refusing the
        // acknowledgement would strand an honestly elected winner below its
        // vcYes quorum. The safety burden sits elsewhere: voters enforced
        // coverage at election time (quorum intersection), the certificates
        // above stop claim *inflation*, follower content-pinning stops any
        // conflicting re-fill of a certified instance, and a leader that
        // *under*-states its payload merely stalls its own reign — the same
        // outcome as a quiet Byzantine leader, repaired by the complaint →
        // view-change path.
        // Reputation fragment: only the elected leader's rp/ci may change
        // relative to our current vcBlock (checked when the views are
        // adjacent; larger gaps are reconciled through sync).
        if block.v.0 == self.store.current_view().0 + 1
            && !self
                .store
                .latest_vc_block()
                .reputation_delta_only_for(&block, block.leader_id)
        {
            return;
        }
        // Adopt. Logged first: view history and the reputation state must
        // survive a crash (replay rebuilds both from the WAL).
        let leader = block.leader_id;
        let view = block.v;
        self.wal_append(prestige_storage::WalRecordRef::ViewInstall(&block));
        if !self.store.insert_vc_block(block) {
            return;
        }
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::ViewChange,
            view,
            SeqNum(1),
            &digest,
        ) {
            ctx.send(
                from,
                Message::VcYes {
                    view,
                    digest,
                    share,
                },
            );
        }
        self.note_view_installed(ctx, leader);
        self.maybe_request_refresh(ctx);
    }

    /// Handles an adoption acknowledgement; `2f + 1` of them complete the view
    /// change and the leader resumes replication in the new view.
    pub(crate) fn handle_vc_yes(
        &mut self,
        view: View,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        self.charge_verify_cost(ctx);
        let (block, builder) = match self.pending_vc_block.as_mut() {
            Some((b, q)) if b.v == view && vc_block_digest(b) == digest => (b.clone(), q),
            _ => return,
        };
        if builder.add_share(&self.registry, &share).is_err() || !builder.complete() {
            return;
        }
        // Consensus for the new view is reached: install and lead.
        self.pending_vc_block = None;
        self.wal_append(prestige_storage::WalRecordRef::ViewInstall(&block));
        if !self.store.insert_vc_block(block) {
            return;
        }
        self.note_view_installed(ctx, self.id);
        self.maybe_request_refresh(ctx);
    }
}

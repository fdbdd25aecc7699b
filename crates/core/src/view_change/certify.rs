//! The certified recovery plane: building and verifying ordered-tip claims.
//!
//! PR 4's harness left a documented gap: a Byzantine candidate could
//! overstate `Camp.latest_ord_seq` because nothing certified it, and an
//! elected liar would then overwrite a possibly-committed instance. Since
//! wire v3 the claim is **proven** in the spirit of PBFT's new-view
//! certificates:
//!
//! * a candidate's `latest_seq` claim is backed by the commit QC of its
//!   latest committed block (`commit_cert`);
//! * its `latest_ord_seq` claim is backed by one ordering QC per claimed
//!   instance (`tip_cert`, covering `(latest_seq, latest_ord_seq]`
//!   contiguously);
//! * voters verify every certificate and additionally cross-check their own
//!   per-instance commit-sign record ([`PrestigeServer::handle_camp`]): an
//!   instance this voter commit-signed must be covered by a certificate at
//!   least as fresh as the ordering QC the voter signed.
//!
//! An instance only counts toward a server's certified tip when the server
//! holds **both** the ordering QC and a batch matching its digest — a QC
//! alone cannot be re-proposed. The gap between `signed_commit_tip` and the
//! certified tip is repaired through `SyncKind::Ordered` (see
//! [`crate::sync`]), never papered over by trust.

use crate::server::{Instance, PrestigeServer, ServerRole};
use prestige_crypto::{sign_share, PowPuzzle, PowSolution, PowSolver};
use prestige_reputation::CalcRpInput;
use prestige_sim::Context;
use prestige_types::{
    Actor, Digest, Message, PartialSig, QcKind, QuorumCertificate, SeqNum, ServerId, SyncKind, View,
};

/// The claims a `Camp` message carries, bundled so the voting path takes one
/// argument instead of thirteen.
#[derive(Debug, Clone)]
pub(crate) struct CampClaims {
    /// `conf_QC` proving the view change was confirmed (None for rotations).
    pub(crate) conf_qc: Option<QuorumCertificate>,
    /// The candidate's previous (current) view `V`.
    pub(crate) view: View,
    /// The view being campaigned for, `V'`.
    pub(crate) new_view: View,
    /// The candidate's claimed reputation penalty for `V'`.
    pub(crate) rp: i64,
    /// The candidate's claimed compensation index for `V'`.
    pub(crate) ci: u64,
    /// The puzzle nonce.
    pub(crate) nonce: u64,
    /// The puzzle hash result.
    pub(crate) hash_result: Digest,
    /// Claimed latest committed sequence number.
    pub(crate) latest_seq: SeqNum,
    /// Claimed certified ordered tip.
    pub(crate) latest_ord_seq: SeqNum,
    /// Proof of `latest_seq` (commit QC of the latest block).
    pub(crate) commit_cert: Option<QuorumCertificate>,
    /// Proof of `latest_ord_seq` (ordering QCs for `(latest_seq, latest_ord_seq]`).
    pub(crate) tip_cert: Vec<QuorumCertificate>,
    /// Digest of the latest committed txBlock (puzzle input).
    pub(crate) latest_tx_digest: Digest,
    /// The candidate's signature over the campaign digest.
    pub(crate) sig: [u8; 32],
}

impl PrestigeServer {
    // ------------------------------------------------------------------
    // Certificate store maintenance (candidate side)
    // ------------------------------------------------------------------

    /// Records the ordering QC of an uncommitted instance, keeping the
    /// highest ordering view seen for each sequence number (a re-proposal's
    /// QC supersedes the original's).
    pub(crate) fn record_ord_qc(&mut self, n: u64, qc: &QuorumCertificate) {
        let held = &mut self.instances.entry(n).or_default().ord_qc;
        if held.as_ref().is_none_or(|existing| existing.view < qc.view) {
            *held = Some(qc.clone());
        }
    }

    /// The *certified* ordered tip: the highest sequence number reachable
    /// from the committed tip through instances this server can prove — an
    /// ordering QC **and** a batch for every step. This is the claim
    /// [`Self::build_tip_cert`] certifies and the bound voters will hold
    /// this server to.
    pub(crate) fn certified_ord_tip(&self) -> SeqNum {
        self.tip_through(Instance::provable)
    }

    /// Builds the campaign's certified tip claim: `(certified tip, one
    /// ordering QC per instance in `(latest_seq, tip]`, ascending)`.
    pub(crate) fn build_tip_cert(&self) -> (SeqNum, Vec<QuorumCertificate>) {
        let latest = self.store.latest_seq().0;
        let tip = self.certified_ord_tip().0;
        let cert = (latest + 1..=tip)
            .filter_map(|n| self.instances[&n].ord_qc.clone())
            .collect();
        (SeqNum(tip), cert)
    }

    // ------------------------------------------------------------------
    // Certificate verification (voter / adopter side)
    // ------------------------------------------------------------------

    /// Verifies the committed-tip claim: a claim above genesis must carry
    /// the commit QC of exactly the claimed instance.
    pub(crate) fn verify_commit_claim(
        &mut self,
        latest_seq: SeqNum,
        commit_cert: Option<&QuorumCertificate>,
        ctx: &mut Context<Message>,
    ) -> bool {
        if latest_seq.0 == 0 {
            return true; // The genesis block needs no certificate.
        }
        let quorum = self.config.quorum();
        let ok = commit_cert.is_some_and(|qc| {
            qc.kind == QcKind::Commit
                && qc.seq == latest_seq
                && self.verify_qc_cached(qc, quorum, ctx)
        });
        if !ok {
            self.stats.camp_cert_refusals += 1;
        }
        ok
    }

    /// Verifies the structure and cryptographic validity of a certified
    /// ordered-tip claim: `tip_cert` must hold exactly one valid ordering QC
    /// per instance of `(latest_seq, latest_ord_seq]`, in ascending sequence
    /// order. An overclaimed tip (certificates missing), a padded one, a gap
    /// in the middle, or a forged QC all fail here. QC verification is
    /// memoized, so re-checking a certificate seen before (another campaign
    /// round, the vcBlock after voting) costs nothing.
    pub(crate) fn verify_tip_cert(
        &mut self,
        latest_seq: SeqNum,
        latest_ord_seq: SeqNum,
        tip_cert: &[QuorumCertificate],
        ctx: &mut Context<Message>,
    ) -> bool {
        if latest_ord_seq < latest_seq {
            self.stats.camp_cert_refusals += 1;
            return false;
        }
        let span = latest_ord_seq.0 - latest_seq.0;
        if tip_cert.len() as u64 != span {
            self.stats.camp_cert_refusals += 1;
            return false;
        }
        for (i, qc) in tip_cert.iter().enumerate() {
            if qc.kind != QcKind::Ordering || qc.seq.0 != latest_seq.0 + 1 + i as u64 {
                self.stats.camp_cert_refusals += 1;
                return false;
            }
        }
        let quorum = self.config.quorum();
        for qc in tip_cert {
            if !self.verify_qc_cached(qc, quorum, ctx) {
                self.stats.camp_cert_refusals += 1;
                return false;
            }
        }
        true
    }

    /// The voter-side half of criterion C3's ordered check: every instance
    /// this server has commit-signed (and not yet seen commit) must be
    /// covered by the candidate's certificate with an ordering QC **at least
    /// as fresh** as the one this server signed — a stale certificate means
    /// the candidate's state predates a possibly-committed re-proposal, and
    /// electing it could roll that instance back.
    #[cfg_attr(feature = "canary-c3-fork", allow(unreachable_code))]
    pub(crate) fn signed_instances_covered(
        &mut self,
        latest_seq: SeqNum,
        latest_ord_seq: SeqNum,
        tip_cert: &[QuorumCertificate],
    ) -> bool {
        // Canary mutation (vopr mutation-score gate): PR 4's original C3
        // compared committed tips only — the ordered-coverage check below did
        // not exist, so a candidate whose certified state predated this
        // voter's commit signature could win the election and roll the
        // instance back. The falsification swarm must rediscover that fork.
        #[cfg(feature = "canary-c3-fork")]
        {
            let _ = (latest_seq, latest_ord_seq, tip_cert);
            return true;
        }
        if latest_ord_seq.0 < self.signed_commit_tip {
            self.stats.camp_cert_refusals += 1;
            return false;
        }
        let signed = self.instances.range(latest_seq.0 + 1..);
        for (&n, signed_view) in signed.filter_map(|(n, r)| Some((n, r.signed?))) {
            if n > latest_ord_seq.0 {
                self.stats.camp_cert_refusals += 1;
                return false;
            }
            let qc = &tip_cert[(n - latest_seq.0 - 1) as usize];
            if qc.view < signed_view {
                // Stale certificate: we commit-signed a fresher ordering.
                self.stats.camp_cert_refusals += 1;
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Voting (§4.2.3, criteria C1–C5)
    // ------------------------------------------------------------------

    /// Handles a candidate's campaign message.
    pub(crate) fn handle_camp(
        &mut self,
        from: Actor,
        claims: CampClaims,
        ctx: &mut Context<Message>,
    ) {
        let candidate = match from {
            Actor::Server(s) => s,
            Actor::Client(_) => return,
        };
        // Stale campaigns are ignored.
        if claims.new_view <= self.store.current_view() {
            return;
        }
        // C1: vote at most once per view. A retransmitted `Camp` from the
        // *same* candidate (its original `VoteCP` was lost) gets the recorded
        // vote re-sent verbatim — idempotent, so the criterion holds — while
        // any other candidate for the view is still refused.
        if self.voted_views.contains(&claims.new_view.0) {
            if let Some((voted_for, share)) = self.cast_votes.get(&claims.new_view.0) {
                if *voted_for == candidate {
                    ctx.send(
                        from,
                        Message::VoteCP {
                            new_view: claims.new_view,
                            candidate,
                            share: share.clone(),
                        },
                    );
                }
            }
            return;
        }
        self.charge_verify_cost(ctx);
        let campaign_digest = Self::campaign_digest(
            candidate,
            claims.new_view,
            claims.rp,
            claims.nonce,
            &claims.hash_result,
            claims.latest_seq,
            claims.latest_ord_seq,
            &claims.latest_tx_digest,
        );
        if !self
            .registry
            .verify(from, campaign_digest.as_ref(), &claims.sig)
        {
            return;
        }

        // C2: the view change must be justified — either by a conf_QC of
        // threshold f+1, or (for campaigns without one) by the local policy
        // clock saying a rotation is due.
        match &claims.conf_qc {
            Some(qc) => {
                let confirm_quorum = self.config.replicas.confirm_quorum();
                if qc.kind != QcKind::Confirm || !self.verify_qc_cached(qc, confirm_quorum, ctx) {
                    return;
                }
            }
            None => {
                if !self.rotation_due(ctx.now()) {
                    return;
                }
            }
        }

        // Sync view-change blocks if the candidate is operating in a higher
        // view than we know about; the vote is retried after the sync.
        if claims.view > self.store.current_view() {
            ctx.send(
                from,
                Message::SyncReq {
                    kind: SyncKind::ViewChange,
                    from: self.store.current_view().0 + 1,
                    to: claims.view.0,
                },
            );
            return;
        }

        // C3, committed half: the candidate's replication must be at least as
        // up-to-date — and since wire v3 the claim is *certified* by the
        // commit QC of the claimed latest block.
        if claims.latest_seq < self.store.latest_seq() {
            return;
        }
        if !self.verify_commit_claim(claims.latest_seq, claims.commit_cert.as_ref(), ctx) {
            return;
        }
        // C3, ordered half (committed-instance preservation): a commit share
        // this server signed may have completed a commit QC at a leader
        // nobody can reach any more, so the next leader must hold the ordered
        // batches up to that point — contiguously, at their original sequence
        // numbers — to re-propose them. The candidate now *proves* it does:
        // one valid ordering QC per claimed instance, checked per instance
        // against this voter's own commit-sign record. Refusing here makes
        // the guarantee a quorum-intersection property: any election quorum
        // contains at least one correct signer of the highest
        // possibly-committed instance.
        if !self.verify_tip_cert(
            claims.latest_seq,
            claims.latest_ord_seq,
            &claims.tip_cert,
            ctx,
        ) {
            return;
        }
        if !self.signed_instances_covered(
            claims.latest_seq,
            claims.latest_ord_seq,
            &claims.tip_cert,
        ) {
            // This voter is the proof-holder for the instances the candidate
            // cannot cover: push them (certificates + batches, rate-limited)
            // so an honest candidate's next campaign round is certifiable —
            // the refusal stays, the knowledge gap does not.
            self.push_certified_state(from, claims.latest_seq.0 + 1, self.signed_commit_tip, ctx);
            return;
        }
        if claims.latest_seq > self.store.latest_seq() {
            // We are behind: ask the candidate for the missing txBlocks so our
            // state machine catches up (the vote itself does not need them).
            ctx.send(
                from,
                Message::SyncReq {
                    kind: SyncKind::Transaction,
                    from: self.store.latest_seq().0 + 1,
                    to: claims.latest_seq.0,
                },
            );
        }
        // Certified state transfer ahead of the election result: fetch the
        // certified ordered instances we lack from the candidate
        // (rate-limited), so a win is followed immediately instead of after
        // another repair round trip.
        let my_cert_tip = self.certified_ord_tip().0;
        if claims.latest_ord_seq.0 > my_cert_tip {
            self.request_sync(
                from,
                SyncKind::Ordered,
                my_cert_tip + 1,
                claims.latest_ord_seq.0,
                ctx,
            );
        }

        // C4: the claimed reputation penalty and compensation index must be
        // reproducible from the candidate's recorded history.
        let input = CalcRpInput {
            current_view: claims.view,
            new_view: claims.new_view,
            current_rp: self.store.current_rp(candidate),
            current_ci: self.store.current_ci(candidate),
            latest_tx_seq: claims.latest_seq,
            penalty_history: self.store.penalty_history(candidate),
        };
        let outcome = self.engine.calc_rp(&input);
        if outcome.new_rp != claims.rp || outcome.new_ci != claims.ci {
            return;
        }

        // C5: the performed computation must match the penalty (one hash).
        self.charge_verify_cost(ctx);
        let puzzle = PowPuzzle::new(claims.latest_tx_digest, claims.rp);
        let solution = PowSolution {
            nonce: claims.nonce,
            hash_result: claims.hash_result,
        };
        if PowSolver::PAPER_MODEL.verify(&puzzle, &solution).is_err() {
            return;
        }

        // All criteria satisfied: vote.
        self.voted_views.insert(claims.new_view.0);
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::ViewChange,
            claims.new_view,
            SeqNum(0),
            &campaign_digest,
        ) {
            self.cast_votes
                .insert(claims.new_view.0, (candidate, share.clone()));
            ctx.send(
                from,
                Message::VoteCP {
                    new_view: claims.new_view,
                    candidate,
                    share,
                },
            );
        }
    }

    /// Handles an election vote; `2f + 1` votes elect this candidate.
    pub(crate) fn handle_vote_cp(
        &mut self,
        new_view: View,
        candidate: ServerId,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if candidate != self.id || self.role != ServerRole::Candidate {
            return;
        }
        self.charge_verify_cost(ctx);
        let campaign = match self.campaign.as_mut() {
            Some(c) if c.new_view == new_view => c,
            _ => return,
        };
        let builder = match campaign.vote_builder.as_mut() {
            Some(b) => b,
            None => return,
        };
        if builder.add_share(&self.registry, &share).is_err() || !builder.complete() {
            return;
        }
        let vc_qc = match builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        self.become_leader(vc_qc, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_crypto::{KeyRegistry, QcBuilder};
    use prestige_sim::{Effects, Emission, Process, SimRng};
    use prestige_types::{ClusterConfig, Proposal};
    use std::sync::Arc;

    fn ordering_qc(
        registry: &KeyRegistry,
        view: View,
        n: u64,
        digest: Digest,
        quorum: u32,
    ) -> QuorumCertificate {
        let mut builder = QcBuilder::new(QcKind::Ordering, view, SeqNum(n), digest, quorum);
        for s in 0..quorum {
            let share = sign_share(
                registry,
                ServerId(s),
                QcKind::Ordering,
                view,
                SeqNum(n),
                &digest,
            )
            .unwrap();
            builder.add_share(registry, &share).unwrap();
        }
        builder.assemble().unwrap()
    }

    /// Builds a fully valid V1→V2 campaign message for `candidate` (genesis
    /// committed state, conf_QC-justified) with an explicit certified
    /// ordered-tip claim.
    fn genesis_camp(
        registry: &KeyRegistry,
        voter: &PrestigeServer,
        candidate: ServerId,
        latest_ord_seq: SeqNum,
        tip_cert: Vec<QuorumCertificate>,
    ) -> Message {
        let view = View(1);
        let new_view = View(2);
        // C4: from genesis, the engine computes rp 2 / ci 1 for any campaign
        // V1 → V2 (pinned by `calc_rp_for_initial_campaign_matches_engine`).
        let outcome = voter.calc_rp_for(candidate, new_view);
        // C2: a Confirm QC at threshold f+1 over the ConfVC digest.
        let digest = PrestigeServer::confvc_digest(view);
        let confirm_quorum = voter.config.replicas.confirm_quorum();
        let mut builder = QcBuilder::new(QcKind::Confirm, view, SeqNum(0), digest, confirm_quorum);
        for s in 0..confirm_quorum {
            let share = sign_share(
                registry,
                ServerId(s),
                QcKind::Confirm,
                view,
                SeqNum(0),
                &digest,
            )
            .unwrap();
            builder.add_share(registry, &share).unwrap();
        }
        let conf_qc = builder.assemble().unwrap();
        // C5: solve the (modeled) puzzle over the claimed latest tx digest.
        let tx_digest = voter.store.latest_tx_digest();
        let puzzle = PowPuzzle::new(tx_digest, outcome.new_rp);
        let mut rng = SimRng::new(11);
        let (solution, _) = PowSolver::PAPER_MODEL.solve(&puzzle, rng.rng());
        let campaign_digest = PrestigeServer::campaign_digest(
            candidate,
            new_view,
            outcome.new_rp,
            solution.nonce,
            &solution.hash_result,
            SeqNum(0),
            latest_ord_seq,
            &tx_digest,
        );
        let sig = registry
            .key_of(Actor::Server(candidate))
            .unwrap()
            .sign(campaign_digest.as_ref());
        Message::Camp {
            conf_qc: Some(conf_qc),
            view,
            new_view,
            rp: outcome.new_rp,
            ci: outcome.new_ci,
            nonce: solution.nonce,
            hash_result: solution.hash_result,
            latest_seq: SeqNum(0),
            latest_ord_seq,
            commit_cert: None,
            tip_cert,
            latest_tx_digest: tx_digest,
            sig,
        }
    }

    fn deliver(voter: &mut PrestigeServer, message: Message) -> Effects<Message> {
        let mut effects = Effects::new();
        let mut rng = SimRng::new(3);
        let mut next_timer_id = 500;
        let me = Actor::Server(voter.id());
        let mut ctx = Context::new(
            prestige_sim::SimTime::from_ms(1.0),
            me,
            &mut rng,
            &mut next_timer_id,
            &mut effects,
        );
        voter.on_message(Actor::Server(ServerId(3)), message, &mut ctx);
        effects
    }

    fn voted(effects: &Effects<Message>) -> bool {
        effects
            .emissions
            .iter()
            .any(|e| matches!(e, Emission::Send(_, Message::VoteCP { .. })))
    }

    fn fresh_voter(registry: &KeyRegistry) -> PrestigeServer {
        PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0)
    }

    #[test]
    fn certified_campaign_with_matching_claim_wins_the_vote() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut voter = fresh_voter(&registry);
        let quorum = voter.config.quorum();
        let cert = vec![
            ordering_qc(&registry, View(1), 1, Digest([1; 32]), quorum),
            ordering_qc(&registry, View(1), 2, Digest([2; 32]), quorum),
        ];
        let camp = genesis_camp(&registry, &voter, ServerId(3), SeqNum(2), cert);
        assert!(
            voted(&deliver(&mut voter, camp)),
            "a fully certified claim must earn the vote"
        );
        assert_eq!(voter.stats().camp_cert_refusals, 0);
    }

    #[test]
    fn overclaimed_tip_without_certificates_is_refused() {
        // The F5 tip liar: claims an ordered tip it cannot prove. Before the
        // certificates this won votes and could overwrite a possibly-
        // committed instance after the election.
        let registry = KeyRegistry::new(5, 4, 2);
        let mut voter = fresh_voter(&registry);
        let camp = genesis_camp(&registry, &voter, ServerId(3), SeqNum(3), Vec::new());
        assert!(
            !voted(&deliver(&mut voter, camp)),
            "an unproven ordered-tip claim must be refused"
        );
        assert!(voter.stats().camp_cert_refusals >= 1);
    }

    #[test]
    fn short_or_gapped_certificate_is_refused() {
        let registry = KeyRegistry::new(5, 4, 2);
        let quorum = ClusterConfig::new(4).quorum();
        // Missing QC: claim 3 instances, prove 2.
        let mut voter = fresh_voter(&registry);
        let short = vec![
            ordering_qc(&registry, View(1), 1, Digest([1; 32]), quorum),
            ordering_qc(&registry, View(1), 2, Digest([2; 32]), quorum),
        ];
        let camp = genesis_camp(&registry, &voter, ServerId(3), SeqNum(3), short);
        assert!(!voted(&deliver(&mut voter, camp)), "short certificate");

        // Gap in the middle: right length, wrong sequence numbers (1 and 3).
        let mut voter = fresh_voter(&registry);
        let gapped = vec![
            ordering_qc(&registry, View(1), 1, Digest([1; 32]), quorum),
            ordering_qc(&registry, View(1), 3, Digest([3; 32]), quorum),
        ];
        let camp = genesis_camp(&registry, &voter, ServerId(3), SeqNum(2), gapped);
        assert!(!voted(&deliver(&mut voter, camp)), "gapped certificate");
    }

    #[test]
    fn forged_certificate_is_refused() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut voter = fresh_voter(&registry);
        let quorum = voter.config.quorum();
        let mut forged = ordering_qc(&registry, View(1), 1, Digest([1; 32]), quorum);
        forged.aggregate[0] ^= 0xFF;
        let camp = genesis_camp(&registry, &voter, ServerId(3), SeqNum(1), vec![forged]);
        assert!(
            !voted(&deliver(&mut voter, camp)),
            "a tampered ordering QC must not certify a claim"
        );
    }

    #[test]
    fn stale_certificate_view_is_refused() {
        // The voter commit-signed instance 1 under the view-3 re-proposal; a
        // candidate proving instance 1 only with the view-1 ordering QC
        // predates that possibly-committed state and must be refused, while
        // a certificate at least as fresh is accepted.
        let registry = KeyRegistry::new(5, 4, 2);
        let quorum = ClusterConfig::new(4).quorum();
        for (cert_view, expect_vote) in [(View(1), false), (View(3), true)] {
            let mut voter = fresh_voter(&registry);
            voter.signed_commit_tip = 1;
            voter.instances.entry(1).or_default().signed = Some(View(3));
            let cert = vec![ordering_qc(
                &registry,
                cert_view,
                1,
                Digest([7; 32]),
                quorum,
            )];
            let camp = genesis_camp(&registry, &voter, ServerId(3), SeqNum(1), cert);
            assert_eq!(
                voted(&deliver(&mut voter, camp)),
                expect_vote,
                "certificate at view {cert_view:?}"
            );
        }
    }

    #[test]
    fn vote_refused_when_candidate_ordered_state_trails_signed_commit_tip() {
        // Committed-instance preservation (C3, ordered half): a voter that
        // has commit-signed instance 3 must refuse any candidate whose
        // certified state cannot re-propose 3 — otherwise an elected stale
        // leader would overwrite a possibly-committed instance and fork the
        // chain against whoever assembled the commit QC.
        let registry = KeyRegistry::new(5, 4, 2);

        // Sanity: the same campaign IS accepted by a voter with no signed
        // commit shares outstanding.
        let mut fresh = fresh_voter(&registry);
        let camp = genesis_camp(&registry, &fresh, ServerId(3), SeqNum(0), Vec::new());
        assert!(
            voted(&deliver(&mut fresh, camp.clone())),
            "a valid campaign earns the vote of an unencumbered voter"
        );

        // The voter has commit-signed instance 3; the candidate claims an
        // ordered tip of 0 — refuse.
        let mut voter = fresh_voter(&registry);
        voter.signed_commit_tip = 3;
        assert!(
            !voted(&deliver(&mut voter, camp)),
            "the vote must be refused: the candidate could not re-propose \
             the possibly-committed instance 3"
        );

        // A candidate whose *certified* claim covers the signed tip wins.
        let mut covered = fresh_voter(&registry);
        covered.signed_commit_tip = 3;
        let quorum = covered.config.quorum();
        let cert = (1..=3u64)
            .map(|n| ordering_qc(&registry, View(1), n, Digest([n as u8; 32]), quorum))
            .collect();
        let camp = genesis_camp(&registry, &covered, ServerId(3), SeqNum(3), cert);
        assert!(
            voted(&deliver(&mut covered, camp)),
            "a candidate proving ordered state through the signed tip wins \
             the vote"
        );
    }

    #[test]
    fn build_tip_cert_counts_only_provable_instances() {
        // The candidate side of the same contract: only instances with both
        // the ordering QC and a matching batch count toward the claim.
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = fresh_voter(&registry);
        let quorum = server.config.quorum();
        let batch = |n: u64| {
            Arc::new(vec![Proposal::new(
                prestige_types::Transaction::with_size(prestige_types::ClientId(1), n, 16),
                Digest::ZERO,
            )])
        };
        // Instances 1 and 2: QC + batch. Instance 3: batch only. Instance 4:
        // QC only.
        let qc = |n: u64| {
            Some(ordering_qc(
                &registry,
                View(1),
                n,
                Digest([n as u8; 32]),
                quorum,
            ))
        };
        for n in 1..=2u64 {
            let record = server.instances.entry(n).or_default();
            record.ord_qc = qc(n);
            record.batch = Some(batch(n));
        }
        server.instances.entry(3).or_default().batch = Some(batch(3));
        server.instances.entry(4).or_default().ord_qc = qc(4);

        assert_eq!(server.certified_ord_tip(), SeqNum(2));
        let (tip, cert) = server.build_tip_cert();
        assert_eq!(tip, SeqNum(2));
        assert_eq!(cert.len(), 2);
        assert_eq!(cert[0].seq, SeqNum(1));
        assert_eq!(cert[1].seq, SeqNum(2));
    }

    #[test]
    fn record_ord_qc_keeps_the_freshest_view() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = fresh_voter(&registry);
        let quorum = server.config.quorum();
        let old = ordering_qc(&registry, View(1), 1, Digest([1; 32]), quorum);
        let new = ordering_qc(&registry, View(4), 1, Digest([2; 32]), quorum);
        let held_view = |s: &PrestigeServer| s.instances[&1].ord_qc.as_ref().map(|qc| qc.view);
        server.record_ord_qc(1, &new);
        server.record_ord_qc(1, &old);
        assert_eq!(
            held_view(&server),
            Some(View(4)),
            "older QC must not regress"
        );
        server.record_ord_qc(1, &new);
        assert_eq!(held_view(&server), Some(View(4)));
    }
}

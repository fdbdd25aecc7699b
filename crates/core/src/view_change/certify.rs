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
//!   per-instance commit-sign record ([`PrestigeServer::judge_camp`]): an
//!   instance this voter commit-signed must be covered by a certificate at
//!   least as fresh as the ordering QC the voter signed.
//!
//! An instance only counts toward a server's certified tip when the server
//! holds **both** the ordering QC and a batch matching its digest — a QC
//! alone cannot be re-proposed. The gap between `signed_commit_tip` and the
//! certified tip is repaired through sync (see [`crate::sync`]), never
//! papered over by trust.

use crate::server::{Instance, Phase, PrestigeServer};
use prestige_crypto::{sign_share, PowPuzzle, PowSolution, PowSolver};
use prestige_sim::Context;
use prestige_storage::WalRecordRef;
use prestige_types::{
    Actor, Digest, Message, PartialSig, QcKind, QuorumCertificate, SeqNum, ServerId, View,
};
use serde::{Deserialize, Serialize};

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

/// Why a voter refused a campaign: one name per check of §4.2.3, in the
/// order the voter's judge (`judge_camp`) runs them. The vcBlock adoption
/// path refuses with the two certificate kinds of C3 as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Refusal {
    /// The campaign is for a view at or below the voter's current view.
    StaleView,
    /// C1: the voter already voted for another candidate in this view.
    VotedForAnother,
    /// The candidate's signature over the campaign digest does not verify.
    BadSignature,
    /// C2: the conf_QC does not verify, or without one no rotation is due.
    Unjustified,
    /// C3: the claimed committed tip is below the voter's.
    CommittedTipBehind,
    /// C3: the committed-tip claim lacks the commit QC of that block.
    CommittedTipUncertified,
    /// C3: the ordered-tip claim lacks one valid ordering QC per instance.
    OrderedTipUncertified,
    /// C3: an instance this voter commit-signed is not covered by an
    /// ordering QC at least as fresh as the one it signed.
    SignedInstancesUncovered,
    /// C4: the claimed rp/ci cannot be reproduced from the candidate's
    /// recorded history.
    RpNotReproducible,
    /// C5: the proof of work does not verify against the claimed rp.
    PowInvalid,
}

impl Refusal {
    /// The certificate kinds: a committed or ordered tip claim its
    /// certificates do not prove, or a voter's signed instances uncovered.
    pub const CERTIFICATE: [Refusal; 3] = [
        Refusal::CommittedTipUncertified,
        Refusal::OrderedTipUncertified,
        Refusal::SignedInstancesUncovered,
    ];
}

/// A voter's verdict on one campaign.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Every criterion holds: vote, signing this campaign digest.
    Vote(Digest),
    /// C1's idempotent resend: this voter already voted for the candidate
    /// in the view, and re-sends that share.
    Revote(PartialSig),
    /// The candidate is in a view this voter has not installed: sync first.
    SyncFirst,
    /// A check failed.
    Refuse(Refusal),
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
    ) -> Result<(), Refusal> {
        let quorum = self.config.quorum();
        // The genesis block needs no certificate.
        let proven = latest_seq.0 == 0
            || commit_cert.is_some_and(|qc| {
                qc.kind == QcKind::Commit
                    && qc.seq == latest_seq
                    && self.verify_qc_cached(qc, quorum, ctx)
            });
        proven.then_some(()).ok_or(Refusal::CommittedTipUncertified)
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
    ) -> Result<(), Refusal> {
        let span = latest_ord_seq.0.checked_sub(latest_seq.0);
        let shaped = span == Some(tip_cert.len() as u64)
            && tip_cert.iter().enumerate().all(|(i, qc)| {
                qc.kind == QcKind::Ordering && qc.seq.0 == latest_seq.0 + 1 + i as u64
            });
        let quorum = self.config.quorum();
        let proven = shaped
            && tip_cert
                .iter()
                .all(|qc| self.verify_qc_cached(qc, quorum, ctx));
        proven.then_some(()).ok_or(Refusal::OrderedTipUncertified)
    }

    /// The voter-side half of criterion C3's ordered check: every instance
    /// this server has commit-signed (and not yet seen commit) must be
    /// covered by the candidate's certificate with an ordering QC **at least
    /// as fresh** as the one this server signed — a stale certificate means
    /// the candidate's state predates a possibly-committed re-proposal, and
    /// electing it could roll that instance back. Runs after
    /// [`Self::verify_tip_cert`], which shapes `tip_cert` to the claim.
    #[cfg_attr(feature = "canary-c3-fork", allow(unreachable_code))]
    pub(crate) fn signed_instances_covered(
        &self,
        latest_seq: SeqNum,
        latest_ord_seq: SeqNum,
        tip_cert: &[QuorumCertificate],
    ) -> Result<(), Refusal> {
        // Canary mutation (vopr mutation-score gate): PR 4's original C3
        // compared committed tips only — the ordered-coverage check below did
        // not exist, so a candidate whose certified state predated this
        // voter's commit signature could win the election and roll the
        // instance back. The falsification swarm must rediscover that fork.
        #[cfg(feature = "canary-c3-fork")]
        {
            let _ = (latest_seq, latest_ord_seq, tip_cert);
            return Ok(());
        }
        let signed = self.instances.range(latest_seq.0 + 1..);
        let covered = latest_ord_seq.0 >= self.signed_commit_tip
            && signed
                .filter_map(|(&n, r)| Some((n, r.signed?)))
                .all(|(n, signed_view)| {
                    n <= latest_ord_seq.0
                        && tip_cert[(n - latest_seq.0 - 1) as usize].view >= signed_view
                });
        covered
            .then_some(())
            .ok_or(Refusal::SignedInstancesUncovered)
    }

    // ------------------------------------------------------------------
    // Voting (§4.2.3, criteria C1–C5)
    // ------------------------------------------------------------------

    /// Judges a campaign against the voting criteria, one named check at a
    /// time in the order below. It emits nothing: `ctx` only pays the CPU of
    /// the verifications it runs and reads the clock for C2's rotation.
    pub(crate) fn judge_camp(
        &mut self,
        candidate: ServerId,
        claims: &CampClaims,
        ctx: &mut Context<Message>,
    ) -> Verdict {
        self.check_criteria(candidate, claims, ctx)
            .unwrap_or_else(Verdict::Refuse)
    }

    /// [`Self::judge_camp`] with refusals as errors, one `?` per check.
    fn check_criteria(
        &mut self,
        candidate: ServerId,
        claims: &CampClaims,
        ctx: &mut Context<Message>,
    ) -> Result<Verdict, Refusal> {
        if claims.new_view <= self.store.current_view() {
            return Err(Refusal::StaleView);
        }
        // C1: vote at most once per view. A retransmitted `Camp` from the
        // *same* candidate (its original `VoteCP` was lost) gets the recorded
        // vote re-sent verbatim — idempotent, so the criterion holds — while
        // any other candidate for the view is refused. A candidate's own
        // campaign is recorded as its vote for itself.
        if let Some((voted_for, share)) = self.cast_votes.get(&claims.new_view.0) {
            if *voted_for != candidate {
                return Err(Refusal::VotedForAnother);
            }
            return Ok(Verdict::Revote(share.clone()));
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
        let signer = Actor::Server(candidate);
        if !self
            .registry
            .verify(signer, campaign_digest.as_ref(), &claims.sig)
        {
            return Err(Refusal::BadSignature);
        }

        // C2: the view change must be justified — either by a conf_QC of
        // threshold f+1, or (for campaigns without one) by the local policy
        // clock saying a rotation is due.
        let justified = match &claims.conf_qc {
            Some(qc) => {
                let confirm_quorum = self.config.replicas.confirm_quorum();
                qc.kind == QcKind::Confirm && self.verify_qc_cached(qc, confirm_quorum, ctx)
            }
            None => self.rotation_due(ctx.now()),
        };
        if !justified {
            return Err(Refusal::Unjustified);
        }

        // The candidate operates in a higher view than this server knows
        // about: sync its view-change blocks, and the vote is retried after.
        if claims.view > self.current_view() {
            return Ok(Verdict::SyncFirst);
        }

        // C3, committed half: the candidate's replication must be at least as
        // up-to-date — and since wire v3 the claim is *certified* by the
        // commit QC of the claimed latest block.
        if claims.latest_seq < self.store.latest_seq() {
            return Err(Refusal::CommittedTipBehind);
        }
        self.verify_commit_claim(claims.latest_seq, claims.commit_cert.as_ref(), ctx)?;
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
        let (seq, ord_seq) = (claims.latest_seq, claims.latest_ord_seq);
        self.verify_tip_cert(seq, ord_seq, &claims.tip_cert, ctx)?;
        self.signed_instances_covered(seq, ord_seq, &claims.tip_cert)?;

        // C4: the claimed reputation penalty and compensation index must be
        // reproducible from the candidate's recorded history.
        let outcome = self.calc_rp_for(candidate, claims.view, claims.new_view, seq);
        if (outcome.new_rp, outcome.new_ci) != (claims.rp, claims.ci) {
            return Err(Refusal::RpNotReproducible);
        }

        // C5: the performed computation must match the penalty (one hash).
        self.charge_verify_cost(ctx);
        let puzzle = PowPuzzle::new(claims.latest_tx_digest, claims.rp);
        let solution = PowSolution {
            nonce: claims.nonce,
            hash_result: claims.hash_result,
        };
        PowSolver::PAPER_MODEL
            .verify(&puzzle, &solution)
            .map_err(|_| Refusal::PowInvalid)?;
        Ok(Verdict::Vote(campaign_digest))
    }

    /// Handles a candidate's campaign message: judges it, then applies the
    /// verdict's effects.
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
        let verdict = self.judge_camp(candidate, &claims, ctx);
        let new_view = claims.new_view;
        let share = match verdict {
            Verdict::Vote(digest) => sign_share(
                &self.registry,
                self.id,
                QcKind::ViewChange,
                new_view,
                SeqNum(0),
                &digest,
            )
            .inspect(|share| self.record_vote(new_view, candidate, share)),
            Verdict::Revote(share) => Some(share),
            Verdict::SyncFirst => {
                self.request_sync(from, self.store.latest_seq().0, ctx);
                None
            }
            Verdict::Refuse(refusal) => {
                if refusal == Refusal::SignedInstancesUncovered {
                    // This voter is the proof-holder for the instances the
                    // candidate cannot cover: answer the question the
                    // candidate's claim asks (rate-limited), so an honest
                    // candidate's next campaign round is certifiable — the
                    // refusal stays, the knowledge gap does not.
                    let first = claims.latest_seq.0 + 1;
                    self.serve_sync(from, claims.view, first, self.signed_commit_tip, ctx);
                }
                *self.stats.camp_refusals.entry(refusal).or_default() += 1;
                None
            }
        };
        if let Some(share) = share {
            ctx.send(
                from,
                Message::VoteCP {
                    new_view,
                    candidate,
                    share,
                },
            );
        }
    }

    /// Records this server's criterion-C1 vote in `view`, unless it already
    /// voted there. The vote is logged before it leaves, so a restarted
    /// replica keeps the promise (replay refills `cast_votes`).
    pub(crate) fn record_vote(&mut self, view: View, candidate: ServerId, share: &PartialSig) {
        if self.cast_votes.contains_key(&view.0) {
            return;
        }
        self.wal_append(WalRecordRef::Vote {
            view,
            candidate,
            share,
        });
        self.cast_votes.insert(view.0, (candidate, share.clone()));
    }

    /// Handles an election vote; `2f + 1` votes elect this candidate. A
    /// leader-elect (its vote QC formed) ignores later votes, so a late or
    /// re-sent one cannot elect it twice.
    pub(crate) fn handle_vote_cp(
        &mut self,
        new_view: View,
        candidate: ServerId,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        match &self.phase {
            Phase::Candidate { votes, .. } if candidate == self.id && !votes.complete() => {}
            _ => return,
        }
        self.charge_verify_cost(ctx);
        let Phase::Candidate {
            campaign, votes, ..
        } = &mut self.phase
        else {
            return;
        };
        if campaign.new_view != new_view
            || votes.add_share(&self.registry, &share).is_err()
            || !votes.complete()
        {
            return;
        }
        let Ok(vc_qc) = votes.assemble() else {
            return;
        };
        self.become_leader(vc_qc, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_crypto::{KeyRegistry, QcBuilder};
    use prestige_sim::{Effects, Emission, SimRng, SimTime};
    use prestige_storage::{SharedMemStorage, WalRecord};
    use prestige_types::{ClusterConfig, Proposal};
    use std::sync::Arc;

    const CANDIDATE: ServerId = ServerId(3);

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

    /// One ordering QC at `view` per listed instance, over digest `[n; 32]`.
    fn tip_cert(registry: &KeyRegistry, view: u64, seqs: &[u64]) -> Vec<QuorumCertificate> {
        let quorum = ClusterConfig::new(4).quorum();
        let qc = |&n: &u64| ordering_qc(registry, View(view), n, Digest([n as u8; 32]), quorum);
        seqs.iter().map(qc).collect()
    }

    /// Re-signs the claims as the candidate, after a row changed a field
    /// the campaign digest covers.
    fn resign(registry: &KeyRegistry, claims: &mut CampClaims) {
        let digest = PrestigeServer::campaign_digest(
            CANDIDATE,
            claims.new_view,
            claims.rp,
            claims.nonce,
            &claims.hash_result,
            claims.latest_seq,
            claims.latest_ord_seq,
            &claims.latest_tx_digest,
        );
        let key = registry.key_of(Actor::Server(CANDIDATE)).unwrap();
        claims.sig = key.sign(digest.as_ref());
    }

    /// A fully valid V1→V2 campaign by `CANDIDATE` (genesis committed
    /// state, conf_QC-justified) with an explicit certified ordered-tip
    /// claim.
    fn genesis_camp(
        registry: &KeyRegistry,
        voter: &PrestigeServer,
        latest_ord_seq: u64,
        tip_cert: Vec<QuorumCertificate>,
    ) -> CampClaims {
        let (view, new_view) = (View(1), View(2));
        // C4: from genesis, the engine computes rp 2 / ci 1 for any campaign
        // V1 → V2 (pinned by `calc_rp_for_initial_campaign_matches_engine`).
        let outcome = voter.calc_rp_for(CANDIDATE, view, new_view, SeqNum(0));
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
        // C5: solve the (modeled) puzzle over the claimed latest tx digest.
        let tx_digest = voter.store.latest_tx_digest();
        let puzzle = PowPuzzle::new(tx_digest, outcome.new_rp);
        let (solution, _) = PowSolver::PAPER_MODEL.solve(&puzzle, SimRng::new(11).rng());
        let mut claims = CampClaims {
            conf_qc: Some(builder.assemble().unwrap()),
            view,
            new_view,
            rp: outcome.new_rp,
            ci: outcome.new_ci,
            nonce: solution.nonce,
            hash_result: solution.hash_result,
            latest_seq: SeqNum(0),
            latest_ord_seq: SeqNum(latest_ord_seq),
            commit_cert: None,
            tip_cert,
            latest_tx_digest: tx_digest,
            sig: [0; 32],
        };
        resign(registry, &mut claims);
        claims
    }

    fn batch(n: u64) -> Arc<Vec<Proposal>> {
        Arc::new(vec![Proposal::new(
            prestige_types::Transaction::with_size(prestige_types::ClientId(1), n, 16),
            Digest::ZERO,
        )])
    }

    /// The verdict's name, the kinds of message handling the campaign
    /// emitted, and the refusal counter that moved.
    type Outcome = (String, Vec<&'static str>, Option<Refusal>);

    /// Judges `claims` from `CANDIDATE`, then handles them as delivered.
    fn judge_and_handle(voter: &mut PrestigeServer, claims: CampClaims) -> Outcome {
        let before = voter.stats.camp_refusals.clone();
        let mut effects = Effects::new();
        let (mut rng, mut next_timer_id) = (SimRng::new(3), 500);
        let me = Actor::Server(voter.id());
        let now = SimTime::from_ms(1.0);
        let mut ctx = Context::new(now, me, &mut rng, &mut next_timer_id, &mut effects);
        let verdict = match voter.judge_camp(CANDIDATE, &claims, &mut ctx) {
            Verdict::Vote(_) => "Vote".to_string(),
            Verdict::Revote(_) => "Revote".to_string(),
            Verdict::SyncFirst => "SyncFirst".to_string(),
            Verdict::Refuse(refusal) => format!("{refusal:?}"),
        };
        voter.handle_camp(Actor::Server(CANDIDATE), claims, &mut ctx);
        let sent = effects.emissions.iter().map(|e| match e {
            Emission::Send(_, Message::VoteCP { .. }) => "VoteCP",
            Emission::Send(_, Message::SyncReq { .. }) => "SyncReq",
            Emission::Send(_, Message::SyncResp { .. }) => "SyncResp",
            _ => "other",
        });
        let mut after = voter.stats.camp_refusals.iter();
        let moved = after.find(|&(r, n)| before.get(r) != Some(n));
        (verdict, sent.collect(), moved.map(|(r, _)| *r))
    }

    fn fresh_voter(registry: &KeyRegistry) -> PrestigeServer {
        PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0)
    }

    /// The voter commit-signed instance 1 under the view-3 re-proposal and
    /// holds its batch and view-3 ordering QC.
    fn signed_at_view_3(voter: &mut PrestigeServer, _: &CampClaims) {
        let qc = tip_cert(&voter.registry, 3, &[1]).pop();
        voter.signed_commit_tip = 1;
        let record = voter.instances.entry(1).or_default();
        (record.signed, record.ord_qc, record.batch) = (Some(View(3)), qc, Some(batch(1)));
    }

    fn untouched(_: &mut PrestigeServer, _: &CampClaims) {}

    /// One row per verdict: what the voter held, the campaign it was sent,
    /// and what judging and handling that campaign must produce.
    struct Row {
        name: &'static str,
        setup: fn(&mut PrestigeServer, &CampClaims),
        camp: fn(&KeyRegistry, &PrestigeServer) -> CampClaims,
        verdict: &'static str,
        sent: &'static [&'static str],
        moved: Option<Refusal>,
    }

    #[test]
    fn every_verdict_judges_emits_and_counts_as_its_row_says() {
        use Refusal::*;
        let rows = [
            Row {
                // The candidate is ahead, but the voter does not ask it: the
                // vcBlock and the re-proposed `Ord`s carry that state.
                name: "a fully certified claim earns the vote",
                setup: untouched,
                camp: |r, v| genesis_camp(r, v, 2, tip_cert(r, 1, &[1, 2])),
                verdict: "Vote",
                sent: &["VoteCP"],
                moved: None,
            },
            Row {
                name: "an unencumbered voter votes for a tip-0 claim",
                setup: untouched,
                camp: |r, v| genesis_camp(r, v, 0, Vec::new()),
                verdict: "Vote",
                sent: &["VoteCP"],
                moved: None,
            },
            Row {
                name: "a campaign for the current view is stale",
                setup: untouched,
                camp: |r, v| CampClaims {
                    new_view: View(1),
                    ..genesis_camp(r, v, 0, Vec::new())
                },
                verdict: "StaleView",
                sent: &[],
                moved: Some(StaleView),
            },
            Row {
                name: "C1: a retransmitted campaign gets the same vote again",
                setup: |v, c| {
                    judge_and_handle(v, c.clone());
                },
                camp: |r, v| genesis_camp(r, v, 0, Vec::new()),
                verdict: "Revote",
                sent: &["VoteCP"],
                moved: None,
            },
            Row {
                name: "C1: one vote per view",
                setup: |v, _| {
                    let digest = Digest::ZERO;
                    let share = sign_share(
                        &v.registry,
                        v.id,
                        QcKind::ViewChange,
                        View(2),
                        SeqNum(0),
                        &digest,
                    );
                    v.cast_votes.insert(2, (ServerId(2), share.unwrap()));
                },
                camp: |r, v| genesis_camp(r, v, 0, Vec::new()),
                verdict: "VotedForAnother",
                sent: &[],
                moved: Some(VotedForAnother),
            },
            Row {
                name: "C1: a vote replayed from the WAL binds the restarted voter",
                setup: |v, _| {
                    let digest = Digest::ZERO;
                    let share = sign_share(
                        &v.registry,
                        v.id,
                        QcKind::ViewChange,
                        View(2),
                        SeqNum(0),
                        &digest,
                    );
                    v.replay_wal(vec![WalRecord::Vote {
                        view: View(2),
                        candidate: ServerId(2),
                        share: share.unwrap(),
                    }]);
                },
                camp: |r, v| genesis_camp(r, v, 0, Vec::new()),
                verdict: "VotedForAnother",
                sent: &[],
                moved: Some(VotedForAnother),
            },
            Row {
                // The vote is logged before it leaves, so the voter that
                // crashed after sending it re-sends the same share.
                name: "C1: a restarted voter re-sends the vote its WAL kept",
                setup: |v, c| {
                    let log = SharedMemStorage::new();
                    v.attach_storage(Box::new(log.clone()));
                    judge_and_handle(v, c.clone());
                    *v = fresh_voter(&v.registry.clone());
                    v.replay_wal(log.records_snapshot());
                },
                camp: |r, v| genesis_camp(r, v, 0, Vec::new()),
                verdict: "Revote",
                sent: &["VoteCP"],
                moved: None,
            },
            Row {
                name: "a campaign not signed by its candidate",
                setup: untouched,
                camp: |r, v| {
                    let mut claims = genesis_camp(r, v, 0, Vec::new());
                    claims.sig[0] ^= 1;
                    claims
                },
                verdict: "BadSignature",
                sent: &[],
                moved: Some(BadSignature),
            },
            Row {
                name: "C2: a forged conf_QC",
                setup: untouched,
                camp: |r, v| {
                    let mut claims = genesis_camp(r, v, 0, Vec::new());
                    claims.conf_qc.as_mut().unwrap().aggregate[0] ^= 0xFF;
                    claims
                },
                verdict: "Unjustified",
                sent: &[],
                moved: Some(Unjustified),
            },
            Row {
                name: "C2: no conf_QC while no rotation is due",
                setup: untouched,
                camp: |r, v| CampClaims {
                    conf_qc: None,
                    ..genesis_camp(r, v, 0, Vec::new())
                },
                verdict: "Unjustified",
                sent: &[],
                moved: Some(Unjustified),
            },
            Row {
                name: "a candidate in an uninstalled view is synced from first",
                setup: untouched,
                camp: |r, v| CampClaims {
                    view: View(2),
                    ..genesis_camp(r, v, 0, Vec::new())
                },
                verdict: "SyncFirst",
                sent: &["SyncReq"],
                moved: None,
            },
            Row {
                name: "C3: a committed tip without its commit QC",
                setup: untouched,
                camp: |r, v| {
                    let mut claims = genesis_camp(r, v, 1, Vec::new());
                    claims.latest_seq = SeqNum(1);
                    resign(r, &mut claims);
                    claims
                },
                verdict: "CommittedTipUncertified",
                sent: &[],
                moved: Some(CommittedTipUncertified),
            },
            Row {
                // The F5 tip liar: claims an ordered tip it cannot prove.
                name: "C3: an overclaimed tip without certificates",
                setup: untouched,
                camp: |r, v| genesis_camp(r, v, 3, Vec::new()),
                verdict: "OrderedTipUncertified",
                sent: &[],
                moved: Some(OrderedTipUncertified),
            },
            Row {
                name: "C3: a short certificate (claim 3, prove 2)",
                setup: untouched,
                camp: |r, v| genesis_camp(r, v, 3, tip_cert(r, 1, &[1, 2])),
                verdict: "OrderedTipUncertified",
                sent: &[],
                moved: Some(OrderedTipUncertified),
            },
            Row {
                name: "C3: a gapped certificate (instances 1 and 3)",
                setup: untouched,
                camp: |r, v| genesis_camp(r, v, 2, tip_cert(r, 1, &[1, 3])),
                verdict: "OrderedTipUncertified",
                sent: &[],
                moved: Some(OrderedTipUncertified),
            },
            Row {
                name: "C3: a tampered ordering QC",
                setup: untouched,
                camp: |r, v| {
                    let mut cert = tip_cert(r, 1, &[1]);
                    cert[0].aggregate[0] ^= 0xFF;
                    genesis_camp(r, v, 1, cert)
                },
                verdict: "OrderedTipUncertified",
                sent: &[],
                moved: Some(OrderedTipUncertified),
            },
            Row {
                // The voter holds the proof, so it answers the claim's gap.
                name: "C3: a certificate staler than the voter's commit share",
                setup: signed_at_view_3,
                camp: |r, v| genesis_camp(r, v, 1, tip_cert(r, 1, &[1])),
                verdict: "SignedInstancesUncovered",
                sent: &["SyncResp"],
                moved: Some(SignedInstancesUncovered),
            },
            Row {
                name: "C3: a certificate as fresh as the voter's commit share",
                setup: signed_at_view_3,
                camp: |r, v| genesis_camp(r, v, 1, tip_cert(r, 3, &[1])),
                verdict: "Vote",
                sent: &["VoteCP"],
                moved: None,
            },
            Row {
                // An elected stale leader would overwrite a possibly-
                // committed instance and fork the chain.
                name: "C3: an ordered claim below the voter's signed commit tip",
                setup: |v, _| v.signed_commit_tip = 3,
                camp: |r, v| genesis_camp(r, v, 0, Vec::new()),
                verdict: "SignedInstancesUncovered",
                sent: &[],
                moved: Some(SignedInstancesUncovered),
            },
            Row {
                name: "C3: a certified claim through the voter's signed commit tip",
                setup: |v, _| v.signed_commit_tip = 3,
                camp: |r, v| genesis_camp(r, v, 3, tip_cert(r, 1, &[1, 2, 3])),
                verdict: "Vote",
                sent: &["VoteCP"],
                moved: None,
            },
            Row {
                // Appendix C: S1 campaigning V1 → V2 from rp(1) = 1 pays
                // rp 2; a claim of 1 skips the penalty.
                name: "C4: an rp the candidate's history does not reproduce",
                setup: untouched,
                camp: |r, v| {
                    let mut claims = genesis_camp(r, v, 2, tip_cert(r, 1, &[1, 2]));
                    claims.rp = 1;
                    resign(r, &mut claims);
                    claims
                },
                verdict: "RpNotReproducible",
                sent: &[],
                moved: Some(RpNotReproducible),
            },
            Row {
                name: "C5: a proof of work for another nonce",
                setup: untouched,
                camp: |r, v| {
                    let mut claims = genesis_camp(r, v, 0, Vec::new());
                    claims.nonce ^= 1;
                    resign(r, &mut claims);
                    claims
                },
                verdict: "PowInvalid",
                sent: &[],
                moved: Some(PowInvalid),
            },
        ];
        let registry = KeyRegistry::new(5, 4, 2);
        for row in rows {
            let mut voter = fresh_voter(&registry);
            let claims = (row.camp)(&registry, &voter);
            (row.setup)(&mut voter, &claims);
            let expected = (row.verdict.to_string(), row.sent.to_vec(), row.moved);
            assert_eq!(
                judge_and_handle(&mut voter, claims),
                expected,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn build_tip_cert_counts_only_provable_instances() {
        // The candidate side of the same contract: only instances with both
        // the ordering QC and a matching batch count toward the claim.
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = fresh_voter(&registry);
        let quorum = server.config.quorum();
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

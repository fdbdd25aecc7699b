//! Failure detection (§4.2.1) and the redeemer/candidate half of the
//! view-change state machine (§4.2.2), plus election timeouts, policy
//! rotations, and the F4/F5 attack hooks.

use crate::faults::AttackStrategy;
use crate::pacemaker::timer_tags;
use crate::server::{CampaignState, Phase, PrestigeServer};
use prestige_crypto::{sign_share, PowPuzzle, PowSolver};
use prestige_sim::{Context, TimerId};
use prestige_types::{
    Actor, ClientId, Digest, Message, PartialSig, Proposal, QcKind, QuorumCertificate, SeqNum,
    ServerId, View,
};

impl PrestigeServer {
    // ------------------------------------------------------------------
    // Failure detection (§4.2.1)
    // ------------------------------------------------------------------

    /// Handles a client complaint: relay it to the leader, arm the grace
    /// timer, and keep the proposal so a later leader can commit it.
    pub(crate) fn handle_compt(
        &mut self,
        _from: Actor,
        proposal: Proposal,
        client_sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        self.charge_verify_cost(ctx);
        let key = proposal.tx.key();
        if self.complaints.contains_key(&key) {
            // Complaint already being tracked: its grace timer is armed, so
            // a retransmitted complaint must not relay again or arm another.
            // (The guard used to be conjoined with `latest_seq() > 0`, which
            // disabled dedup exactly when complaint storms are most likely —
            // a silent leader at genesis.)
            return;
        }
        // Keep the proposal so it can be committed by this or a later leader.
        if self.clients.note_seen(key) {
            self.pending_proposals.push(proposal.clone());
        }
        if self.is_leader() && !self.behavior.silent_as_leader() {
            // The leader treats the complaint as a (re-)proposal; it will be
            // committed by the normal batching path.
            return;
        }
        self.complaints.insert(key, self.current_view());
        // Relay to the leader.
        ctx.send(
            Actor::Server(self.current_leader()),
            Message::Compt {
                proposal,
                client_sig,
            },
        );
        // Wait for the leader to commit before suspecting it. Attackers use a
        // zero grace period to push view changes as aggressively as possible.
        let grace = if self.behavior.attacks_view_changes() {
            prestige_sim::SimDuration::ZERO
        } else {
            self.pacemaker.complaint_grace()
        };
        let timer = ctx.set_timer(grace, timer_tags::COMPLAINT);
        self.complaint_timers.insert(timer, key);
    }

    /// Complaint grace timer: if the complained-about transaction is still
    /// uncommitted, broadcast a `ConfVC` inspection.
    pub(crate) fn on_complaint_timer(&mut self, id: TimerId, ctx: &mut Context<Message>) {
        let key = match self.complaint_timers.remove(&id) {
            Some(k) => k,
            None => return,
        };
        if !self.complaints.contains_key(&key) {
            return; // Committed in the meantime: the leader is correct.
        }
        let view = self.current_view();
        let digest = Self::confvc_digest(view);
        // Start collecting ReVC replies (including our own share), unless
        // this view's collection is already open.
        if self.confvc_builder.is_none() {
            let threshold = self.config.replicas.confirm_quorum();
            let (builder, _) =
                self.open_quorum(QcKind::Confirm, view, SeqNum(0), digest, threshold);
            self.confvc_builder = Some(builder);
        }
        let sig = self.sign(digest.as_ref());
        ctx.broadcast(
            self.other_servers(),
            Message::ConfVC {
                view,
                tx_key: key,
                sig,
            },
        );
        let timeout = self.pacemaker.election_timeout(ctx.rng());
        let timer = ctx.set_timer(timeout, timer_tags::CONF_VC);
        self.confvc_timers.insert(timer, view.0);
    }

    /// Handles a peer's `ConfVC` inspection: endorse it only if this server
    /// received the same complaint (which is what stops faulty clients and
    /// servers from manufacturing view changes under a correct leader).
    pub(crate) fn handle_conf_vc(
        &mut self,
        from: Actor,
        view: View,
        tx_key: (ClientId, u64),
        sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        if view < self.current_view() {
            return;
        }
        self.charge_verify_cost(ctx);
        let digest = Self::confvc_digest(view);
        if !self.registry.verify(from, digest.as_ref(), &sig) {
            return;
        }
        if !self.complaints.contains_key(&tx_key) {
            return;
        }
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::Confirm,
            view,
            SeqNum(0),
            &digest,
        ) {
            ctx.send(
                from,
                Message::ReVC {
                    view,
                    tx_key,
                    share,
                },
            );
        }
    }

    /// Handles a `ReVC` endorsement: `f + 1` of them form the `conf_QC` and
    /// the server transitions to redeemer.
    pub(crate) fn handle_re_vc(
        &mut self,
        view: View,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if view != self.current_view() {
            return;
        }
        self.charge_verify_cost(ctx);
        let Some(builder) = self.confvc_builder.as_mut() else {
            return;
        };
        if builder.add_share(&self.registry, &share).is_err() || !builder.complete() {
            return;
        }
        let Ok(conf_qc) = builder.assemble() else {
            return;
        };
        self.confvc_builder = None;
        self.stats.view_changes_confirmed += 1;
        self.start_campaign(view.next(), Some(conf_qc), ctx);
    }

    /// ConfVC collection timeout: the inspection failed to gather `f + 1`
    /// endorsements, so the complaining client is tagged as faulty.
    pub(crate) fn on_confvc_timer(&mut self, id: TimerId) {
        let Some(view) = self.confvc_timers.remove(&id) else {
            return;
        };
        // A view install drops the collection, so an older view's timer
        // finds nothing to close.
        if view != self.current_view().0 {
            return;
        }
        if self.confvc_builder.as_ref().is_some_and(|b| !b.complete()) {
            self.confvc_builder = None;
            // Per §4.2.1 the complaining client is tagged; the complaint
            // entries for the stale view are dropped.
            self.complaints.retain(|_, v| v.0 != view);
        }
    }

    // ------------------------------------------------------------------
    // Redeemer (§4.2.2)
    // ------------------------------------------------------------------

    /// Transitions to redeemer and starts the reputation-determined work for
    /// a campaign targeting `new_view`.
    pub(crate) fn start_campaign(
        &mut self,
        new_view: View,
        conf_qc: Option<QuorumCertificate>,
        ctx: &mut Context<Message>,
    ) {
        if self.is_leader() && !self.behavior.attacks_view_changes() {
            return; // A correct current leader does not campaign against itself.
        }
        if new_view <= self.store.current_view() {
            return;
        }
        if self
            .phase
            .campaign()
            .is_some_and(|c| c.new_view >= new_view)
        {
            return; // Already campaigning for this view or a later one.
        }
        let (view, tip) = (self.store.current_view(), self.store.latest_seq());
        let outcome = self.calc_rp_for(self.id, view, new_view, tip);
        // S2 attackers only strike when the engine projects a compensation.
        if self.behavior.strategy() == Some(AttackStrategy::WhenCompensable) && !outcome.compensated
        {
            return;
        }
        let rp = outcome.new_rp;
        let ci = outcome.new_ci;
        let tx_digest = self.store.latest_tx_digest();
        let tx_seq = self.store.latest_seq();
        // The certified claim: only instances whose ordering QC *and* batch
        // this server holds count — voters verify the certificates instead of
        // trusting the tip. A server that commit-signed beyond its certified
        // state (it saw a `Cmt` but never the `Ord`) asked for the batch when
        // it signed; a voter holding the proof pushes it when it refuses the
        // uncovered claim.
        let (ord_seq, tip_cert) = self.build_tip_cert();
        let commit_cert = self.store.latest_tx_block().commit_qc.clone();

        self.stats.campaigns_started += 1;

        // Solve the puzzle: the modeled solver samples the attempt count from
        // the geometric distribution, and the redeemer waits out the time
        // those attempts take at its hash rate (DESIGN.md §1).
        let solver = PowSolver::PAPER_MODEL;
        let puzzle = PowPuzzle::new(tx_digest, rp);
        let (solution, attempts) = solver.solve(&puzzle, ctx.rng().rng());
        let solve_ms = solver.attempts_to_ms(attempts);
        self.stats.pow_ms_total += solve_ms;
        self.stats.last_campaign = Some((ctx.now().as_ms(), rp, solve_ms));

        let campaign = CampaignState {
            new_view,
            rp,
            ci,
            conf_qc,
            solution,
            tx_digest,
            tx_seq,
            ord_seq,
            commit_cert,
            tip_cert,
        };
        let pow_timer = ctx.set_timer(
            prestige_sim::SimDuration::from_ms(solve_ms),
            timer_tags::POW_DONE,
        );
        // Replication stops while campaigning (§4.2.2 line 34).
        self.phase = Phase::Redeemer {
            campaign,
            pow_timer,
        };
    }

    /// Puzzle finished: transition redeemer → candidate and broadcast the
    /// campaign.
    pub(crate) fn on_pow_done(&mut self, id: TimerId, ctx: &mut Context<Message>) {
        let campaign = match std::mem::replace(&mut self.phase, Phase::Follower) {
            Phase::Redeemer {
                campaign,
                pow_timer,
            } if pow_timer == id => campaign,
            other => {
                self.phase = other; // A superseded puzzle, or no campaign.
                return;
            }
        };
        let new_view = campaign.new_view;
        let (_, digest) = campaign.signed_claim(self.id, self.behavior.overclaims_tip());
        let quorum = self.config.quorum();
        let (votes, share) =
            self.open_quorum(QcKind::ViewChange, new_view, SeqNum(0), digest, quorum);
        // C1: a candidate's own campaign is its vote in the view, unless it
        // already voted for another candidate there.
        self.record_vote(new_view, self.id, &share);
        ctx.broadcast(self.other_servers(), self.campaign_message(&campaign));
        let timeout = self.pacemaker.election_timeout(ctx.rng());
        let election_timer = ctx.set_timer(timeout, timer_tags::ELECTION);
        self.phase = Phase::Candidate {
            campaign,
            votes,
            election_timer,
        };
    }

    /// The `Camp` message of `campaign`, rebuilt from the stored solution
    /// and claims. Used for the initial candidate broadcast and by the
    /// repair-timer election retransmission (a lost `Camp` otherwise wedges
    /// the election until the candidate times out and re-solves).
    pub(crate) fn campaign_message(&self, campaign: &CampaignState) -> Message {
        let (claimed_ord_seq, digest) =
            campaign.signed_claim(self.id, self.behavior.overclaims_tip());
        Message::Camp {
            conf_qc: campaign.conf_qc.clone(),
            view: self.store.current_view(),
            new_view: campaign.new_view,
            rp: campaign.rp,
            ci: campaign.ci,
            nonce: campaign.solution.nonce,
            hash_result: campaign.solution.hash_result,
            latest_seq: campaign.tx_seq,
            latest_ord_seq: claimed_ord_seq,
            commit_cert: campaign.commit_cert.clone(),
            tip_cert: campaign.tip_cert.clone(),
            latest_tx_digest: campaign.tx_digest,
            sig: self.sign(digest.as_ref()),
        }
    }

    // ------------------------------------------------------------------
    // Election timeouts, policy rotations, attacks
    // ------------------------------------------------------------------

    /// Candidate election timeout: split votes or a lost election. Per the
    /// paper, the candidate transitions back to redeemer with `V' + 1`.
    pub(crate) fn on_election_timer(&mut self, id: TimerId, ctx: &mut Context<Message>) {
        let campaign = match std::mem::replace(&mut self.phase, Phase::Follower) {
            Phase::Candidate {
                campaign,
                election_timer,
                ..
            } if election_timer == id => campaign,
            other => {
                self.phase = other; // A stale timer: the candidacy it timed is over.
                return;
            }
        };
        self.stats.election_timeouts += 1;
        let retry_view = campaign.new_view.next();
        self.start_campaign(retry_view, campaign.conf_qc, ctx);
    }

    /// Policy rotation timer: if the current view has run its course under a
    /// timing policy, schedule a (jittered) campaign.
    pub(crate) fn on_policy_timer(&mut self, ctx: &mut Context<Message>) {
        let interval = match self.pacemaker.rotation_interval() {
            Some(i) => i,
            None => return,
        };
        if !self.rotation_due(ctx.now()) {
            return; // A newer view was installed; its own timer is armed.
        }
        // Re-arm so a failed rotation is retried.
        ctx.set_timer(interval, timer_tags::POLICY);
        if self.rotation_pending {
            return; // This view's rotation is already under way.
        }
        // Quiesce replication in the outgoing view so candidates campaign
        // against a stable log (C3 would otherwise race in-flight commits).
        self.rotation_pending = true;
        if self.is_leader() && !self.behavior.attacks_view_changes() {
            return; // The incumbent does not campaign for its own succession.
        }
        if self.behavior.attacks_view_changes() {
            // F4 attackers race: campaign immediately with no back-off.
            let next = self.store.current_view().next();
            self.start_campaign(next, None, ctx);
            return;
        }
        let jitter = ctx
            .rng()
            .uniform(0.0, self.pacemaker.timeouts().randomization_ms.max(1.0));
        ctx.set_timer(
            prestige_sim::SimDuration::from_ms(jitter),
            timer_tags::POLICY_CAMPAIGN,
        );
    }

    /// Jittered policy campaign: start the campaign unless someone else
    /// already rotated the view.
    pub(crate) fn on_policy_campaign_timer(&mut self, ctx: &mut Context<Message>) {
        if !self.rotation_due(ctx.now()) {
            return;
        }
        if self.is_leader() {
            return;
        }
        let next = self.store.current_view().next();
        self.start_campaign(next, None, ctx);
    }

    /// Periodic attack trigger for F4/F5 behaviours: campaign whenever not
    /// the leader (strategy permitting).
    pub(crate) fn on_attack_timer(&mut self, ctx: &mut Context<Message>) {
        if !self.behavior.attacks_view_changes() {
            return;
        }
        // Re-arm.
        let period = prestige_sim::SimDuration::from_ms(self.pacemaker.timeouts().base_timeout_ms);
        ctx.set_timer(period, timer_tags::ATTACK);
        if self.is_leader() {
            return;
        }
        if self.rotation_due(ctx.now()) {
            let next = self.store.current_view().next();
            self.start_campaign(next, None, ctx);
        }
    }
}

impl CampaignState {
    /// The ordered tip this campaign claims and the campaign digest its
    /// `Camp` is signed over. The F5 tip liar
    /// (`overclaims`) overstates its certified claim without holding the
    /// QCs — the attack the certificate check exists to refuse. The lie is
    /// signed consistently (the claim is inside the campaign digest), so
    /// only the *certificate* check can catch it.
    fn signed_claim(&self, candidate: ServerId, overclaims: bool) -> (SeqNum, Digest) {
        let solution = &self.solution;
        let ord_seq = SeqNum(self.ord_seq.0 + if overclaims { 8 } else { 0 });
        let digest = PrestigeServer::campaign_digest(
            candidate,
            self.new_view,
            self.rp,
            solution.nonce,
            &solution.hash_result,
            self.tx_seq,
            ord_seq,
            &self.tx_digest,
        );
        (ord_seq, digest)
    }
}

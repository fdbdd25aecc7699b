//! Failure detection (§4.2.1) and the redeemer/candidate half of the
//! view-change state machine (§4.2.2), plus election timeouts, policy
//! rotations, and the F4/F5 attack hooks.

use crate::faults::AttackStrategy;
use crate::pacemaker::timer_tags;
use crate::server::{CampaignState, PrestigeServer, ServerRole};
use prestige_crypto::{sign_share, PowPuzzle, PowSolver, QcBuilder};
use prestige_sim::{Context, TimerId};
use prestige_types::{
    Actor, ClientId, Message, PartialSig, Proposal, QcKind, QuorumCertificate, SeqNum, View,
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
        if self.role == ServerRole::Leader && !self.behavior.silent_as_leader() {
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
        // Start collecting ReVC replies (including our own share).
        let builder = self.confvc_builders.entry(view.0).or_insert_with(|| {
            QcBuilder::new(
                QcKind::Confirm,
                view,
                SeqNum(0),
                digest,
                self.config.replicas.confirm_quorum(),
            )
        });
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::Confirm,
            view,
            SeqNum(0),
            &digest,
        ) {
            let _ = builder.add_share(&self.registry, &share);
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
        _tx_key: (ClientId, u64),
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if view != self.current_view() {
            return;
        }
        self.charge_verify_cost(ctx);
        let builder = match self.confvc_builders.get_mut(&view.0) {
            Some(b) => b,
            None => return,
        };
        if builder.add_share(&self.registry, &share).is_err() || !builder.complete() {
            return;
        }
        let conf_qc = match builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        self.confvc_builders.remove(&view.0);
        self.stats.view_changes_confirmed += 1;
        self.start_campaign(view.next(), Some(conf_qc), ctx);
    }

    /// ConfVC collection timeout: the inspection failed to gather `f + 1`
    /// endorsements, so the complaining client is tagged as faulty.
    pub(crate) fn on_confvc_timer(&mut self, id: TimerId, ctx: &mut Context<Message>) {
        let view = match self.confvc_timers.remove(&id) {
            Some(v) => v,
            None => return,
        };
        let _ = ctx;
        if let Some(builder) = self.confvc_builders.get(&view) {
            if !builder.complete() {
                self.confvc_builders.remove(&view);
                // Per §4.2.1 the complaining client is tagged; the complaint
                // entries for the stale view are dropped.
                self.complaints.retain(|_, v| v.0 != view);
            }
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
        if self.role == ServerRole::Leader && !self.behavior.attacks_view_changes() {
            return; // A correct current leader does not campaign against itself.
        }
        if new_view <= self.store.current_view() {
            return;
        }
        if let Some(c) = &self.campaign {
            if c.new_view >= new_view {
                return; // Already campaigning for this view or a later one.
            }
        }
        let outcome = self.calc_rp_for(self.id, new_view);
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
        // state (it saw a `Cmt` but never the `Ord`) repairs the hole through
        // the recovery plane before its claim can cover the signed tip.
        let (ord_seq, tip_cert) = self.build_tip_cert();
        if self.signed_commit_tip > ord_seq.0 {
            let peer = self.next_sync_peer();
            self.request_sync(peer, self.signed_commit_tip, ctx);
        }
        let commit_cert = self.store.latest_tx_block().commit_qc.clone();

        // Replication stops while campaigning (§4.2.2 line 34).
        self.role = ServerRole::Redeemer;
        self.stats.campaigns_started += 1;

        // Solve the puzzle: the modeled solver samples the attempt count from
        // the geometric distribution, and the redeemer waits out the time
        // those attempts take at its hash rate (DESIGN.md §1).
        let solver = PowSolver::PAPER_MODEL;
        let puzzle = PowPuzzle::new(tx_digest, rp);
        let (solution, attempts) = solver.solve(&puzzle, ctx.rng().rng());
        let solve_ms = solver.attempts_to_ms(attempts);
        self.stats.pow_ms_total += solve_ms;
        self.stats
            .campaign_log
            .push((ctx.now().as_ms(), rp, solve_ms));

        self.campaign = Some(CampaignState {
            old_view: self.store.current_view(),
            new_view,
            rp,
            ci,
            conf_qc,
            solution: Some(solution),
            vote_builder: None,
            tx_digest,
            tx_seq,
            ord_seq,
            commit_cert,
            tip_cert,
        });
        let timer = ctx.set_timer(
            prestige_sim::SimDuration::from_ms(solve_ms),
            timer_tags::POW_DONE,
        );
        self.pow_timer = Some(timer);
    }

    /// Puzzle finished: transition redeemer → candidate and broadcast the
    /// campaign.
    pub(crate) fn on_pow_done(&mut self, id: TimerId, ctx: &mut Context<Message>) {
        if self.pow_timer != Some(id) || self.role != ServerRole::Redeemer {
            return;
        }
        self.pow_timer = None;
        let campaign = match self.campaign.as_mut() {
            Some(c) => c,
            None => return,
        };
        // A higher view may have been installed while computing.
        if campaign.new_view <= self.store.current_view() {
            self.campaign = None;
            self.role = ServerRole::Follower;
            return;
        }
        self.role = ServerRole::Candidate;
        let solution = campaign.solution.expect("redeemer stored a solution");
        // The F5 tip liar overstates its certified claim without holding the
        // QCs — the attack the certificate check exists to refuse. The lie is
        // signed consistently (the claim is inside the campaign digest), so
        // only the *certificate* check can catch it.
        let claimed_ord_seq = if self.behavior.overclaims_tip() {
            SeqNum(campaign.ord_seq.0 + 8)
        } else {
            campaign.ord_seq
        };
        let digest = Self::campaign_digest(
            self.id,
            campaign.new_view,
            campaign.rp,
            solution.nonce,
            &solution.hash_result,
            campaign.tx_seq,
            claimed_ord_seq,
            &campaign.tx_digest,
        );
        let mut vote_builder = QcBuilder::new(
            QcKind::ViewChange,
            campaign.new_view,
            SeqNum(0),
            digest,
            self.config.quorum(),
        );
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::ViewChange,
            campaign.new_view,
            SeqNum(0),
            &digest,
        ) {
            let _ = vote_builder.add_share(&self.registry, &share);
        }
        campaign.vote_builder = Some(vote_builder);
        self.voted_views.insert(campaign.new_view.0);

        if let Some(message) = self.campaign_message() {
            ctx.broadcast(self.other_servers(), message);
        }
        let timeout = self.pacemaker.election_timeout(ctx.rng());
        self.election_timer = Some(ctx.set_timer(timeout, timer_tags::ELECTION));
    }

    /// The `Camp` message of the active campaign, rebuilt from the stored
    /// solution and claims. Used for the initial candidate broadcast and by
    /// the repair-timer election retransmission (a lost `Camp` otherwise
    /// wedges the election until the candidate times out and re-solves).
    pub(crate) fn campaign_message(&self) -> Option<Message> {
        let campaign = self.campaign.as_ref()?;
        let solution = campaign.solution?;
        let claimed_ord_seq = if self.behavior.overclaims_tip() {
            SeqNum(campaign.ord_seq.0 + 8)
        } else {
            campaign.ord_seq
        };
        let digest = Self::campaign_digest(
            self.id,
            campaign.new_view,
            campaign.rp,
            solution.nonce,
            &solution.hash_result,
            campaign.tx_seq,
            claimed_ord_seq,
            &campaign.tx_digest,
        );
        Some(Message::Camp {
            conf_qc: campaign.conf_qc.clone(),
            view: campaign.old_view,
            new_view: campaign.new_view,
            rp: campaign.rp,
            ci: campaign.ci,
            nonce: solution.nonce,
            hash_result: solution.hash_result,
            latest_seq: campaign.tx_seq,
            latest_ord_seq: claimed_ord_seq,
            commit_cert: campaign.commit_cert.clone(),
            tip_cert: campaign.tip_cert.clone(),
            latest_tx_digest: campaign.tx_digest,
            sig: self.sign(digest.as_ref()),
        })
    }

    // ------------------------------------------------------------------
    // Election timeouts, policy rotations, attacks
    // ------------------------------------------------------------------

    /// Candidate election timeout: split votes or a lost election. Per the
    /// paper, the candidate transitions back to redeemer with `V' + 1`.
    pub(crate) fn on_election_timer(&mut self, id: TimerId, ctx: &mut Context<Message>) {
        if self.election_timer != Some(id) {
            return;
        }
        self.election_timer = None;
        if self.role != ServerRole::Candidate {
            return;
        }
        let campaign = match self.campaign.take() {
            Some(c) => c,
            None => return,
        };
        self.stats.election_timeouts += 1;
        self.role = ServerRole::Follower;
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
        // Quiesce replication in the outgoing view so candidates campaign
        // against a stable log (C3 would otherwise race in-flight commits).
        self.rotation_pending = true;
        if self.policy_rotation_started {
            return;
        }
        self.policy_rotation_started = true;
        if self.role == ServerRole::Leader && !self.behavior.attacks_view_changes() {
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
        if self.role == ServerRole::Leader {
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
        if self.role == ServerRole::Leader {
            return;
        }
        if self.rotation_due(ctx.now()) {
            let next = self.store.current_view().next();
            self.start_campaign(next, None, ctx);
        }
    }
}

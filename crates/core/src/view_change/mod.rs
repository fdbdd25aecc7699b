//! The active view-change protocol (§4.2), split into cohesive units:
//!
//! * [`campaign`] — failure detection (client complaints → `ConfVC` →
//!   `ReVC` → `conf_QC`), the redeemer/candidate state machine, election
//!   timeouts, policy rotations, and the F4 attack hooks;
//! * [`certify`] — the certified recovery plane's claim machinery: building
//!   a candidate's tip certificate from its ordering QCs, verifying claims
//!   on the voter side (criteria C1–C5, with C3 now *proven* instead of
//!   trusted), and collecting election votes;
//! * [`install`] — the leader-elect phase: preparing the new `vcBlock`
//!   (carrying the certified state-transfer payload), validating and
//!   adopting it, and completing the view change.
//!
//! The Figure-5 state machine is unchanged from the paper:
//!
//! * **failure detection** — client complaints (`Compt`) are relayed to the
//!   leader; unresolved complaints trigger an inspection (`ConfVC`), and
//!   `f + 1` matching `ReVC` replies form a `conf_QC` that justifies a view
//!   change;
//! * **redeemer** — the campaigner consults the reputation engine, then solves
//!   the reputation-determined puzzle (modeled proof of work);
//! * **candidate** — broadcasts a `Camp` message; voters enforce the criteria
//!   C1–C5 (one vote per view, confirmed view change, *certified* up-to-date
//!   log, reproducible reputation penalty, verified computation); `2f + 1`
//!   votes form the `vc_QC`;
//! * **leader** — prepares the new `vcBlock` (only the winner's rp/ci change;
//!   since wire v3 it also carries the certified state transfer), collects
//!   `2f + 1` `vcYes` acknowledgements, and resumes replication;
//! * **policy rotations** — the timing policies (r10 / r30) of §6.2, where
//!   campaigns carry no `conf_QC` and voters check rotation due-ness locally;
//! * **Byzantine attack hooks** — F4 repeated campaigns under strategies
//!   S1/S2, and the tip-overclaim attack the certificates exist to refuse.

mod campaign;
mod certify;
mod install;

pub(crate) use certify::CampClaims;
pub use certify::Refusal;

use crate::server::PrestigeServer;
use prestige_crypto::hash_many;
use prestige_types::{Digest, SeqNum, ServerId, View};

impl PrestigeServer {
    /// The digest signed by `ReVC` shares confirming that a view change away
    /// from `view` is necessary.
    pub(crate) fn confvc_digest(view: View) -> Digest {
        hash_many([b"confvc".as_slice(), &view.0.to_be_bytes()])
    }

    /// The digest signed by election votes (`VoteCP` shares) for a candidate.
    ///
    /// Beyond the identity and puzzle fields, the digest covers the
    /// candidate's log claims (`latest_seq`, `latest_ord_seq`,
    /// `latest_tx_digest`): the claims are certified by QCs since wire v3,
    /// and binding them into the signed digest stops a relay from swapping a
    /// candidate's claims under its signature.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn campaign_digest(
        candidate: ServerId,
        new_view: View,
        rp: i64,
        nonce: u64,
        hash_result: &Digest,
        latest_seq: SeqNum,
        latest_ord_seq: SeqNum,
        latest_tx_digest: &Digest,
    ) -> Digest {
        hash_many([
            b"camp".as_slice(),
            &(candidate.0 as u64).to_be_bytes(),
            &new_view.0.to_be_bytes(),
            &rp.to_be_bytes(),
            &nonce.to_be_bytes(),
            hash_result.as_ref(),
            &latest_seq.0.to_be_bytes(),
            &latest_ord_seq.0.to_be_bytes(),
            latest_tx_digest.as_ref(),
        ])
    }

    /// Evaluates Algorithm 1 for a campaigner (`who`) moving from `view` to
    /// `new_view` with `latest_seq` committed, reading its reputation from
    /// the local state machine. A campaigner passes its own view and tip; a
    /// voter checking C4 passes the candidate's claimed ones.
    pub(crate) fn calc_rp_for(
        &self,
        who: ServerId,
        view: View,
        new_view: View,
        latest_seq: SeqNum,
    ) -> prestige_reputation::RpOutcome {
        let input = prestige_reputation::CalcRpInput {
            current_view: view,
            new_view,
            current_rp: self.store.current_rp(who),
            current_ci: self.store.current_ci(who),
            latest_tx_seq: latest_seq,
            penalty_history: self.store.penalty_history(who),
        };
        self.engine.calc_rp(&input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacemaker::timer_tags::{COMPLAINT, ELECTION, POLICY, POLICY_CAMPAIGN, POW_DONE};
    use crate::replication::tests::{route, Queue};
    use crate::server::ServerRole;
    use prestige_crypto::{sign_share, KeyRegistry, QcBuilder};
    use prestige_sim::{Context, Effects, Emission, Process, SimRng, SimTime, TimerId};
    use prestige_types::{
        Actor, ClientId, ClusterConfig, Message, Proposal, QcKind, Transaction, ViewChangePolicy,
    };

    fn server(n: u32, id: u32) -> PrestigeServer {
        let config = prestige_types::ClusterConfig::new(n);
        let registry = prestige_crypto::KeyRegistry::new(5, n, 2);
        PrestigeServer::new(ServerId(id), config, registry, 0)
    }

    #[test]
    fn digests_are_deterministic_and_distinct() {
        let d1 = PrestigeServer::confvc_digest(View(3));
        let d2 = PrestigeServer::confvc_digest(View(3));
        let d3 = PrestigeServer::confvc_digest(View(4));
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);

        let camp = |candidate, ord| {
            PrestigeServer::campaign_digest(
                candidate,
                View(2),
                2,
                7,
                &Digest::ZERO,
                SeqNum(0),
                ord,
                &Digest::ZERO,
            )
        };
        assert_ne!(camp(ServerId(1), SeqNum(0)), camp(ServerId(2), SeqNum(0)));
        // The log claims are covered: a relay inflating the ordered-tip claim
        // invalidates the candidate's signature.
        assert_ne!(camp(ServerId(1), SeqNum(0)), camp(ServerId(1), SeqNum(9)));
    }

    #[test]
    fn calc_rp_for_initial_campaign_matches_engine() {
        let s = server(4, 1);
        let outcome = s.calc_rp_for(ServerId(1), View(1), View(2), SeqNum(0));
        // From genesis: rp 1 → 2 with no possible compensation (ti = 0).
        assert_eq!(outcome.new_rp, 2);
        assert_eq!(outcome.new_ci, 1);
        assert!(!outcome.compensated);
    }

    #[test]
    fn voters_and_candidates_agree_on_rp() {
        // Criterion C4 requires that any server recomputes the same rp/ci for
        // a given candidate from the same stored state.
        let s2 = server(4, 1);
        let s3 = server(4, 2);
        let a = s2.calc_rp_for(ServerId(3), View(1), View(2), SeqNum(0));
        let b = s3.calc_rp_for(ServerId(3), View(1), View(2), SeqNum(0));
        assert_eq!(a.new_rp, b.new_rp);
        assert_eq!(a.new_ci, b.new_ci);
    }

    /// Four servers exchanging messages by hand. Every handler runs through
    /// [`Bench::run`], which queues what the server sends, allocates timer
    /// ids from one counter (so a superseded timer is told apart from its
    /// successor), and logs the observed server's emissions and timers.
    struct Bench {
        servers: Vec<PrestigeServer>,
        queue: Queue,
        observed: usize,
        sent: Vec<&'static str>,
        timers: Vec<(TimerId, u64)>,
        next_timer_id: u64,
        now_ms: f64,
    }

    impl Bench {
        fn new(policy: ViewChangePolicy) -> Self {
            let registry = KeyRegistry::new(5, 4, 2);
            let mut config = ClusterConfig::new(4);
            config.policy = policy;
            let servers = (0..4)
                .map(|i| PrestigeServer::new(ServerId(i), config.clone(), registry.clone(), 0))
                .collect();
            Bench {
                servers,
                queue: Queue::new(),
                observed: 1,
                sent: Vec::new(),
                timers: Vec::new(),
                next_timer_id: 100,
                now_ms: 1.0,
            }
        }

        fn run(&mut self, i: usize, f: impl FnOnce(&mut PrestigeServer, &mut Context<Message>)) {
            let mut effects = Effects::new();
            let mut rng = SimRng::new(7 + i as u64);
            let me = Actor::Server(ServerId(i as u32));
            let now = SimTime::from_ms(self.now_ms);
            let mut ctx = Context::new(now, me, &mut rng, &mut self.next_timer_id, &mut effects);
            f(&mut self.servers[i], &mut ctx);
            if i == self.observed {
                self.timers
                    .extend(effects.timers.iter().map(|(id, _, tag)| (*id, *tag)));
                self.sent.extend(effects.emissions.iter().map(|e| match e {
                    Emission::Send(_, m) | Emission::Broadcast(_, m) => kind(m),
                }));
            }
            route(&mut self.queue, me, effects);
        }

        /// Delivers every queued `kind` message addressed to one of `to`.
        fn deliver(&mut self, kind_name: &str, to: &[usize]) {
            let (due, rest): (Queue, Queue) = std::mem::take(&mut self.queue)
                .into_iter()
                .partition(|(_, dest, m)| {
                    kind(m) == kind_name
                        && to
                            .iter()
                            .any(|&i| *dest == Actor::Server(ServerId(i as u32)))
                });
            self.queue = rest;
            for (from, dest, message) in due {
                let Actor::Server(ServerId(i)) = dest else {
                    continue;
                };
                self.run(i as usize, |s, ctx| s.on_message(from, message, ctx));
            }
        }

        /// The observed server's timers of `tag`, oldest first.
        fn armed(&self, tag: u64) -> Vec<TimerId> {
            let of_tag = self.timers.iter().filter(|(_, t)| *t == tag);
            of_tag.map(|(id, _)| *id).collect()
        }

        /// Fires the observed server's latest timer of `tag`.
        fn fire(&mut self, tag: u64) {
            let id = *self.armed(tag).last().expect("timer armed");
            self.fire_id(id, tag);
        }

        fn fire_id(&mut self, id: TimerId, tag: u64) {
            self.run(self.observed, |s, ctx| s.on_timer(id, tag, ctx));
        }

        /// The observed server: s1, unless a row watches another.
        fn me(&self) -> &PrestigeServer {
            &self.servers[self.observed]
        }
    }

    fn kind(message: &Message) -> &'static str {
        match message {
            Message::ConfVC { .. } => "ConfVC",
            Message::ReVC { .. } => "ReVC",
            Message::Camp { .. } => "Camp",
            Message::VoteCP { .. } => "VoteCP",
            Message::NewVcBlock { .. } => "NewVcBlock",
            Message::VcYes { .. } => "VcYes",
            _ => "other",
        }
    }

    fn genesis() -> Bench {
        Bench::new(ViewChangePolicy::OnFailureOnly)
    }

    /// s1 and s2 hold a client's complaint; s1's grace timer has fired, so
    /// its `ConfVC` is out and s2 has endorsed it.
    fn confvc_endorsed() -> Bench {
        let mut b = genesis();
        let tx = Transaction::with_size(ClientId(1), 1, 16);
        let compt = Message::Compt {
            proposal: Proposal::new(tx, Digest::ZERO),
            client_sig: [0; 32],
        };
        for i in [1, 2] {
            let compt = compt.clone();
            b.run(i, |s, ctx| {
                s.on_message(Actor::Client(ClientId(1)), compt, ctx)
            });
        }
        b.fire(COMPLAINT);
        b.deliver("ConfVC", &[2]);
        b
    }

    /// s1 redeems for V2 on a conf_QC.
    fn redeemer() -> Bench {
        let mut b = confvc_endorsed();
        b.deliver("ReVC", &[1]);
        b
    }

    /// s1 campaigns for V2; s2 and s3 have its `Camp`.
    fn candidate() -> Bench {
        let mut b = redeemer();
        b.fire(POW_DONE);
        b
    }

    /// s1 won V2 and broadcast its `NewVcBlock`, not yet delivered.
    fn elected() -> Bench {
        let mut b = candidate();
        b.deliver("Camp", &[2, 3]);
        b.deliver("VoteCP", &[1]);
        b
    }

    /// A vcBlock for V3 led by s2, certified by s0, s2 and s3.
    fn rival_v3(b: &Bench) -> Message {
        let registry = &b.servers[1].registry;
        let (view, digest) = (View(3), Digest([3; 32]));
        let mut votes = QcBuilder::new(QcKind::ViewChange, view, SeqNum(0), digest, 3);
        for s in [0, 2, 3] {
            let share = sign_share(
                registry,
                ServerId(s),
                QcKind::ViewChange,
                view,
                SeqNum(0),
                &digest,
            );
            votes.add_share(registry, &share.unwrap()).unwrap();
        }
        let genesis = b.servers[1].store().latest_vc_block();
        let block = genesis.successor(view, ServerId(2), 3, 1, None, votes.assemble().ok());
        let digest = crate::storage::vc_block_digest(&block);
        let sig = registry
            .key_of(Actor::Server(ServerId(2)))
            .unwrap()
            .sign(digest.as_ref());
        Message::NewVcBlock { block, sig }
    }

    /// One Figure-5 transition: a start phase, an event, and what the
    /// observed server must show afterwards.
    struct Row {
        name: &'static str,
        start: fn() -> Bench,
        event: fn(&mut Bench),
        role: ServerRole,
        sent: &'static [&'static str],
        /// `campaigns_started`, `election_timeouts`, `elections_won`,
        /// `views_installed`.
        counters: [u64; 4],
        also: fn(&Bench) -> bool,
    }

    fn campaign_in(b: &Bench) -> String {
        let snapshot = b.me().debug_snapshot();
        snapshot.split("campaign=").nth(1).unwrap().to_string()
    }

    #[test]
    fn every_figure_5_transition_lands_where_its_row_says() {
        use ServerRole::*;
        let rows = [
            Row {
                name: "an f + 1 conf_QC makes a follower a redeemer",
                start: confvc_endorsed,
                event: |b| b.deliver("ReVC", &[1]),
                role: Redeemer,
                sent: &[],
                counters: [1, 0, 0, 0],
                also: |b| {
                    let confirmed = b.me().stats.view_changes_confirmed == 1;
                    confirmed && campaign_in(b) == "Some((2, 2))"
                },
            },
            Row {
                name: "the PoW timer makes the redeemer a candidate that votes for itself",
                start: redeemer,
                event: |b| b.fire(POW_DONE),
                role: Candidate,
                sent: &["Camp"],
                counters: [1, 0, 0, 0],
                also: |b| {
                    let own = b.me().cast_votes.get(&2).map(|(c, _)| *c);
                    own == Some(ServerId(1)) && b.armed(ELECTION).len() == 1
                },
            },
            Row {
                name: "a superseded PoW timer changes nothing",
                start: || {
                    let mut b = redeemer();
                    b.run(1, |s, ctx| s.start_campaign(View(3), None, ctx));
                    b
                },
                event: |b| {
                    let first = b.armed(POW_DONE)[0];
                    b.fire_id(first, POW_DONE);
                },
                role: Redeemer,
                sent: &[],
                counters: [2, 0, 0, 0],
                also: |b| campaign_in(b) == "Some((3, 3))" && b.armed(ELECTION).is_empty(),
            },
            Row {
                name: "2f + 1 votes make the candidate broadcast its vcBlock",
                start: || {
                    let mut b = candidate();
                    b.deliver("Camp", &[2, 3]);
                    b
                },
                event: |b| b.deliver("VoteCP", &[1]),
                role: Candidate,
                sent: &["NewVcBlock"],
                counters: [1, 0, 1, 0],
                also: |b| b.me().current_view() == View(1),
            },
            Row {
                name: "2f + 1 VcYes install the view and make the leader-elect lead",
                start: elected,
                event: |b| {
                    b.deliver("NewVcBlock", &[2, 3]);
                    b.deliver("VcYes", &[1]);
                },
                role: Leader,
                sent: &[],
                counters: [1, 0, 1, 1],
                also: |b| b.me().current_view() == View(2) && campaign_in(b) == "None",
            },
            Row {
                name: "a late vote neither re-elects the leader-elect nor resets its VcYes",
                start: || {
                    let mut b = candidate();
                    b.deliver("Camp", &[2, 3]);
                    let vote = b.queue.iter().find(|(_, _, m)| kind(m) == "VoteCP");
                    let late = vote.cloned().expect("a vote for s1");
                    b.deliver("VoteCP", &[1]);
                    b.queue.push(late);
                    b
                },
                event: |b| {
                    b.deliver("NewVcBlock", &[2]);
                    b.deliver("VcYes", &[1]);
                    b.deliver("VoteCP", &[1]);
                    b.deliver("NewVcBlock", &[3]);
                    b.deliver("VcYes", &[1]);
                },
                role: Leader,
                sent: &[],
                counters: [1, 0, 1, 1],
                also: |b| b.me().current_view() == View(2),
            },
            Row {
                name: "an election timeout makes the candidate redeem for V' + 1",
                start: candidate,
                event: |b| b.fire(ELECTION),
                role: Redeemer,
                sent: &[],
                counters: [2, 1, 0, 0],
                also: |b| campaign_in(b) == "Some((3, 3))",
            },
            Row {
                name: "a leader-elect that times out still leads V' when VcYes land",
                start: elected,
                event: |b| {
                    b.fire(ELECTION);
                    b.deliver("NewVcBlock", &[2, 3]);
                    b.deliver("VcYes", &[1]);
                },
                role: Leader,
                sent: &[],
                counters: [2, 1, 1, 1],
                also: |b| {
                    b.me().current_view() == View(2) && b.me().current_leader() == ServerId(1)
                },
            },
            Row {
                name: "a higher vcBlock makes the candidate follow; its election timer is stale",
                start: candidate,
                event: |b| {
                    let rival = rival_v3(b);
                    b.run(1, |s, ctx| {
                        s.on_message(Actor::Server(ServerId(2)), rival, ctx)
                    });
                    b.fire(ELECTION);
                },
                role: Follower,
                sent: &["VcYes"],
                counters: [1, 0, 0, 1],
                also: |b| b.me().current_view() == View(3) && campaign_in(b) == "None",
            },
            Row {
                name: "a correct leader does not campaign against itself",
                start: || {
                    let mut b = genesis();
                    b.observed = 0;
                    b
                },
                event: |b| b.run(0, |s, ctx| s.start_campaign(View(2), None, ctx)),
                role: Leader,
                sent: &[],
                counters: [0, 0, 0, 0],
                also: |b| campaign_in(b) == "None" && b.timers.is_empty(),
            },
            Row {
                name: "a due policy timer quiesces the view and arms one campaign, once",
                start: || {
                    let mut b = Bench::new(ViewChangePolicy::Timing {
                        interval_ms: 1000.0,
                    });
                    b.run(1, |s, ctx| s.on_start(ctx));
                    b
                },
                event: |b| {
                    b.now_ms = 1000.0;
                    b.fire(POLICY);
                    b.fire(POLICY);
                },
                role: Follower,
                sent: &[],
                counters: [0, 0, 0, 0],
                also: |b| {
                    let pending = b.me().rotation_pending;
                    pending && b.armed(POLICY_CAMPAIGN).len() == 1 && b.armed(POLICY).len() == 3
                },
            },
        ];
        for row in rows {
            let mut b = (row.start)();
            b.sent.clear();
            (row.event)(&mut b);
            let s = b.me();
            let stats = &s.stats;
            let counters = [
                stats.campaigns_started,
                stats.election_timeouts,
                stats.elections_won,
                stats.views_installed,
            ];
            assert_eq!(s.role(), row.role, "{}", row.name);
            assert_eq!(b.sent, row.sent, "{}", row.name);
            assert_eq!(counters, row.counters, "{}", row.name);
            assert!((row.also)(&b), "{}: {}", row.name, s.debug_snapshot());
        }
    }
}

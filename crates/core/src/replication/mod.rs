//! The two-phase replication protocol (§4.3), split into cohesive units:
//!
//! * [`leader`] — batching, the pipelined ordering window, QC assembly from
//!   reply shares, and the stalled-instance retransmission path;
//! * [`follower`] — the `Ord` / `Cmt` / `CommitBlock` receive handlers,
//!   including the Byzantine double-assign cross-check and the recording of
//!   per-instance commit-sign state the certified recovery plane builds on;
//! * [`verify`] — certificate validation and the in-order apply path shared
//!   by live commits and sync.
//!
//! One consensus instance commits one `txBlock`:
//!
//! 1. clients broadcast `Prop` bundles; the leader batches proposals and
//!    assigns a sequence number (`Ord`),
//! 2. followers acknowledge the ordering (`OrdReply` shares → `ordering_QC`),
//! 3. the leader broadcasts `Cmt` with the `ordering_QC`; followers acknowledge
//!    (`CmtReply` shares → `commit_QC`),
//! 4. the leader assembles the `txBlock`, broadcasts it (`CommitBlock`), and
//!    every server notifies the owning clients (`Notif`).
//!
//! Servers never respond to messages from a lower view. Blocks are applied in
//! sequence-number order on every replica so the digest chain is identical
//! everywhere.
//!
//! **Pipelining.** The leader keeps up to `PIPELINE_DEPTH`
//! consecutive sequence numbers in flight: it flushes and broadcasts batch
//! `n+k` while the ordering/commit QCs for `n` are still outstanding.
//! Followers acknowledge ordering rounds in any order; commits are forced
//! back into sequence order inside [`PrestigeServer::apply_committed_block`],
//! which parks a block that arrives ahead of its predecessors in its
//! instance record.
//!
//! **One thread.** Every signature, share, QC and batch-digest check on this
//! path runs inline in the handler that needs it, and committed blocks are
//! adopted inline too: a signature or QC check costs under a microsecond,
//! several times less than a cross-thread hand-off, so the simulator and the
//! real runtime execute exactly the same code path.

mod follower;
mod leader;
mod verify;

use crate::server::PrestigeServer;
use prestige_types::{Digest, Proposal, SeqNum, View};

// The batch digest lives in `prestige-crypto`; re-exported here for
// compatibility.
pub use prestige_crypto::batch_digest;

/// The leader's in-flight window: how many consecutive sequence numbers may
/// be ordered but not yet commit-certified at once. With depth `k` the
/// leader broadcasts `Ord` for batches `n+1..n+k` while the QCs for `n` are
/// still outstanding; `1` would be stop-and-wait replication.
pub(crate) const PIPELINE_DEPTH: usize = 4;

impl PrestigeServer {
    /// Digest over an ordered batch (see the free function [`batch_digest`]).
    pub(crate) fn batch_digest(view: View, n: SeqNum, batch: &[Proposal]) -> Digest {
        batch_digest(view, n, batch)
    }

    /// How long an in-flight instance may wait for its quorum before the
    /// batch timer re-broadcasts its phase message (ms). A quarter of the
    /// client patience window: a couple of retransmission rounds fit before
    /// clients start complaining and forcing a view change. The same cadence
    /// drives the follower-side sync repair timer (see [`crate::sync`]).
    pub(crate) fn retransmit_interval_ms(&self) -> f64 {
        (self.pacemaker.timeouts().client_timeout_ms / 4.0).max(20.0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prestige_crypto::{sign_share, KeyRegistry, QcBuilder};
    use prestige_sim::{Context, Effects, Emission, Process, SimRng, SimTime};
    use prestige_types::{
        Actor, ClientId, ClusterConfig, Message, QcKind, ServerId, Transaction, TxBlock,
    };
    use std::sync::Arc;

    /// Runs `f` against a server with a fresh driver context and returns the
    /// buffered effects.
    pub(crate) fn with_ctx(
        server: &mut PrestigeServer,
        f: impl FnOnce(&mut PrestigeServer, &mut Context<Message>),
    ) -> Effects<Message> {
        with_ctx_at(server, 1.0, f)
    }

    /// [`with_ctx`] at simulated time `now_ms`.
    fn with_ctx_at(
        server: &mut PrestigeServer,
        now_ms: f64,
        f: impl FnOnce(&mut PrestigeServer, &mut Context<Message>),
    ) -> Effects<Message> {
        let mut effects = Effects::new();
        let mut rng = SimRng::new(3);
        let mut next_timer_id = 100;
        let me = Actor::Server(server.id());
        let mut ctx = Context::new(
            SimTime::from_ms(now_ms),
            me,
            &mut rng,
            &mut next_timer_id,
            &mut effects,
        );
        f(server, &mut ctx);
        effects
    }

    pub(super) fn ord_fields(
        registry: &KeyRegistry,
        n: u64,
    ) -> (Arc<Vec<Proposal>>, Digest, [u8; 32]) {
        let batch: Vec<Proposal> = vec![Proposal::new(
            Transaction::with_size(ClientId(1), n, 16),
            Digest::ZERO,
        )];
        let digest = batch_digest(View(1), SeqNum(n), &batch);
        let leader = Actor::Server(ServerId(0));
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        (Arc::new(batch), digest, sig)
    }

    pub(super) fn contains_ord_reply(effects: &Effects<Message>) -> bool {
        effects.emissions.iter().any(|e| {
            matches!(
                e,
                Emission::Send(_, Message::OrdReply { .. })
                    | Emission::Broadcast(_, Message::OrdReply { .. })
            )
        })
    }

    /// Builds a valid QC over `digest` signed by servers `0..quorum`.
    pub(super) fn build_qc(
        registry: &KeyRegistry,
        kind: QcKind,
        view: View,
        n: SeqNum,
        digest: Digest,
        quorum: u32,
    ) -> prestige_types::QuorumCertificate {
        let mut b = QcBuilder::new(kind, view, n, digest, quorum);
        for s in 0..quorum {
            let share = sign_share(registry, ServerId(s), kind, view, n, &digest).unwrap();
            b.add_share(registry, &share).unwrap();
        }
        b.assemble().unwrap()
    }

    fn follower(registry: &KeyRegistry) -> PrestigeServer {
        PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0)
    }

    /// Delivers `Ord(view 1, n)` from the leader and returns the effects.
    fn deliver_ord(
        server: &mut PrestigeServer,
        n: u64,
        batch: Arc<Vec<Proposal>>,
        digest: Digest,
        sig: [u8; 32],
    ) -> Effects<Message> {
        with_ctx(server, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::Ord {
                    view: View(1),
                    n: SeqNum(n),
                    batch,
                    digest,
                    sig,
                },
                ctx,
            );
        })
    }

    #[test]
    fn forged_ord_is_dropped_counted_and_the_node_keeps_serving() {
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = follower(&registry);
        let (batch, digest, sig) = ord_fields(&registry, 1);

        // A forged leader signature, then a genuine signature over a digest
        // the batch does not hash to: both are dropped without a trace.
        let forged_sig = deliver_ord(&mut follower, 1, Arc::clone(&batch), digest, [0xEE; 32]);
        assert!(!contains_ord_reply(&forged_sig));
        assert_eq!(follower.stats().verify_rejected, 1);
        let (other_batch, _, _) = ord_fields(&registry, 2);
        let wrong_batch = deliver_ord(&mut follower, 1, other_batch, digest, sig);
        assert!(!contains_ord_reply(&wrong_batch));
        assert_eq!(follower.stats().verify_rejected, 2);
        assert!(follower.instances.is_empty());

        // The valid Ord afterwards is processed normally.
        let effects = deliver_ord(&mut follower, 1, batch, digest, sig);
        assert!(contains_ord_reply(&effects), "valid Ord must be acked");
        assert_eq!(follower.stats().verify_rejected, 2);
    }

    #[test]
    fn resent_ord_is_acked_again_and_a_tampered_resend_is_rejected() {
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = follower(&registry);
        let (batch, digest, sig) = ord_fields(&registry, 1);
        for _ in 0..2 {
            // The leader's retransmission must earn the share again.
            let resent = Arc::new(batch.as_ref().clone());
            assert!(contains_ord_reply(&deliver_ord(
                &mut follower,
                1,
                resent,
                digest,
                sig
            )));
        }
        assert_eq!(follower.stats().verify_rejected, 0);

        // Other transactions under the acknowledged digest are rejected.
        let (other_batch, _, _) = ord_fields(&registry, 2);
        let tampered = deliver_ord(&mut follower, 1, other_batch, digest, sig);
        assert!(!contains_ord_reply(&tampered));
        assert_eq!(follower.stats().verify_rejected, 1);
    }

    /// A leader (S0, view 1) with one instance in flight at sequence 1.
    fn leader_with_inflight(registry: &KeyRegistry) -> (PrestigeServer, Digest) {
        let mut leader =
            PrestigeServer::new(ServerId(0), ClusterConfig::new(4), registry.clone(), 0);
        let tx = Transaction::with_size(ClientId(1), 50, 16);
        with_ctx(&mut leader, |s, ctx| {
            s.handle_prop(
                Actor::Client(ClientId(1)),
                vec![Proposal::new(tx, Digest::ZERO)],
                [0u8; 32],
                ctx,
            );
            s.flush_batch(ctx);
        });
        let digest = leader.instances[&1].ack.as_ref().unwrap().digest;
        (leader, digest)
    }

    fn share_from(
        registry: &KeyRegistry,
        signer: u32,
        kind: QcKind,
        digest: &Digest,
    ) -> prestige_types::PartialSig {
        sign_share(registry, ServerId(signer), kind, View(1), SeqNum(1), digest).unwrap()
    }

    #[test]
    fn forged_ordering_share_is_dropped_and_counted() {
        let registry = KeyRegistry::new(9, 4, 2);
        let (mut leader, digest) = leader_with_inflight(&registry);
        let mut forged = share_from(&registry, 1, QcKind::Ordering, &digest);
        forged.sig = [0xBA; 32];
        let effects = with_ctx(&mut leader, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(1)),
                Message::OrdReply {
                    view: View(1),
                    n: SeqNum(1),
                    digest,
                    share: forged,
                },
                ctx,
            );
        });
        assert!(effects.emissions.is_empty());
        assert_eq!(leader.stats().verify_rejected, 1);
        let lead = leader.instances[&1].lead.as_ref().unwrap();
        assert_eq!(lead.quorum.count(), 1, "own share only");
        assert!(lead.ordering_qc.is_none());
    }

    #[test]
    fn forged_commit_share_is_dropped_and_counted() {
        let registry = KeyRegistry::new(9, 4, 2);
        let (mut leader, digest) = leader_with_inflight(&registry);
        // Genuine ordering shares complete phase 1 and open the commit round.
        for signer in [1, 2] {
            let share = share_from(&registry, signer, QcKind::Ordering, &digest);
            with_ctx(&mut leader, |s, ctx| {
                s.handle_ord_reply(View(1), SeqNum(1), digest, share, ctx);
            });
        }
        let lead = |leader: &PrestigeServer| leader.instances[&1].lead.clone().unwrap();
        assert!(lead(&leader).ordering_qc.is_some());

        let mut forged = share_from(&registry, 1, QcKind::Commit, &digest);
        forged.sig = [0xBB; 32];
        let effects = with_ctx(&mut leader, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(1)),
                Message::CmtReply {
                    view: View(1),
                    n: SeqNum(1),
                    digest,
                    share: forged,
                },
                ctx,
            );
        });
        assert!(effects.emissions.is_empty());
        assert_eq!(leader.stats().verify_rejected, 1);
        assert_eq!(lead(&leader).quorum.count(), 1, "own share only");
        assert_eq!(leader.store().latest_seq(), SeqNum(0));
    }

    /// The leader's phase messages (`Ord`, `Cmt`) among `effects`.
    fn phase_broadcasts(effects: &Effects<Message>) -> Vec<&'static str> {
        let phase = |e: &Emission<Message>| match e {
            Emission::Broadcast(_, Message::Ord { .. }) => Some("Ord"),
            Emission::Broadcast(_, Message::Cmt { .. }) => Some("Cmt"),
            _ => None,
        };
        effects.emissions.iter().filter_map(phase).collect()
    }

    #[test]
    fn only_an_idle_instance_is_rebroadcast_in_its_current_phase() {
        // The instance is proposed at 1 ms. A share half an interval later
        // holds the retransmitter; a full interval without one re-sends the
        // `Ord` before the ordering QC and the `Cmt` after it.
        let registry = KeyRegistry::new(9, 4, 2);
        let (mut leader, digest) = leader_with_inflight(&registry);
        let interval = leader.retransmit_interval_ms();
        let tick = |leader: &mut PrestigeServer, at: f64| {
            phase_broadcasts(&with_ctx_at(leader, at, |s, ctx| s.on_batch_timer(ctx)))
        };
        let share = |leader: &mut PrestigeServer, at: f64, signer: u32| {
            let share = share_from(&registry, signer, QcKind::Ordering, &digest);
            let effects = with_ctx_at(leader, at, |s, ctx| {
                s.handle_ord_reply(View(1), SeqNum(1), digest, share, ctx)
            });
            phase_broadcasts(&effects)
        };
        let shared_at = 1.0 + interval / 2.0;
        assert!(share(&mut leader, shared_at, 1).is_empty());
        assert!(
            tick(&mut leader, 1.0 + interval).is_empty(),
            "quorum filling"
        );
        assert_eq!(leader.stats().instance_retransmits, 0);
        assert_eq!(tick(&mut leader, shared_at + interval), ["Ord"]);
        assert_eq!(leader.stats().instance_retransmits, 1);

        let ordered_at = shared_at + interval + 1.0;
        assert_eq!(share(&mut leader, ordered_at, 2), ["Cmt"]);
        assert!(tick(&mut leader, ordered_at + interval / 2.0).is_empty());
        assert_eq!(tick(&mut leader, ordered_at + interval), ["Cmt"]);
        assert_eq!(leader.stats().instance_retransmits, 2);
    }

    #[test]
    fn a_leader_commits_its_own_qc_and_batch_after_sync_replaces_the_record() {
        // Between the leader's ordering QC and its commit QC, sync hands it
        // a higher-view ordered entry for the same instance, with other
        // content. The record adopts it, but the block the leader commits
        // carries the QC it assembled and the batch that QC certifies.
        let registry = KeyRegistry::new(9, 4, 2);
        let (mut leader, digest) = leader_with_inflight(&registry);
        let share = |kind, signer| share_from(&registry, signer, kind, &digest);
        with_ctx(&mut leader, |s, ctx| {
            for signer in [1, 2] {
                let ordering = share(QcKind::Ordering, signer);
                s.handle_ord_reply(View(1), SeqNum(1), digest, ordering, ctx);
            }
        });

        let other = vec![Proposal::new(
            Transaction::with_size(ClientId(1), 60, 16),
            Digest::ZERO,
        )];
        let other_digest = batch_digest(View(2), SeqNum(1), &other);
        let entry = prestige_types::OrderedEntry {
            batch: Arc::new(other),
            qc: build_qc(
                &registry,
                QcKind::Ordering,
                View(2),
                SeqNum(1),
                other_digest,
                3,
            ),
        };
        with_ctx(&mut leader, |s, ctx| {
            let answer = Message::SyncResp {
                vc_blocks: Vec::new(),
                tx_blocks: Vec::new(),
                ordered: vec![entry],
                ckpt: None,
            };
            s.on_message(Actor::Server(ServerId(2)), answer, ctx)
        });
        let record = &leader.instances[&1];
        assert_eq!(record.ord_qc.as_ref().map(|qc| qc.view), Some(View(2)));
        let held: Vec<_> = record
            .batch
            .as_ref()
            .unwrap()
            .iter()
            .map(|p| p.tx.key())
            .collect();
        assert_eq!(held, [(ClientId(1), 60)]);

        with_ctx(&mut leader, |s, ctx| {
            for signer in [1, 2] {
                let commit = share(QcKind::Commit, signer);
                s.handle_cmt_reply(View(1), SeqNum(1), digest, commit, ctx);
            }
        });
        let block = leader
            .store()
            .tx_block(SeqNum(1))
            .expect("the leader commits");
        let ordering_qc = block.ordering_qc.as_ref().map(|qc| (qc.view, qc.digest));
        assert_eq!(ordering_qc, Some((View(1), digest)));
        let committed: Vec<_> = block.tx.iter().map(|tx| tx.key()).collect();
        assert_eq!(committed, [(ClientId(1), 50)]);
        assert!(!leader.instances.contains_key(&1));
    }

    /// A QC whose aggregate does not verify.
    fn forged_qc(
        registry: &KeyRegistry,
        kind: QcKind,
        digest: Digest,
    ) -> prestige_types::QuorumCertificate {
        let mut qc = build_qc(registry, kind, View(1), SeqNum(1), digest, 3);
        qc.aggregate = [0xAA; 32];
        qc
    }

    #[test]
    fn forged_qc_in_cmt_is_dropped_and_counted() {
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = follower(&registry);
        let (batch, digest, sig) = ord_fields(&registry, 1);
        deliver_ord(&mut follower, 1, batch, digest, sig);
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::Cmt {
                    view: View(1),
                    n: SeqNum(1),
                    ordering_qc: forged_qc(&registry, QcKind::Ordering, digest),
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert!(effects.emissions.is_empty(), "no commit share, no sync");
        assert_eq!(follower.stats().verify_rejected, 1);
        let record = &follower.instances[&1];
        assert!(record.ord_qc.is_none());
        assert_eq!(follower.signed_commit_tip, 0);
        assert!(record.signed.is_none());
        assert_eq!(follower.instances.len(), 1, "only the acked instance");
    }

    #[test]
    fn forged_qc_in_commit_block_is_dropped_and_counted() {
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = follower(&registry);
        let (batch, digest, _) = ord_fields(&registry, 1);
        let mut block = TxBlock::new(
            View(1),
            SeqNum(1),
            batch.iter().map(|p| p.tx.clone()).collect(),
        );
        block.ordering_qc = Some(build_qc(
            &registry,
            QcKind::Ordering,
            View(1),
            SeqNum(1),
            digest,
            3,
        ));
        block.commit_qc = Some(forged_qc(&registry, QcKind::Commit, digest));
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::CommitBlock {
                    block: Arc::new(block),
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert!(effects.emissions.is_empty());
        assert_eq!(follower.stats().verify_rejected, 1);
        assert_eq!(follower.store().latest_seq(), SeqNum(0));
        assert!(follower.instances.is_empty());
    }

    #[test]
    fn view_change_reproposes_uncommitted_but_never_committed_ordered_txs() {
        // Committed-instance preservation across a view change: the ordered
        // batch at n=2 (contiguous above the committed tip) must be
        // re-proposed verbatim *at sequence number 2* when this server is
        // elected; the ordered batch beyond the gap (n=4) cannot be placed
        // (its predecessor is unknown) and its never-committed transactions
        // return to the proposal pool — while a transaction that already
        // committed under a different sequence number must not.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let quorum = config.quorum();
        let view = View(1);
        let leader = Actor::Server(ServerId(0));

        // Ord at n=2 carrying txs X and Y, and Ord at n=4 (gap at 3)
        // carrying tx Z.
        let tx_x = Transaction::with_size(ClientId(1), 100, 16);
        let tx_y = Transaction::with_size(ClientId(1), 200, 16);
        let tx_z = Transaction::with_size(ClientId(1), 300, 16);
        let batch2: Vec<Proposal> = vec![
            Proposal::new(tx_x.clone(), Digest::ZERO),
            Proposal::new(tx_y.clone(), Digest::ZERO),
        ];
        let batch4: Vec<Proposal> = vec![Proposal::new(tx_z.clone(), Digest::ZERO)];
        for (n, batch) in [(SeqNum(2), batch2.clone()), (SeqNum(4), batch4)] {
            let digest = batch_digest(view, n, &batch);
            let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
            with_ctx(&mut follower, |s, ctx| {
                s.on_message(
                    leader,
                    Message::Ord {
                        view,
                        n,
                        batch: Arc::new(batch),
                        digest,
                        sig,
                    },
                    ctx,
                );
            });
        }

        // X commits inside block n=1 (different sequence number than its
        // ordering round).
        let commit_batch = vec![Proposal::new(tx_x.clone(), Digest::ZERO)];
        let commit_digest = batch_digest(view, SeqNum(1), &commit_batch);
        let mut block = TxBlock::new(view, SeqNum(1), vec![tx_x.clone()]);
        block.ordering_qc = Some(build_qc(
            &registry,
            QcKind::Ordering,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        block.commit_qc = Some(build_qc(
            &registry,
            QcKind::Commit,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::CommitBlock {
                    block: Arc::new(block),
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert_eq!(follower.store().latest_seq(), SeqNum(1));

        // View change elects THIS server: the contiguous prefix (n=2) is
        // re-proposed in place, the orphan beyond the gap (n=4) is
        // materialized.
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.note_view_installed(ctx, ServerId(1));
        });
        let reproposed: Vec<(SeqNum, Vec<(ClientId, u64)>)> = effects
            .emissions
            .iter()
            .filter_map(|e| match e {
                Emission::Broadcast(_, Message::Ord { n, batch, .. }) => {
                    Some((*n, batch.iter().map(|p| p.tx.key()).collect()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            reproposed,
            vec![(SeqNum(2), vec![tx_x.key(), tx_y.key()])],
            "the contiguous ordered batch must be re-proposed verbatim at \
             its original sequence number"
        );
        assert_eq!(
            follower.next_seq,
            SeqNum(3),
            "fresh batches continue after the preserved prefix"
        );
        assert!(follower.instances[&2].lead.is_some());
        let pending: Vec<_> = follower
            .pending_proposals
            .iter()
            .map(|p| p.tx.key())
            .collect();
        assert!(
            !pending.contains(&tx_x.key()),
            "committed tx must not be re-proposed: {pending:?}"
        );
        assert!(
            pending.contains(&tx_z.key()),
            "uncommitted tx beyond the gap must survive into the proposal \
             pool: {pending:?}"
        );
        assert!(
            follower.held_batch(4).is_none(),
            "orphaned entries are consumed by materialization"
        );
    }

    #[test]
    fn orphaned_instances_return_exactly_their_ordered_only_requests() {
        // What an elected leader puts back into its proposal pool from the
        // instances beyond its contiguous tip: the requests it knows *only*
        // through an ordered batch, each once. Client 1's requests:
        //   1 first seen in an `Ord`            → returns;
        //   2 first seen in a `Prop`            → does not;
        //   3 committed in another block        → does not;
        //   4 in two orphaned batches           → returns once;
        //   5 only in a batch since replaced    → does not (no batch holds it);
        //   6 in both the replaced and the new batch at one number → returns;
        //   7 only in the new batch             → returns.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut server = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let view = View(1);
        let request = |number| Transaction::with_size(ClientId(1), number, 16);
        let batch = |numbers: &[u64]| -> Arc<Vec<Proposal>> {
            let batch = numbers
                .iter()
                .map(|&k| Proposal::new(request(k), Digest::ZERO));
            Arc::new(batch.collect())
        };

        with_ctx(&mut server, |s, ctx| {
            s.on_message(
                Actor::Client(ClientId(1)),
                Message::Prop {
                    proposals: batch(&[2]).to_vec(),
                    client_sig: [0u8; 32],
                },
                ctx,
            );
        });
        // The pool was drained (say, into a batch of this server's own), so
        // whatever the orphan path adds below is what it returned.
        server.pending_proposals.clear();

        // Nothing is held at 2, so everything held above it is an orphan.
        server.remember_ordered_batch(3, &batch(&[1, 2, 3, 4]));
        server.remember_ordered_batch(4, &batch(&[4]));
        server.remember_ordered_batch(6, &batch(&[5, 6]));
        server.remember_ordered_batch(6, &batch(&[6, 7]));

        // Request 3 commits at n = 1.
        let committed = [Proposal::new(request(3), Digest::ZERO)];
        let digest = batch_digest(view, SeqNum(1), &committed);
        let mut block = TxBlock::new(view, SeqNum(1), vec![request(3)]);
        for kind in [QcKind::Ordering, QcKind::Commit] {
            let qc = build_qc(&registry, kind, view, SeqNum(1), digest, config.quorum());
            match kind {
                QcKind::Ordering => block.ordering_qc = Some(qc),
                _ => block.commit_qc = Some(qc),
            }
        }
        with_ctx(&mut server, |s, ctx| {
            let block = Arc::new(block);
            let message = Message::CommitBlock {
                block,
                sig: [0u8; 32],
            };
            s.on_message(Actor::Server(ServerId(0)), message, ctx);
        });
        assert_eq!(server.store().latest_seq(), SeqNum(1));

        with_ctx(&mut server, |s, ctx| {
            s.note_view_installed(ctx, ServerId(1))
        });
        let returned: Vec<u64> = server
            .pending_proposals
            .iter()
            .map(|p| p.tx.timestamp)
            .collect();
        assert_eq!(returned, [1, 4, 6, 7]);
        assert!((3..=6).all(|n| server.held_batch(n).is_none()));
    }

    #[test]
    fn externally_committed_instance_releases_its_inflight_slot() {
        // A leader's in-flight instance may commit through an external path
        // (a straggler CommitBlock from the previous view racing the
        // re-proposed instance): the pipeline slot must be released, or it
        // leaks and the dead instance is retransmitted forever.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut server = PrestigeServer::new(ServerId(0), config.clone(), registry.clone(), 0);
        let quorum = config.quorum();
        let view = View(1);

        // The leader (S0 leads view 1) proposes a batch: a window slot opens.
        let tx = Transaction::with_size(ClientId(1), 50, 16);
        with_ctx(&mut server, |s, ctx| {
            s.handle_prop(
                Actor::Client(ClientId(1)),
                vec![Proposal::new(tx.clone(), Digest::ZERO)],
                [0u8; 32],
                ctx,
            );
            s.flush_batch(ctx);
        });
        assert_eq!(server.in_flight(), 1);

        // The same instance commits via a CommitBlock built elsewhere.
        let commit_digest =
            batch_digest(view, SeqNum(1), &[Proposal::new(tx.clone(), Digest::ZERO)]);
        let mut block = TxBlock::new(view, SeqNum(1), vec![tx]);
        block.ordering_qc = Some(build_qc(
            &registry,
            QcKind::Ordering,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        block.commit_qc = Some(build_qc(
            &registry,
            QcKind::Commit,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        with_ctx(&mut server, |s, ctx| {
            let keys = crate::storage::block_keys_digest(&block);
            s.apply_committed_block(Actor::Server(ServerId(2)), Arc::new(block), keys, ctx);
        });
        assert_eq!(server.store().latest_seq(), SeqNum(1));
        assert_eq!(
            server.in_flight(),
            0,
            "the committed instance must release its pipeline slot"
        );
    }

    #[test]
    fn a_straggler_is_asked_of_its_sender_and_a_leader_never_asks_itself() {
        // The leader has instances 1 and 2 in flight, and instance 2's
        // commit quorum completes first: its own pipeline gap closes when
        // instance 1's quorum does, so it fans block 2 out without a
        // `SyncReq` (it used to ask itself).
        let registry = KeyRegistry::new(9, 4, 2);
        let mut leader =
            PrestigeServer::new(ServerId(0), ClusterConfig::new(4), registry.clone(), 0);
        let client = Actor::Client(ClientId(1));
        with_ctx(&mut leader, |s, ctx| {
            for number in [50, 51] {
                let tx = Transaction::with_size(ClientId(1), number, 16);
                s.handle_prop(client, vec![Proposal::new(tx, Digest::ZERO)], [0; 32], ctx);
                s.flush_batch(ctx);
            }
        });
        fn complete(leader: &mut PrestigeServer, registry: &KeyRegistry, n: u64) -> bool {
            let digest = leader.instances[&n].ack.as_ref().unwrap().digest;
            let share = |kind, signer| {
                sign_share(
                    registry,
                    ServerId(signer),
                    kind,
                    View(1),
                    SeqNum(n),
                    &digest,
                )
                .unwrap()
            };
            let effects = with_ctx(leader, |s, ctx| {
                for signer in [1, 2] {
                    s.handle_ord_reply(
                        View(1),
                        SeqNum(n),
                        digest,
                        share(QcKind::Ordering, signer),
                        ctx,
                    );
                }
                for signer in [1, 2] {
                    s.handle_cmt_reply(
                        View(1),
                        SeqNum(n),
                        digest,
                        share(QcKind::Commit, signer),
                        ctx,
                    );
                }
            });
            let asks =
                |e: &Emission<Message>| matches!(e, Emission::Send(_, Message::SyncReq { .. }));
            effects.emissions.iter().any(asks)
        }
        assert!(
            !complete(&mut leader, &registry, 2),
            "no request for its own gap"
        );
        assert_eq!(leader.store().latest_seq(), SeqNum(0), "block 2 is parked");
        let block = Arc::clone(&leader.instances[&2].parked.as_ref().unwrap().0);
        assert!(!complete(&mut leader, &registry, 1));
        assert_eq!(leader.store().latest_seq(), SeqNum(2));

        // A follower at tip 0 parks block 2, relayed by s2, and asks s2 —
        // the server whose message proved the height — for block 1.
        let mut follower = follower(&registry);
        let relay = Actor::Server(ServerId(2));
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                relay,
                Message::CommitBlock {
                    block,
                    sig: [0; 32],
                },
                ctx,
            );
        });
        let asked: Vec<_> = effects
            .emissions
            .iter()
            .filter_map(|e| match e {
                Emission::Send(to, Message::SyncReq { view, from, to: hi }) => {
                    Some((*to, *view, *from, *hi))
                }
                _ => None,
            })
            .collect();
        assert_eq!(asked, vec![(relay, View(1), 1, 1)]);
        assert!(follower.instances[&2].parked.is_some());
    }

    #[test]
    fn far_future_ord_is_refused() {
        // Ordered batches persist across view changes, so orderings
        // absurdly far beyond the committed tip (only a Byzantine leader
        // produces them) must be refused instead of retained.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let view = View(1);
        let leader = Actor::Server(ServerId(0));
        let far = 1 + PIPELINE_DEPTH as u64 + 1024 + 1;
        let batch = vec![Proposal::new(
            Transaction::with_size(ClientId(1), 60, 16),
            Digest::ZERO,
        )];
        let digest = batch_digest(view, SeqNum(far), &batch);
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Ord {
                    view,
                    n: SeqNum(far),
                    batch: Arc::new(batch),
                    digest,
                    sig,
                },
                ctx,
            );
        });
        assert!(
            !follower.instances.contains_key(&far),
            "a far-future ordering must not be retained"
        );
        assert!(
            effects
                .emissions
                .iter()
                .all(|e| !matches!(e, Emission::Send(_, Message::OrdReply { .. }))),
            "a far-future ordering must not be acknowledged"
        );
    }

    #[test]
    fn follower_keeps_ordered_instances_keyed_across_view_changes() {
        // A server that stays a follower keeps its uncommitted ordered
        // batches keyed by sequence number across the view change (they back
        // its C3 freshness claim and a later election's re-propose); nothing
        // is materialized into its proposal pool.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config, registry.clone(), 0);
        let view = View(1);
        let leader = Actor::Server(ServerId(0));
        let tx = Transaction::with_size(ClientId(1), 7, 16);
        let batch = vec![Proposal::new(tx.clone(), Digest::ZERO)];
        let digest = batch_digest(view, SeqNum(1), &batch);
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Ord {
                    view,
                    n: SeqNum(1),
                    batch: Arc::new(batch),
                    digest,
                    sig,
                },
                ctx,
            );
        });
        assert_eq!(follower.ordered_contiguous_tip(), SeqNum(1));

        with_ctx(&mut follower, |s, ctx| {
            s.note_view_installed(ctx, ServerId(2));
        });
        assert!(
            follower.held_batch(1).is_some(),
            "ordered batch survives the view change keyed by sequence number"
        );
        assert!(follower.pending_proposals.is_empty());
        assert_eq!(follower.ordered_contiguous_tip(), SeqNum(1));
    }

    #[test]
    fn commit_share_records_signed_tip_and_certifies_the_instance() {
        // Sending a CmtReply is the act that can complete a commit QC this
        // server never hears about again; the recorded tip (and since the
        // certified recovery plane, the per-instance record plus the stored
        // ordering QC) is what C3 checks candidates against — and what this
        // server's own future campaigns can prove.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let quorum = config.quorum();
        let view = View(1);
        let leader = Actor::Server(ServerId(0));
        assert_eq!(follower.signed_commit_tip, 0);

        let (batch, digest, sig) = ord_fields(&registry, 1);
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Ord {
                    view,
                    n: SeqNum(1),
                    batch,
                    digest,
                    sig,
                },
                ctx,
            );
        });
        let ordering_qc = build_qc(&registry, QcKind::Ordering, view, SeqNum(1), digest, quorum);
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Cmt {
                    view,
                    n: SeqNum(1),
                    ordering_qc,
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
            "the follower must commit-sign the valid ordering QC"
        );
        assert_eq!(follower.signed_commit_tip, 1);
        let record = &follower.instances[&1];
        assert_eq!(
            record.signed,
            Some(view),
            "the per-instance commit-sign record must be kept"
        );
        assert_eq!(
            record.ord_qc.as_ref().map(|qc| (qc.view, qc.digest)),
            Some((view, digest)),
            "the ordering QC must be stored for future tip certificates"
        );
        assert_eq!(
            follower.certified_ord_tip(),
            SeqNum(1),
            "QC + matching batch certify the instance"
        );
    }

    #[test]
    fn commit_block_qc_is_verified_once_across_cmt_and_commit_block() {
        // The memo-cache dedup: a follower that verified the ordering QC when
        // it arrived in `Cmt` must not pay for it again inside `CommitBlock`.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let (batch, digest, sig) = ord_fields(&registry, 1);
        let view = View(1);
        let n = SeqNum(1);
        let quorum = config.quorum();

        let ordering_qc = build_qc(&registry, QcKind::Ordering, view, n, digest, quorum);
        let commit_qc = build_qc(&registry, QcKind::Commit, view, n, digest, quorum);

        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::Ord {
                    view,
                    n,
                    batch: Arc::clone(&batch),
                    digest,
                    sig,
                },
                ctx,
            );
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::Cmt {
                    view,
                    n,
                    ordering_qc: ordering_qc.clone(),
                    sig,
                },
                ctx,
            );
        });
        assert_eq!(follower.stats().qc_cache_hits, 0);

        let mut block = TxBlock::new(view, n, batch.iter().map(|p| p.tx.clone()).collect());
        block.ordering_qc = Some(ordering_qc);
        block.commit_qc = Some(commit_qc);
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::CommitBlock {
                    block: Arc::new(block),
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert_eq!(follower.store().latest_seq(), n, "block must commit");
        assert_eq!(
            follower.stats().qc_cache_hits,
            1,
            "the ordering QC from Cmt must ride the memo cache"
        );
    }

    #[test]
    fn batch_digest_depends_on_contents_and_position() {
        let p1 = Proposal::new(Transaction::with_size(ClientId(1), 1, 32), Digest::ZERO);
        let p2 = Proposal::new(Transaction::with_size(ClientId(1), 2, 32), Digest::ZERO);
        let a = PrestigeServer::batch_digest(View(1), SeqNum(1), &[p1.clone(), p2.clone()]);
        let b = PrestigeServer::batch_digest(View(1), SeqNum(1), &[p2, p1.clone()]);
        let c = PrestigeServer::batch_digest(View(1), SeqNum(2), std::slice::from_ref(&p1));
        let d = PrestigeServer::batch_digest(View(2), SeqNum(1), &[p1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d);
    }

    #[test]
    fn servers_share_batch_digest_function() {
        // The leader and followers must derive identical digests or phase-1
        // shares would never aggregate.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 1);
        let leader = PrestigeServer::new(ServerId(0), config.clone(), registry.clone(), 0);
        let follower = PrestigeServer::new(ServerId(1), config, registry, 0);
        let batch = vec![Proposal::new(
            Transaction::with_size(ClientId(1), 7, 32),
            Digest::ZERO,
        )];
        assert_eq!(
            PrestigeServer::batch_digest(leader.current_view(), SeqNum(1), &batch),
            PrestigeServer::batch_digest(follower.current_view(), SeqNum(1), &batch),
        );
    }

    pub(crate) type Queue = Vec<(Actor, Actor, Message)>;

    /// Queues `from`'s emissions as `(from, to, message)` deliveries.
    pub(crate) fn route(queue: &mut Queue, from: Actor, effects: Effects<Message>) {
        for emission in effects.emissions {
            match emission {
                Emission::Send(to, m) => queue.push((from, to, m)),
                Emission::Broadcast(dests, m) => {
                    queue.extend(dests.into_iter().map(|to| (from, to, m.clone())))
                }
            }
        }
    }

    /// Delivers every server-to-server message among `servers` until the
    /// cluster is quiet. Messages to anyone else (clients, an isolated
    /// server) and those `withhold` names are dropped.
    pub(crate) fn pump(
        servers: &mut [PrestigeServer],
        mut queue: Queue,
        withhold: impl Fn(Actor, &Message) -> bool,
    ) {
        while !queue.is_empty() {
            for (from, to, message) in std::mem::take(&mut queue) {
                if withhold(from, &message) {
                    continue;
                }
                let Some(server) = servers.iter_mut().find(|s| Actor::Server(s.id()) == to) else {
                    continue;
                };
                let effects = with_ctx(server, |s, ctx| s.on_message(from, message, ctx));
                route(&mut queue, to, effects);
            }
        }
    }

    #[test]
    fn chain_digest_agrees_on_every_commit_path() {
        // One batch committed live by s0 (leader) with s1 and s2 acking;
        // s3 is cut off and later learns the block over sync. s1 logs to a
        // WAL that rebuilds a fresh replica. Every path must link the block
        // to the same chain digest, and the same batch re-proposed at the
        // same position in view 2 must converge on it too. On every path
        // the committed instance's record is gone: records exist only above
        // the committed tip.
        let registry = KeyRegistry::new(9, 4, 2);
        let config = ClusterConfig::new(4);
        let mut servers: Vec<PrestigeServer> = (0..3)
            .map(|i| PrestigeServer::new(ServerId(i), config.clone(), registry.clone(), 0))
            .collect();
        let wal = prestige_storage::SharedMemStorage::new();
        servers[1].attach_storage(Box::new(wal.clone()));
        let batch: Vec<Proposal> = (1..=5)
            .map(|i| Proposal::new(Transaction::with_size(ClientId(1), i, 16), Digest::ZERO))
            .collect();
        servers[0].pending_proposals.extend(batch.iter().cloned());
        let effects = with_ctx(&mut servers[0], |s, ctx| s.flush_batch(ctx));
        let mut queue = Queue::new();
        route(&mut queue, Actor::Server(ServerId(0)), effects);
        pump(&mut servers, queue, |_, _| false);

        let n = SeqNum(1);
        let digest_at = |s: &PrestigeServer| s.store().tx_block(n).map(|b| b.header.digest);
        let settled = |s: &PrestigeServer| {
            let committed = s.instances.range(..=s.store().latest_seq().0);
            committed.map(|(n, _)| *n).collect::<Vec<_>>()
        };
        let leader = digest_at(&servers[0]).expect("the leader committed the block");
        assert_eq!(settled(&servers[0]), Vec::<u64>::new(), "leader path");
        // Quorum 3 with s3 cut off: s1 and s2 both acknowledged the `Ord`,
        // so both applied the `CommitBlock` on the acknowledged path.
        for follower in &servers[1..] {
            assert_eq!(digest_at(follower), Some(leader));
            assert_eq!(settled(follower), Vec::<u64>::new(), "acked path");
        }

        let mut synced = PrestigeServer::new(ServerId(3), config.clone(), registry.clone(), 0);
        let tx_blocks: Vec<TxBlock> = servers[0].store().tx_blocks_in(1, 1).collect();
        let reproposal = {
            let mut block = tx_blocks[0].clone();
            let digest = batch_digest(View(2), n, &batch);
            block.view = View(2);
            block.ordering_qc = Some(build_qc(&registry, QcKind::Ordering, View(2), n, digest, 3));
            block.commit_qc = Some(build_qc(&registry, QcKind::Commit, View(2), n, digest, 3));
            block
        };
        // The cut-off replica saw the `Cmt` but not the `Ord`: it holds
        // the ordering QC, and so a record, until the block lands.
        synced.record_ord_qc(1, tx_blocks[0].ordering_qc.as_ref().unwrap());
        with_ctx(&mut synced, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::SyncResp {
                    vc_blocks: Vec::new(),
                    tx_blocks,
                    ordered: Vec::new(),
                    ckpt: None,
                },
                ctx,
            )
        });
        assert_eq!(digest_at(&synced), Some(leader), "sync path");
        assert_eq!(settled(&synced), Vec::<u64>::new(), "sync path");

        let mut replayed = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        replayed.replay_wal(wal.records_snapshot());
        assert_eq!(digest_at(&replayed), Some(leader), "WAL replay path");
        assert_eq!(settled(&replayed), Vec::<u64>::new(), "WAL replay path");

        let mut later = PrestigeServer::new(ServerId(3), config, registry, 0);
        later.record_ord_qc(1, reproposal.ordering_qc.as_ref().unwrap());
        with_ctx(&mut later, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(1)),
                Message::CommitBlock {
                    block: Arc::new(reproposal),
                    sig: [0u8; 32],
                },
                ctx,
            )
        });
        assert_eq!(digest_at(&later), Some(leader), "view-2 re-proposal");
        assert_eq!(settled(&later), Vec::<u64>::new(), "view-2 re-proposal");
    }
}

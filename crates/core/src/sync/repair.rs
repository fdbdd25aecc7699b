//! The requester side of the sync subsystem: the rate-limited request, the
//! periodic repair timer that turns a stalled replica back into a live one
//! without a view change, and installing answers.

use super::serve::throttled;
use crate::pacemaker::timer_tags;
use crate::replication::PIPELINE_DEPTH;
use crate::server::{PrestigeServer, ServerRole};
use prestige_sim::{cpu_cost, Context};
use prestige_types::{Actor, Message, OrderedEntry, QcKind, QuorumCertificate, TxBlock, VcBlock};
use std::sync::Arc;

impl PrestigeServer {
    // ------------------------------------------------------------------
    // Requesting
    // ------------------------------------------------------------------

    /// Asks `peer` what this server missed up to height `to`, the highest it
    /// has seen proven: `SyncReq { view, from, to }` with this server's
    /// installed view and first missing sequence number. Every trigger calls
    /// this freely and one timestamp limits the requests to one per
    /// retransmission interval. A request to this server itself is dropped:
    /// a leader's own pipeline gap closes as its quorums complete.
    pub(crate) fn request_sync(&mut self, peer: Actor, to: u64, ctx: &mut Context<Message>) {
        let now = ctx.now().as_ms();
        if peer == Actor::Server(self.id)
            || now - self.last_sync_req_ms < self.retransmit_interval_ms()
        {
            return;
        }
        self.last_sync_req_ms = now;
        self.stats.sync_reqs_sent += 1;
        let view = self.current_view();
        let from = self.store.latest_seq().0 + 1;
        ctx.send(peer, Message::SyncReq { view, from, to });
    }

    /// The next peer in the repair rotation (round-robin over the other
    /// servers), so repeated repair attempts spread across the cluster
    /// instead of hammering a possibly-dead leader.
    pub(crate) fn next_sync_peer(&mut self) -> Actor {
        let peers = self.other_servers();
        let peer = peers[self.sync_peer_cursor % peers.len()];
        self.sync_peer_cursor = self.sync_peer_cursor.wrapping_add(1);
        peer
    }

    // ------------------------------------------------------------------
    // The repair timer
    // ------------------------------------------------------------------

    /// Arms the periodic repair tick (all servers, follower and leader
    /// alike — the leader-side analogue, stalled-instance retransmission,
    /// rides the batch timer).
    pub(crate) fn arm_sync_repair_timer(&mut self, ctx: &mut Context<Message>) {
        ctx.set_timer(
            prestige_sim::SimDuration::from_ms(self.retransmit_interval_ms()),
            timer_tags::SYNC_REPAIR,
        );
    }

    /// Periodic repair: if the committed tip has not moved for a full
    /// interval *and* there is concrete evidence of missing state — parked
    /// blocks whose predecessors were lost, or commit-signed instances whose
    /// `CommitBlock` never arrived (the commit QC may have assembled at a
    /// leader this server can no longer reach) — ask a rotating peer. This is
    /// what lets a wedged pipeline recover through sync alone instead of
    /// waiting for the client-complaint → view-change path.
    pub(crate) fn on_sync_repair_timer(&mut self, ctx: &mut Context<Message>) {
        self.arm_sync_repair_timer(ctx);
        // Election retransmission rides the same tick: elections and commits
        // stall independently, so it runs before the tip-progress gate.
        self.retransmit_election(ctx);
        let tip = self.store.latest_seq().0;
        let progressed = tip != self.last_repair_tip;
        self.last_repair_tip = tip;
        if progressed {
            return; // Commits are flowing; nothing is wedged.
        }
        let parked = self.instances.iter().find(|(_, r)| r.parked.is_some());
        let to = parked
            .map_or(0, |(&n, _)| n - 1)
            .max(self.signed_commit_tip);
        if to > tip {
            // A whole interval without progress: whoever was asked last did
            // not unwedge this server, so the limiter yields to the rotation.
            self.last_sync_req_ms = f64::NEG_INFINITY;
            let peer = self.next_sync_peer();
            self.request_sync(peer, to, ctx);
        }
    }

    /// Election-message retransmission, folded into the repair tick: a
    /// candidate whose `Camp` — or a leader-elect whose `NewVcBlock` — was
    /// lost would otherwise stall the election until its timeout forces a
    /// fresh (and more expensive) campaign round. Voters re-send their
    /// recorded vote idempotently (criterion C1 still holds), adopters
    /// re-acknowledge the identical vcBlock.
    fn retransmit_election(&mut self, ctx: &mut Context<Message>) {
        if self.role == ServerRole::Candidate {
            if let Some(message) = self.campaign_message() {
                self.stats.election_retransmits += 1;
                ctx.broadcast(self.other_servers(), message);
            }
        } else if let Some((block, _)) = &self.pending_vc_block {
            let block = block.clone();
            let sig = self.sign(crate::storage::vc_block_digest(&block).as_ref());
            self.stats.election_retransmits += 1;
            ctx.broadcast(self.other_servers(), Message::NewVcBlock { block, sig });
        }
    }

    // ------------------------------------------------------------------
    // Installing responses
    // ------------------------------------------------------------------

    /// Installs blocks and certified ordered entries received through sync
    /// after validating their QCs.
    pub(crate) fn handle_sync_resp(
        &mut self,
        from: Actor,
        vc_blocks: Vec<VcBlock>,
        tx_blocks: Vec<TxBlock>,
        ordered: Vec<OrderedEntry>,
        ckpt: Option<QuorumCertificate>,
        ctx: &mut Context<Message>,
    ) {
        let verifier_quorum = self.config.quorum();

        // Transaction blocks: validate QCs (memoized), then apply in order
        // through the same path as live commits (which also notifies clients
        // and resolves complaints).
        let mut txs = tx_blocks;
        txs.sort_by_key(|b| b.n.0);
        for block in txs {
            if block.n <= self.store.latest_seq() {
                continue;
            }
            self.verify_and_apply_block(from, Arc::new(block), ctx);
        }

        // Certified ordered entries: each is self-validating — the ordering
        // QC must be genuine and its digest must be the batch digest of
        // exactly the carried payload. A valid entry is adopted into the
        // certificate store (keeping the freshest ordering view per
        // instance), which both repairs this server's own claims and lets it
        // follow an elected leader's re-proposals it would otherwise refuse.
        //
        // Recomputing these digests is the expensive part, so the path is
        // defended: unsolicited senders are throttled per peer, and a batch
        // larger than any honest ordering could produce is dropped before a
        // byte of it is hashed.
        if !ordered.is_empty() && throttled(&mut self.ordered_recv_ms, from, ctx.now().as_ms()) {
            self.stats.sync_throttled += 1;
            return;
        }
        let max_batch = self.config.batch_size.max(1) * 4;
        for entry in ordered {
            if entry.batch.len() > max_batch {
                continue; // No honest ordering is this large; never hash it.
            }
            let n = entry.qc.seq;
            if entry.qc.kind != QcKind::Ordering || n <= self.store.latest_seq() {
                continue;
            }
            // Same far-future bound as live orderings: sync must not become
            // a way around the `instances` growth limit.
            if n.0 > self.store.latest_seq().0 + PIPELINE_DEPTH as u64 + 1024 {
                continue;
            }
            let held = self.instances.get(&n.0);
            if let Some(existing) = held.and_then(|r| r.ord_qc.as_ref()) {
                if existing.view > entry.qc.view {
                    // A stale entry must be dropped whole: `record_ord_qc`
                    // would keep the fresher retained certificate, and
                    // adopting the older batch would permanently pair a
                    // batch with a certificate whose digest it cannot match
                    // (un-repairable, since an equal-view correct entry
                    // would then be skipped as "nothing new").
                    continue;
                }
                if existing.view == entry.qc.view && held.is_some_and(|r| r.batch.is_some()) {
                    continue; // Nothing new here.
                }
            }
            ctx.charge_cpu_ms(cpu_cost::PER_TX_MS * entry.batch.len() as f64);
            if Self::batch_digest(entry.qc.view, n, &entry.batch) != entry.qc.digest {
                continue;
            }
            if !self.verify_qc_cached(&entry.qc, verifier_quorum, ctx) {
                continue;
            }
            self.record_ord_qc(n.0, &entry.qc);
            self.remember_ordered_batch(n.0, &entry.batch);
        }

        // View-change blocks: validate vc_QCs and install; installing a higher
        // view also updates the local role/timers. View changes are rare and
        // ordering-critical, so they verify inline (memoized).
        let mut vcs = vc_blocks;
        vcs.sort_by_key(|b| b.v.0);
        let mut highest_installed = None;
        for block in vcs {
            if block.v <= self.store.current_view() {
                continue;
            }
            let ok = match &block.vc_qc {
                Some(qc) => {
                    qc.kind == QcKind::ViewChange
                        && qc.view == block.v
                        && self.verify_qc_cached(qc, verifier_quorum, ctx)
                }
                None => false,
            };
            if !ok {
                continue;
            }
            self.wal_append(prestige_storage::WalRecordRef::ViewInstall(&block));
            if self.store.insert_vc_block(block.clone()) {
                highest_installed = Some(block.leader_id);
            }
        }
        if let Some(leader) = highest_installed {
            self.note_view_installed(ctx, leader);
        }

        // A far-behind requester is sent the responder's stable checkpoint
        // certificate: adopt it now that the blocks above are applied (if
        // the chain has not yet reached the certified height, a later answer
        // or the live `CkptCert` broadcast will).
        if let Some(cert) = ckpt {
            self.handle_ckpt_cert(cert, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_crypto::{sign_share, KeyRegistry, QcBuilder};
    use prestige_sim::{Context, Effects, Emission, SimRng, SimTime};
    use prestige_types::{
        ClientId, ClusterConfig, Digest, Proposal, QuorumCertificate, SeqNum, ServerId,
        Transaction, View,
    };

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

    fn entry(
        registry: &KeyRegistry,
        view: View,
        n: u64,
        quorum: u32,
        tamper: bool,
    ) -> OrderedEntry {
        let batch = vec![Proposal::new(
            Transaction::with_size(ClientId(1), n, 16),
            Digest::ZERO,
        )];
        let mut digest = PrestigeServer::batch_digest(view, SeqNum(n), &batch);
        if tamper {
            digest.0[0] ^= 0xFF; // QC over a different payload than carried
        }
        OrderedEntry {
            batch: Arc::new(batch),
            qc: ordering_qc(registry, view, n, digest, quorum),
        }
    }

    #[test]
    fn valid_ordered_entries_are_adopted_and_certify_the_tip() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let quorum = server.config.quorum();
        let entries = vec![
            entry(&registry, View(1), 1, quorum, false),
            entry(&registry, View(1), 2, quorum, false),
        ];
        with_ctx_at(&mut server, 1.0, |s, ctx| {
            s.handle_sync_resp(
                Actor::Server(ServerId(2)),
                Vec::new(),
                Vec::new(),
                entries,
                None,
                ctx,
            );
        });
        assert_eq!(server.certified_ord_tip(), SeqNum(2));
        assert!(server.held_batch(1).is_some());
        assert!(server.instances[&2].ord_qc.is_some());
    }

    #[test]
    fn mismatched_or_forged_ordered_entries_are_dropped() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let quorum = server.config.quorum();
        // Entry 1: QC digest does not match the carried batch.
        let mismatched = entry(&registry, View(1), 1, quorum, true);
        // Entry 2: tampered aggregate.
        let mut forged = entry(&registry, View(1), 2, quorum, false);
        forged.qc.aggregate[0] ^= 0xFF;
        with_ctx_at(&mut server, 1.0, |s, ctx| {
            s.handle_sync_resp(
                Actor::Server(ServerId(2)),
                Vec::new(),
                Vec::new(),
                vec![mismatched, forged],
                None,
                ctx,
            );
        });
        assert_eq!(server.certified_ord_tip(), SeqNum(0));
        assert!(server.instances.is_empty());
    }

    fn sync_reqs(effects: &Effects<Message>) -> Vec<(Actor, View, u64, u64)> {
        let reqs = effects.emissions.iter().filter_map(|e| match e {
            Emission::Send(peer, Message::SyncReq { view, from, to }) => {
                Some((*peer, *view, *from, *to))
            }
            _ => None,
        });
        reqs.collect()
    }

    #[test]
    fn repair_timer_requests_missing_ranges_only_when_stalled() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        // Commit-signed instance 3 that never committed here.
        server.signed_commit_tip = 3;
        server.instances.entry(3).or_default().signed = Some(View(1));

        // A tick right after commit progress does nothing: the tip moved
        // since the last observation, so nothing is wedged.
        server.last_repair_tip = 99; // pretend the tip was elsewhere before
        let effects = with_ctx_at(&mut server, 100.0, |s, ctx| {
            s.on_sync_repair_timer(ctx);
        });
        assert_eq!(sync_reqs(&effects), [], "a progressing tip must not ask");
        // The next tick sees the tip unchanged: the stall is real. One
        // request covers the signed-but-uncommitted range, to a rotating
        // peer, even though a trigger used the limiter a moment ago.
        let effects = with_ctx_at(&mut server, 400.0, |s, ctx| {
            s.request_sync(Actor::Server(ServerId(2)), 1, ctx);
            s.on_sync_repair_timer(ctx);
        });
        let peer = Actor::Server(ServerId(0));
        let ask = |to| (peer, View(1), 1, to);
        assert_eq!(sync_reqs(&effects)[1..], [ask(3)]);
        // A parked block above the signed tip raises `to` to just below it.
        let block = Arc::new(TxBlock::new(View(1), SeqNum(7), Vec::new()));
        server.instances.entry(7).or_default().parked = Some((block, Digest::ZERO));
        let effects = with_ctx_at(&mut server, 700.0, |s, ctx| {
            s.on_sync_repair_timer(ctx);
        });
        assert_eq!(
            sync_reqs(&effects),
            [(Actor::Server(ServerId(2)), View(1), 1, 6)]
        );
    }

    #[test]
    fn repair_requests_rotate_across_peers() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let a = server.next_sync_peer();
        let b = server.next_sync_peer();
        let c = server.next_sync_peer();
        let d = server.next_sync_peer();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, d, "three peers → period three");
        for p in [a, b, c] {
            assert_ne!(p, Actor::Server(ServerId(1)), "never self");
        }
    }

    #[test]
    fn request_sync_keeps_one_timestamp_and_never_asks_itself() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let peer = Actor::Server(ServerId(0));
        let interval = server.retransmit_interval_ms();
        let effects = with_ctx_at(&mut server, 100.0, |s, ctx| {
            s.request_sync(Actor::Server(ServerId(1)), 9, ctx); // self: dropped
            s.request_sync(peer, 2, ctx);
            s.request_sync(peer, 5, ctx); // limited, whatever it asks
            s.request_sync(Actor::Server(ServerId(2)), 5, ctx); // limited too
        });
        assert_eq!(sync_reqs(&effects), [(peer, View(1), 1, 2)]);
        let effects = with_ctx_at(&mut server, 100.0 + interval, |s, ctx| {
            s.request_sync(peer, 5, ctx);
        });
        assert_eq!(sync_reqs(&effects), [(peer, View(1), 1, 5)]);
        assert_eq!(server.stats().sync_reqs_sent, 2);
    }
}

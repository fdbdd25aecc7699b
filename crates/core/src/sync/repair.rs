//! The requester side of the sync subsystem: installing sync payloads,
//! rate-limited request helpers, and the periodic repair timer that turns a
//! stalled replica back into a live one without a view change.

use super::serve::sync_kind_tag;
use crate::pacemaker::timer_tags;
use crate::replication::PIPELINE_DEPTH;
use crate::server::{PrestigeServer, ServerRole};
use prestige_sim::{cpu_cost, Context};
use prestige_types::{
    Actor, Message, OrderedEntry, QcKind, QuorumCertificate, SyncKind, TxBlock, VcBlock,
};
use std::sync::Arc;

impl PrestigeServer {
    // ------------------------------------------------------------------
    // Requesting
    // ------------------------------------------------------------------

    /// Sends a `SyncReq`, rate-limited per kind to one request per
    /// retransmission interval: repair paths call this freely on every
    /// trigger (parked block, missing batch, stalled tip) and the limiter
    /// collapses the bursts.
    pub(crate) fn request_sync(
        &mut self,
        to: Actor,
        kind: SyncKind,
        lo: u64,
        hi: u64,
        ctx: &mut Context<Message>,
    ) {
        if hi < lo {
            return;
        }
        let slot = sync_kind_tag(kind) as usize;
        let now = ctx.now().as_ms();
        if now - self.last_sync_req_ms[slot] < self.retransmit_interval_ms() {
            return;
        }
        self.last_sync_req_ms[slot] = now;
        self.stats.sync_reqs_sent += 1;
        if kind == SyncKind::Snapshot {
            self.stats.snapshot_syncs += 1;
        }
        ctx.send(
            to,
            Message::SyncReq {
                kind,
                from: lo,
                to: hi,
            },
        );
    }

    /// Requests the certified ordered instances `[lo, hi]` from the next
    /// peer in the repair rotation (rate-limited): used when this server's
    /// commit-sign record runs ahead of what it can prove. Any of the
    /// `2f + 1` commit signers can serve the certificate and batch; the
    /// rotation finds a reachable one across successive intervals without
    /// soliciting `n - 1` duplicate megabyte responses per tick.
    pub(crate) fn request_certified_state(&mut self, lo: u64, hi: u64, ctx: &mut Context<Message>) {
        let peer = self.next_sync_peer();
        self.request_sync(peer, SyncKind::Ordered, lo, hi, ctx);
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
    /// interval *and* there is concrete evidence of missing state, ask a
    /// rotating peer for exactly the missing ranges. This is what lets a
    /// wedged pipeline (lost `CommitBlock`s, a commit-signed instance whose
    /// block never arrived, certified instances without batches) recover
    /// through sync alone instead of waiting for the client-complaint →
    /// view-change path.
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
        // (a) Parked out-of-order blocks: their predecessors were lost.
        let parked = self.instances.iter().find(|(_, r)| r.parked.is_some());
        if let Some(first_parked) = parked.map(|(&n, _)| n) {
            if first_parked > tip + 1 {
                let peer = self.next_sync_peer();
                let kind = Self::catchup_kind(tip + 1, first_parked - 1);
                self.request_sync(peer, kind, tip + 1, first_parked - 1, ctx);
            }
        } else if self.signed_commit_tip > tip {
            // (b) Commit-signed instances whose `CommitBlock` never arrived:
            // the commit QC may have assembled at a leader we can no longer
            // reach — any replica that applied it can serve the blocks.
            let peer = self.next_sync_peer();
            let kind = Self::catchup_kind(tip + 1, self.signed_commit_tip);
            self.request_sync(peer, kind, tip + 1, self.signed_commit_tip, ctx);
        }
        // (c) Certified-state holes below the signed tip: we are on the hook
        // for instances we cannot prove; fetch their batches and QCs.
        let cert_tip = self.certified_ord_tip().0;
        if self.signed_commit_tip > cert_tip {
            self.request_certified_state(cert_tip + 1, self.signed_commit_tip, ctx);
        }
    }

    /// Catch-up request kind for a missing block range: a hole wider than
    /// one serve budget means this replica is *far* behind (fresh restart
    /// from an old checkpoint, long partition) — ask for a snapshot, which
    /// also carries the view history and the stable checkpoint certificate,
    /// instead of paging block-by-block with no checkpoint to GC against.
    pub(crate) fn catchup_kind(lo: u64, hi: u64) -> SyncKind {
        if hi.saturating_sub(lo) + 1 > super::MAX_SYNC_BLOCKS as u64 {
            SyncKind::Snapshot
        } else {
            SyncKind::Transaction
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

    /// Receive-side tag for the ordered-entry throttle (distinct from the
    /// serve-side tags 0–2 in [`sync_kind_tag`]).
    const ORDERED_RECV_TAG: u8 = 3;

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
            self.verify_and_apply_block(Arc::new(block), ctx);
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
        if !ordered.is_empty() {
            let now = ctx.now().as_ms();
            let limiter_key = (from, Self::ORDERED_RECV_TAG);
            if let Some(last) = self.sync_served_ms.get(&limiter_key) {
                if now - last < super::SERVE_MIN_INTERVAL_MS {
                    self.stats.sync_throttled += 1;
                    return;
                }
            }
            self.sync_served_ms.insert(limiter_key, now);
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

        // A snapshot response carries the server's stable checkpoint
        // certificate: adopt it now that the blocks above are applied (if
        // the chain has not yet reached the certified height, the next
        // snapshot round — after more blocks land — will).
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
        assert!(
            effects
                .emissions
                .iter()
                .all(|e| !matches!(e, Emission::Send(_, Message::SyncReq { .. }))),
            "a progressing tip must not trigger repair traffic"
        );
        // The next tick sees the tip unchanged: the stall is real — repair.
        let effects = with_ctx_at(&mut server, 400.0, |s, ctx| {
            s.on_sync_repair_timer(ctx);
        });
        let reqs: Vec<(SyncKind, u64, u64)> = effects
            .emissions
            .iter()
            .filter_map(|e| match e {
                Emission::Send(_, Message::SyncReq { kind, from, to }) => Some((*kind, *from, *to)),
                Emission::Broadcast(_, Message::SyncReq { kind, from, to }) => {
                    Some((*kind, *from, *to))
                }
                _ => None,
            })
            .collect();
        assert!(
            reqs.contains(&(SyncKind::Transaction, 1, 3)),
            "the signed-but-uncommitted range must be requested: {reqs:?}"
        );
        assert!(
            reqs.contains(&(SyncKind::Ordered, 1, 3)),
            "the uncertified signed range must be requested: {reqs:?}"
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
    fn request_sync_is_rate_limited_per_kind() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let peer = Actor::Server(ServerId(0));
        let effects = with_ctx_at(&mut server, 100.0, |s, ctx| {
            s.request_sync(peer, SyncKind::Transaction, 1, 2, ctx);
            s.request_sync(peer, SyncKind::Transaction, 1, 2, ctx); // limited
            s.request_sync(peer, SyncKind::Ordered, 1, 2, ctx); // other slot
        });
        let sent = effects
            .emissions
            .iter()
            .filter(|e| matches!(e, Emission::Send(_, Message::SyncReq { .. })))
            .count();
        assert_eq!(sent, 2);
        assert_eq!(server.stats().sync_reqs_sent, 2);
    }

    #[test]
    fn catchup_kind_escalates_wide_gaps_to_snapshot() {
        let budget = crate::sync::MAX_SYNC_BLOCKS as u64;
        // Exactly one serve budget still pages block-by-block…
        assert_eq!(
            PrestigeServer::catchup_kind(1, budget),
            SyncKind::Transaction
        );
        // …one block past it escalates to a snapshot round.
        assert_eq!(
            PrestigeServer::catchup_kind(1, budget + 1),
            SyncKind::Snapshot
        );
        assert_eq!(PrestigeServer::catchup_kind(7, 7), SyncKind::Transaction);
    }

    #[test]
    fn snapshot_requests_are_counted() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let peer = Actor::Server(ServerId(0));
        with_ctx_at(&mut server, 100.0, |s, ctx| {
            s.request_sync(peer, SyncKind::Snapshot, 1, 1000, ctx);
        });
        assert_eq!(server.stats().snapshot_syncs, 1);
        assert_eq!(server.stats().sync_reqs_sent, 1);
    }
}

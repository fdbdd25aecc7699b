//! The durable storage plane: WAL appends, certified checkpoints, log GC,
//! and crash-restart replay.
//!
//! Every durable event — a committed txBlock, the ordering QC behind a
//! commit share, an installed vcBlock, an election vote — is appended to
//! the attached [`Storage`] *before* the server acts on it, so a `kill -9`
//! can never un-commit state the rest of the cluster built on, nor let a
//! restarted replica break a promise it made before the crash. Every
//! `checkpoint_interval` committed instances the replicas exchange signed
//! shares over a state digest (committed-chain fingerprint plus the live
//! reputation vector) and assemble a `2f + 1` **checkpoint certificate**;
//! the resulting stable checkpoint drives garbage collection of WAL
//! segments, and its certificate rides in the sync answers of far-behind
//! peers so they can adopt the same anchor.
//!
//! On restart the driving runtime replays the decoded WAL records through
//! [`PrestigeServer::replay_wal`] *before* re-attaching the log with
//! [`PrestigeServer::attach_storage`], so replay never re-appends what it
//! reads.

use crate::profile::{LoopProfile, LoopStage};
use crate::server::{Phase, PrestigeServer};
use crate::storage::block_keys_digest;
use prestige_crypto::{qc_statement, sign_share, FramedHasher, QcBuilder};
use prestige_sim::Context;
use prestige_storage::{Storage, StorageStats, WalRecord, WalRecordRef};
use prestige_types::{
    key_runs, Actor, Digest, Message, PartialSig, QcKind, QuorumCertificate, SeqNum, ServerId,
    Transaction, View,
};

impl PrestigeServer {
    // ------------------------------------------------------------------
    // Storage attachment & WAL appends
    // ------------------------------------------------------------------

    /// Attaches a write-ahead log. From this point every durable event is
    /// appended before the server acts on it. Call [`Self::replay_wal`]
    /// with the log's decoded records *first* — replay must not re-append.
    pub fn attach_storage(&mut self, storage: Box<dyn Storage>) {
        self.storage = Some(storage);
    }

    /// Counters of the attached log, if any.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    /// The highest stable (quorum-certified) checkpoint sequence number.
    pub fn stable_checkpoint(&self) -> u64 {
        self.stable_checkpoint
    }

    /// The certificate behind the stable checkpoint, if one has formed.
    pub fn stable_checkpoint_cert(&self) -> Option<&QuorumCertificate> {
        self.stable_ckpt_cert.as_ref()
    }

    /// Appends one record to the attached log (no-op without storage). An
    /// append error is fatal: acting on an event the log did not accept
    /// would break the crash-restart contract.
    pub(crate) fn wal_append(&mut self, record: WalRecordRef<'_>) {
        if let Some(storage) = self.storage.as_mut() {
            let span = LoopProfile::begin(&self.profiler);
            storage
                .append(record)
                .expect("WAL append failed: cannot guarantee durability");
            LoopProfile::end_sub(&self.profiler, span, LoopStage::StorageAppend);
        }
    }

    // ------------------------------------------------------------------
    // Certified checkpoints
    // ------------------------------------------------------------------

    /// The checkpoint statement at committed height `n`: the chain digest at
    /// `n` (which fingerprints the whole committed prefix) and the state
    /// digest the replicas co-sign — chain fingerprint plus the live
    /// reputation vector, so a certificate also pins the rp/ci state a
    /// snapshot-synced peer adopts. Returns `None` until this replica has
    /// committed `n` itself.
    ///
    /// The statement is signed at the fixed `View(0)`: a checkpoint
    /// certifies state-machine history, not the view that produced it, and
    /// replicas crossing a view boundary mid-round must still converge on
    /// one statement.
    pub(crate) fn checkpoint_statement(&self, n: u64) -> Option<(Digest, Digest)> {
        let chain = self.store.tx_block_shared(SeqNum(n))?.header.digest;
        let mut h = FramedHasher::new();
        h.field(b"checkpoint")
            .field(&n.to_be_bytes())
            .field(&chain.0);
        let vc = self.store.latest_vc_block();
        for id in self.config.replicas.servers() {
            h.field(&(id.0 as u64).to_be_bytes())
                .field(&vc.rp_of(id).to_be_bytes())
                .field(&vc.ci_of(id).to_be_bytes());
        }
        Some((chain, h.finish()))
    }

    /// Commit-path hook: when `n` lands on a checkpoint interval, sign a
    /// share over the local statement and broadcast it. Reputation updates
    /// racing a view change can make replicas disagree on the statement for
    /// one round — the round simply fails to reach quorum and the next
    /// interval succeeds, a liveness hiccup the interval bounds.
    pub(crate) fn maybe_emit_checkpoint(&mut self, n: SeqNum, ctx: &mut Context<Message>) {
        if n.0 == 0
            || !n.0.is_multiple_of(self.config.checkpoint_interval)
            || n.0 <= self.stable_checkpoint
        {
            return;
        }
        let Some((_, digest)) = self.checkpoint_statement(n.0) else {
            return;
        };
        let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::Checkpoint,
            View(0),
            n,
            &digest,
        ) else {
            return;
        };
        ctx.broadcast(
            self.other_servers(),
            Message::CkptShare {
                n,
                view: View(0),
                digest,
                share: share.clone(),
            },
        );
        self.add_ckpt_share(n, digest, share, ctx);
    }

    /// Accepts a peer's checkpoint share into the quorum for `n` — only for
    /// heights above the stable checkpoint that this replica has itself
    /// committed with a matching state digest (a share over state it cannot
    /// reproduce is either stale, divergent, or forged).
    ///
    /// Any other share whose signature verifies still tells the horizon how
    /// far its signer has checkpointed: the slowest server's share always
    /// arrives after the quorum, and a slow replica hears its peers' shares
    /// before it commits their height.
    pub(crate) fn handle_ckpt_share(
        &mut self,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        let quorum_needs = n.0 > self.stable_checkpoint
            && self
                .checkpoint_statement(n.0)
                .is_some_and(|(_, local)| local == digest);
        if quorum_needs {
            self.add_ckpt_share(n, digest, share, ctx);
            return;
        }
        // Only a height above the signer's recorded one is worth a verify.
        let recorded = self.ckpt_share_heights.get(share.signer.0 as usize);
        if recorded.is_none_or(|h| n.0 <= *h) {
            return;
        }
        let statement = qc_statement(QcKind::Checkpoint, View(0), n, &digest);
        if self
            .registry
            .verify(Actor::Server(share.signer), &statement, &share.sig)
        {
            self.note_ckpt_share(share.signer, n.0);
        }
    }

    /// Adds a share to the collector for `n` and, once its signature
    /// verifies, to the horizon; on reaching `2f + 1` assembles the
    /// certificate, installs the checkpoint, and broadcasts the certificate
    /// so laggards (who never committed `n` in time to collect shares) can
    /// adopt it.
    fn add_ckpt_share(
        &mut self,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        self.charge_verify_cost(ctx);
        let quorum = self.config.quorum();
        let builder = self
            .ckpt_builders
            .entry(n.0)
            .or_insert_with(|| QcBuilder::new(QcKind::Checkpoint, View(0), n, digest, quorum));
        let Ok(complete) = builder.add_share(&self.registry, &share) else {
            return;
        };
        let cert = if complete {
            builder.assemble().ok()
        } else {
            None
        };
        self.note_ckpt_share(share.signer, n.0);
        let Some(cert) = cert else {
            return;
        };
        self.ckpt_builders.remove(&n.0);
        self.install_checkpoint(cert.clone());
        ctx.broadcast(self.other_servers(), Message::CkptCert { cert });
    }

    /// Records that `signer` signed a checkpoint share at `n`. When that
    /// raises the lowest height over all servers, the block store drops
    /// everything below the new horizon, one interval under that height:
    /// no correct server asks for a block below it (ARCHITECTURE.md, "What
    /// a replica keeps").
    fn note_ckpt_share(&mut self, signer: ServerId, n: u64) {
        let Some(height) = self.ckpt_share_heights.get_mut(signer.0 as usize) else {
            return;
        };
        if n <= *height {
            return;
        }
        let old = std::mem::replace(height, n);
        let lowest = self.ckpt_share_heights.iter().copied().min().unwrap_or(0);
        if lowest > old {
            let horizon = lowest.saturating_sub(self.config.checkpoint_interval);
            self.store.prune_below(horizon);
        }
    }

    /// Adopts a checkpoint certificate received from a peer (directly or
    /// inside a snapshot `SyncResp`) — once the local log reaches the
    /// certified height and the locally recomputed statement agrees.
    pub(crate) fn handle_ckpt_cert(&mut self, cert: QuorumCertificate, ctx: &mut Context<Message>) {
        if cert.kind != QcKind::Checkpoint
            || cert.view != View(0)
            || cert.seq.0 <= self.stable_checkpoint
        {
            return;
        }
        let Some((_, local)) = self.checkpoint_statement(cert.seq.0) else {
            return;
        };
        if cert.digest != local {
            return;
        }
        if !self.verify_qc_cached(&cert, self.config.quorum(), ctx) {
            return;
        }
        self.install_checkpoint(cert);
    }

    /// Installs a stable checkpoint: logs it (certificate plus the chain
    /// digest that lets a GC'd log re-root on replay), then garbage-collects
    /// everything the certificate now covers.
    fn install_checkpoint(&mut self, cert: QuorumCertificate) {
        let stable = cert.seq.0;
        if stable <= self.stable_checkpoint {
            return;
        }
        let Some(block) = self.store.tx_block_shared(cert.seq) else {
            return;
        };
        let chain = block.header.digest;
        self.wal_append(WalRecordRef::Checkpoint { cert: &cert, chain });
        self.stable_checkpoint = stable;
        self.stable_ckpt_cert = Some(cert);
        self.stats.checkpoints_formed += 1;
        self.gc_below_checkpoint();
    }

    /// Drops state at or below the stable checkpoint: stale share collectors
    /// and whole WAL segments. (Per-instance proof records are gone already —
    /// applying a block removes its instance's record — and the client table
    /// is bounded per client, not by checkpoints; neither is touched here.)
    fn gc_below_checkpoint(&mut self) {
        let stable = self.stable_checkpoint;
        self.ckpt_builders.retain(|n, _| *n > stable);
        if let Some(storage) = self.storage.as_mut() {
            storage
                .prune_below(stable)
                .expect("WAL prune failed: segment GC must not silently diverge");
        }
    }

    // ------------------------------------------------------------------
    // Crash-restart replay
    // ------------------------------------------------------------------

    /// Rebuilds this server's committed state from the decoded records of
    /// its WAL. Must run on a freshly constructed server *before*
    /// [`Self::attach_storage`] (so nothing here re-appends), after which
    /// the server holds what the crash left it: committed chain, client
    /// table (as far as the surviving log tells), commit-share proof
    /// records, view history, the stable checkpoint, and the votes it cast
    /// in views not yet installed.
    ///
    /// Replay restores promises, never a role. A replica that replays a
    /// non-empty log comes back a follower, even of a view its latest
    /// vcBlock says it leads: only installing a view makes a leader
    /// (`note_view_installed`). An empty log is a first boot, and keeps the
    /// constructor's genesis rule (s0 leads V1).
    ///
    /// If GC pruned the log below a checkpoint, the chain is re-rooted at
    /// the checkpoint's recorded fingerprint; blocks the log no longer
    /// chains to genesis are skipped (their effects are covered by the
    /// checkpoint), and the replica fetches anything newer from its peers
    /// via the usual repair path.
    pub fn replay_wal(&mut self, records: Vec<WalRecord>) {
        if records.is_empty() {
            return;
        }
        // The latest durable checkpoint decides where the chain roots.
        let mut stable: Option<(SeqNum, Digest, QuorumCertificate)> = None;
        for record in &records {
            if let WalRecord::Checkpoint { cert, chain } = record {
                match &stable {
                    Some((s, _, _)) if cert.seq <= *s => {}
                    _ => stable = Some((cert.seq, *chain, cert.clone())),
                }
            }
        }
        if let Some((n, chain, cert)) = stable {
            // Does the surviving log still hold a genesis-rooted contiguous
            // prefix reaching the checkpoint? If GC dropped it, re-root at
            // the recorded fingerprint instead.
            let mut reach = self.store.latest_seq().0;
            for record in &records {
                if let WalRecord::Block(b) = record {
                    if b.n.0 == reach + 1 {
                        reach += 1;
                    }
                }
            }
            if n.0 > reach {
                self.store.install_anchor(n, chain);
            }
            self.stable_checkpoint = n.0;
            self.stable_ckpt_cert = Some(cert);
        }
        for record in records {
            match record {
                WalRecord::Block(block) => {
                    // Only blocks extending the chain re-apply; stragglers
                    // below the re-rooted anchor (or duplicates of a height
                    // already replayed) are covered state.
                    if block.n.0 != self.store.latest_seq().0 + 1 {
                        continue;
                    }
                    let txs = block.tx.len() as u64;
                    for run in key_runs(&block.tx, Transaction::key) {
                        let retired = &mut self.stats.gc_pruned_keys;
                        self.clients.note_committed_run(&run, retired, |_| {});
                    }
                    let keys = block_keys_digest(&block);
                    if self.store.insert_tx_block(block, keys) {
                        self.stats.committed_blocks += 1;
                        self.stats.committed_tx += txs;
                    }
                }
                WalRecord::OrdQc(qc) => {
                    let n = qc.seq.0;
                    self.signed_commit_tip = self.signed_commit_tip.max(n);
                    self.record_ord_qc(n, &qc);
                    self.instances.entry(n).or_default().signed = Some(qc.view);
                }
                WalRecord::ViewInstall(block) => {
                    self.store.insert_vc_block(block);
                }
                WalRecord::Checkpoint { .. } => {}
                WalRecord::Vote {
                    view,
                    candidate,
                    share,
                } => {
                    self.cast_votes.entry(view.0).or_insert((candidate, share));
                }
            }
        }
        // Committed instances need no per-instance proof records, and a vote
        // binds only a view not yet installed.
        let tip = self.store.latest_seq().0;
        self.instances.retain(|n, _| *n > tip);
        self.next_seq = SeqNum(tip).next();
        let view = self.store.current_view().0;
        self.cast_votes.retain(|v, _| *v > view);
        self.phase = Phase::Follower;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::tests::{pump, route, Queue};
    use crate::storage::BlockStore;
    use prestige_crypto::KeyRegistry;
    use prestige_sim::{Context, Effects, Emission, SimRng, SimTime};
    use prestige_storage::MemStorage;
    use prestige_types::{ClientId, ClusterConfig, Proposal, ServerId, Transaction, TxBlock};
    use std::sync::Arc;

    fn with_ctx(
        server: &mut PrestigeServer,
        f: impl FnOnce(&mut PrestigeServer, &mut Context<Message>),
    ) -> Effects<Message> {
        let mut effects = Effects::new();
        let mut rng = SimRng::new(7);
        let mut next_timer_id = 100;
        let me = Actor::Server(server.id());
        let mut ctx = Context::new(
            SimTime::from_ms(50.0),
            me,
            &mut rng,
            &mut next_timer_id,
            &mut effects,
        );
        f(server, &mut ctx);
        effects
    }
    use prestige_types::Actor;

    /// Block `n` of the reference chain: 16 consecutive requests of one
    /// client, so four blocks carry request numbers 1..=64.
    fn batch(n: u64) -> Vec<Transaction> {
        ((n - 1) * 16 + 1..=n * 16)
            .map(|number| Transaction::with_size(ClientId(1), number, 16))
            .collect()
    }

    /// How many of block `n`'s 16 requests `server` holds as committed.
    fn committed_of_block(server: &PrestigeServer, n: u64) -> usize {
        batch(n)
            .iter()
            .filter(|tx| server.clients.is_committed(tx.key()))
            .count()
    }

    /// A server with `committed` blocks applied directly to its store and
    /// the matching per-instance bookkeeping a live commit would leave.
    fn committed_server(registry: &KeyRegistry, id: u32, committed: u64) -> PrestigeServer {
        let config = ClusterConfig::new(4).with_checkpoint_interval(4);
        let mut server = PrestigeServer::new(ServerId(id), config, registry.clone(), 0);
        for n in 1..=committed {
            let block = TxBlock::new(View(1), SeqNum(n), batch(n));
            for run in key_runs(&block.tx, Transaction::key) {
                let retired = &mut server.stats.gc_pruned_keys;
                server.clients.note_committed_run(&run, retired, |_| {});
            }
            let keys = block_keys_digest(&block);
            assert!(server.store.insert_tx_block(block, keys));
        }
        server
    }

    fn foreign_share(registry: &KeyRegistry, signer: u32, n: u64, digest: Digest) -> PartialSig {
        sign_share(
            registry,
            ServerId(signer),
            QcKind::Checkpoint,
            View(0),
            SeqNum(n),
            &digest,
        )
        .unwrap()
    }

    /// Four servers with checkpoints every 4 blocks, driven through the live
    /// protocol: s0 leads, and every server-to-server message is delivered
    /// at once, except those a test withholds.
    struct Four {
        registry: KeyRegistry,
        servers: Vec<PrestigeServer>,
        blocks: u64,
    }

    impl Four {
        fn new() -> Self {
            let registry = KeyRegistry::new(2, 4, 2);
            let config = ClusterConfig::new(4).with_checkpoint_interval(4);
            let servers = (0..4)
                .map(|i| PrestigeServer::new(ServerId(i), config.clone(), registry.clone(), 0))
                .collect();
            Four {
                registry,
                servers,
                blocks: 0,
            }
        }

        /// Commits the next block of [`batch`] on every reachable server,
        /// dropping every message `withhold` names.
        fn commit_block(&mut self, withhold: impl Fn(Actor, &Message) -> bool) {
            self.blocks += 1;
            let leader = &mut self.servers[0];
            let proposals = batch(self.blocks)
                .into_iter()
                .map(|tx| Proposal::new(tx, Digest::ZERO));
            leader.pending_proposals.extend(proposals);
            let effects = with_ctx(leader, |s, ctx| s.flush_batch(ctx));
            let mut queue = Queue::new();
            route(&mut queue, Actor::Server(ServerId(0)), effects);
            pump(&mut self.servers, queue, withhold);
        }

        fn commit_blocks(&mut self, count: u64, withhold: impl Fn(Actor, &Message) -> bool) {
            for _ in 0..count {
                self.commit_block(&withhold);
            }
        }

        /// The lowest height server `i` still holds.
        fn first_held(&self, i: usize) -> u64 {
            self.servers[i].store.chain_digests()[0].0
        }
    }

    fn nothing(_: Actor, _: &Message) -> bool {
        false
    }

    /// Whether `message` is a checkpoint share `from` server `id` sent.
    fn share_of(id: u32) -> impl Fn(Actor, &Message) -> bool {
        move |from, message| {
            from == Actor::Server(ServerId(id)) && matches!(message, Message::CkptShare { .. })
        }
    }

    #[test]
    fn with_every_share_delivered_every_store_starts_one_interval_below_the_lowest() {
        let mut four = Four::new();
        four.commit_blocks(12, nothing);
        for i in 0..4 {
            let server = &four.servers[i];
            assert_eq!(server.store.latest_seq(), SeqNum(12));
            assert_eq!(server.ckpt_share_heights, [12; 4]);
            assert_eq!(four.first_held(i), 8, "s{i} keeps 12 - 4 and up");
            // The stats count every commit; the store holds the suffix.
            assert_eq!(server.stats().committed_blocks, 12);
            assert_eq!(server.stats().committed_tx, 12 * 16);
        }
        // One more block: the tip moves, the horizon waits for the shares.
        four.commit_block(nothing);
        assert_eq!(four.first_held(0), 8);
        assert_eq!(four.servers[0].store.latest_seq(), SeqNum(13));
    }

    #[test]
    fn a_withholding_server_freezes_the_horizon_at_its_last_share() {
        let mut four = Four::new();
        four.commit_blocks(8, nothing);
        four.commit_blocks(12, share_of(3));
        for i in 0..3 {
            assert_eq!(four.servers[i].ckpt_share_heights, [20, 20, 20, 8]);
            assert_eq!(four.first_held(i), 4, "s{i} keeps s3's 8 - 4 and up");
            assert_eq!(
                four.servers[i].stable_checkpoint(),
                20,
                "three shares are a quorum"
            );
        }
        // The withholder itself heard every share.
        assert_eq!(four.first_held(3), 16);
    }

    #[test]
    fn a_share_with_a_bad_signature_does_not_move_the_horizon() {
        let mut four = Four::new();
        four.commit_blocks(4, nothing);
        four.commit_blocks(4, share_of(3));
        // Round three's shares all go missing: s0 holds only its own for 12.
        four.commit_blocks(4, |_, m| matches!(m, Message::CkptShare { .. }));
        let s0 = &four.servers[0];
        assert_eq!(s0.ckpt_share_heights, [12, 8, 8, 4]);
        assert_eq!((s0.stable_checkpoint(), four.first_held(0)), (8, 0));

        // s3's shares, forged: one at the stable height (verified on its
        // own) and one at 12 (verified by the quorum collecting 12).
        let (_, at_8) = s0.checkpoint_statement(8).unwrap();
        let (_, at_12) = s0.checkpoint_statement(12).unwrap();
        for (n, digest) in [(8, at_8), (12, at_12)] {
            let mut forged = foreign_share(&four.registry, 3, n, digest);
            forged.sig[0] ^= 0xff;
            let s0 = &mut four.servers[0];
            with_ctx(s0, |s, ctx| {
                s.handle_ckpt_share(SeqNum(n), digest, forged, ctx)
            });
            assert_eq!(s0.ckpt_share_heights, [12, 8, 8, 4], "forged share at {n}");
            assert_eq!(four.first_held(0), 0);
        }

        // The genuine share at 12 moves it.
        let genuine = foreign_share(&four.registry, 3, 12, at_12);
        let s0 = &mut four.servers[0];
        with_ctx(s0, |s, ctx| {
            s.handle_ckpt_share(SeqNum(12), at_12, genuine, ctx)
        });
        assert_eq!(s0.ckpt_share_heights, [12, 8, 8, 12]);
        assert_eq!(four.first_held(0), 4);
    }

    #[test]
    fn a_replica_restarted_from_a_torn_wal_catches_up_from_a_pruned_peer() {
        let mut four = Four::new();
        let wal = prestige_storage::SharedMemStorage::new();
        four.servers[3].attach_storage(Box::new(wal.clone()));
        four.commit_blocks(20, nothing);
        assert_eq!(four.first_held(0), 16, "the peers have pruned");

        // s3 crashes, losing every record it appended after block 16: the
        // four blocks up to its last share, as many as the one-interval
        // slack covers.
        let records = wal.records_snapshot();
        let kept = records
            .iter()
            .position(|r| matches!(r, WalRecord::Block(b) if b.n == SeqNum(16)))
            .unwrap();
        wal.truncate_tail(records.len() - kept - 1);
        let config = four.servers[3].config.clone();
        let mut restarted = PrestigeServer::new(ServerId(3), config, four.registry.clone(), 0);
        restarted.replay_wal(wal.records_snapshot());
        restarted.attach_storage(Box::new(wal.clone()));
        assert_eq!(restarted.store.latest_seq(), SeqNum(16));
        four.servers[3] = restarted;

        // The next block reaches s3 above a gap; it asks the leader, whose
        // store still starts at the block s3 holds.
        four.commit_block(nothing);
        let s3 = &four.servers[3];
        assert_eq!(s3.stats().sync_reqs_sent, 1);
        assert_eq!(s3.store.latest_seq(), SeqNum(21));
        assert_eq!(
            s3.store.latest_tx_digest(),
            four.servers[0].store.latest_tx_digest()
        );
    }

    #[test]
    fn checkpoint_quorum_forms_installs_and_gcs() {
        let registry = KeyRegistry::new(2, 4, 2);
        let mut server = committed_server(&registry, 1, 3);
        // Instance 4 is commit-signed; its block commits through the live
        // apply path, which lands on the checkpoint interval.
        server.instances.entry(4).or_default().signed = Some(View(1));
        let block = Arc::new(TxBlock::new(View(1), SeqNum(4), batch(4)));
        let keys = block_keys_digest(&block);
        let effects = with_ctx(&mut server, |s, ctx| {
            s.apply_committed_block(Actor::Server(ServerId(0)), block, keys, ctx);
        });
        server.attach_storage(Box::new(MemStorage::new()));
        let (_, digest) = server.checkpoint_statement(4).unwrap();
        assert!(
            effects
                .emissions
                .iter()
                .any(|e| matches!(e, Emission::Broadcast(_, Message::CkptShare { .. }))),
            "commit at the interval must broadcast a share"
        );
        assert_eq!(server.stable_checkpoint(), 0, "one share is not a quorum");

        let s0 = foreign_share(&registry, 0, 4, digest);
        let s2 = foreign_share(&registry, 2, 4, digest);
        let effects = with_ctx(&mut server, |s, ctx| {
            s.handle_ckpt_share(SeqNum(4), digest, s0, ctx);
            s.handle_ckpt_share(SeqNum(4), digest, s2, ctx);
        });
        assert_eq!(server.stable_checkpoint(), 4);
        assert_eq!(server.stats().checkpoints_formed, 1);
        assert!(
            effects
                .emissions
                .iter()
                .any(|e| matches!(e, Emission::Broadcast(_, Message::CkptCert { .. }))),
            "the assembling replica must share the certificate"
        );
        // The client table is bounded per client, not by checkpoints: the
        // install forgets no committed request. What has been retired is the
        // one bitmap word the 64 commits filled (numbers 0..=63; 64 itself
        // still holds a bit).
        assert!((1..=4).all(|n| committed_of_block(&server, n) == 16));
        assert_eq!(server.stats().gc_pruned_keys, 64);
        assert!(server.instances.is_empty());
        // The log recorded the checkpoint (4 shares would be 3 records less).
        let stats = server.storage_stats().unwrap();
        assert_eq!(stats.records, 1);
    }

    #[test]
    fn shares_for_divergent_or_uncommitted_state_are_refused() {
        let registry = KeyRegistry::new(2, 4, 2);
        let mut server = committed_server(&registry, 1, 4);
        let (_, digest) = server.checkpoint_statement(4).unwrap();

        // A share over a digest this replica cannot reproduce.
        let wrong = Digest([9; 32]);
        let share = foreign_share(&registry, 0, 4, wrong);
        with_ctx(&mut server, |s, ctx| {
            s.handle_ckpt_share(SeqNum(4), wrong, share, ctx)
        });
        assert!(server.ckpt_builders.is_empty(), "divergent digest refused");

        // A share for a height this replica has not committed.
        let share = foreign_share(&registry, 0, 8, digest);
        with_ctx(&mut server, |s, ctx| {
            s.handle_ckpt_share(SeqNum(8), digest, share, ctx)
        });
        assert!(
            server.ckpt_builders.is_empty(),
            "uncommitted height refused"
        );

        // A forged share over the correct digest fails signature
        // verification inside the builder.
        let mut forged = foreign_share(&registry, 0, 4, digest);
        forged.sig[0] ^= 0xff;
        with_ctx(&mut server, |s, ctx| {
            s.handle_ckpt_share(SeqNum(4), digest, forged, ctx)
        });
        assert_eq!(server.stable_checkpoint(), 0);
    }

    #[test]
    fn certificates_verify_before_adoption() {
        let registry = KeyRegistry::new(2, 4, 2);
        let mut server = committed_server(&registry, 1, 4);
        let (_, digest) = server.checkpoint_statement(4).unwrap();
        let quorum = server.config.quorum();

        let mut builder = QcBuilder::new(QcKind::Checkpoint, View(0), SeqNum(4), digest, quorum);
        for s in 0..quorum {
            builder
                .add_share(&registry, &foreign_share(&registry, s, 4, digest))
                .unwrap();
        }
        let cert = builder.assemble().unwrap();

        // A tampered aggregate is rejected.
        let mut forged = cert.clone();
        forged.aggregate[0] ^= 0xff;
        with_ctx(&mut server, |s, ctx| s.handle_ckpt_cert(forged, ctx));
        assert_eq!(server.stable_checkpoint(), 0);

        // The genuine certificate installs.
        with_ctx(&mut server, |s, ctx| s.handle_ckpt_cert(cert.clone(), ctx));
        assert_eq!(server.stable_checkpoint(), 4);
        assert_eq!(server.stable_checkpoint_cert(), Some(&cert));

        // Re-adoption of an old certificate is a no-op.
        with_ctx(&mut server, |s, ctx| s.handle_ckpt_cert(cert, ctx));
        assert_eq!(server.stats().checkpoints_formed, 1);
    }

    #[test]
    fn replay_rebuilds_committed_state() {
        let registry = KeyRegistry::new(2, 4, 2);
        // Reference chain to source records from.
        let reference = committed_server(&registry, 1, 6);
        let mut records: Vec<WalRecord> = reference
            .store
            .tx_blocks_in(1, 6)
            .map(WalRecord::Block)
            .collect();
        records.push(WalRecord::OrdQc(QuorumCertificate {
            kind: QcKind::Ordering,
            view: View(1),
            seq: SeqNum(7),
            digest: Digest([7; 32]),
            signers: vec![ServerId(0), ServerId(1), ServerId(2)],
            aggregate: [0; 32],
        }));
        // The crashed replica had won view 2, and voted in views 2 and 3.
        let genesis = reference.store.latest_vc_block();
        let won = genesis.successor(View(2), ServerId(1), 2, 1, None, None);
        records.push(WalRecord::ViewInstall(won));
        let share = PartialSig {
            signer: ServerId(1),
            sig: [3; 32],
        };
        for (view, candidate) in [(2, ServerId(1)), (3, ServerId(2))] {
            records.push(WalRecord::Vote {
                view: View(view),
                candidate,
                share: share.clone(),
            });
        }

        let mut restarted = PrestigeServer::new(
            ServerId(1),
            ClusterConfig::new(4).with_checkpoint_interval(4),
            registry.clone(),
            0,
        );
        restarted.replay_wal(records);
        assert_eq!(restarted.store.latest_seq(), SeqNum(6));
        assert_eq!(restarted.stats().committed_blocks, 6);
        assert_eq!(restarted.stats().committed_tx, 6 * 16);
        assert_eq!(restarted.next_seq, SeqNum(7));
        assert_eq!(
            restarted.store.chain_digests(),
            reference.store.chain_digests(),
            "replay must rebuild the identical chain"
        );
        assert!((1..=6).all(|n| committed_of_block(&restarted, n) == 16));
        assert_eq!(committed_of_block(&restarted, 7), 0);
        assert_eq!(restarted.signed_commit_tip, 7);
        assert!(restarted.instances[&7].ord_qc.is_some());
        assert_eq!(restarted.instances[&7].signed, Some(View(1)));
        assert_eq!(restarted.instances.len(), 1);
        // It keeps its promises, not its role: view 2 names it leader, yet
        // it comes back a follower, bound by its vote in the uninstalled
        // view 3 only.
        assert_eq!(restarted.current_view(), View(2));
        assert_eq!(restarted.current_leader(), ServerId(1));
        assert_eq!(restarted.role(), crate::server::ServerRole::Follower);
        let votes: Vec<_> = restarted
            .cast_votes
            .iter()
            .map(|(v, (c, _))| (*v, *c))
            .collect();
        assert_eq!(votes, [(3, ServerId(2))]);
        // Its commit share for instance 7 survives, the batch does not (an
        // `OrdQc` record carries none), and no live message re-delivers it.
        // The repair tick is the fallback: its first tick only observes the
        // tip, the second finds it stalled below the signed tip and asks a
        // rotating peer up to it.
        let mut tick = || {
            let effects = with_ctx(&mut restarted, |s, ctx| s.on_sync_repair_timer(ctx));
            let reqs = effects.emissions.into_iter().filter_map(|e| match e {
                Emission::Send(peer, Message::SyncReq { view, from, to }) => {
                    Some((peer, view, from, to))
                }
                _ => None,
            });
            reqs.collect::<Vec<_>>()
        };
        assert_eq!(tick(), []);
        assert_eq!(tick(), [(Actor::Server(ServerId(0)), View(2), 7, 7)]);
    }

    #[test]
    fn replay_of_a_gcd_log_re_roots_at_the_checkpoint() {
        let registry = KeyRegistry::new(2, 4, 2);
        let reference = committed_server(&registry, 1, 6);
        let (chain, digest) = reference.checkpoint_statement(4).unwrap();
        let quorum = reference.config.quorum();
        let mut builder = QcBuilder::new(QcKind::Checkpoint, View(0), SeqNum(4), digest, quorum);
        for s in 0..quorum {
            builder
                .add_share(&registry, &foreign_share(&registry, s, 4, digest))
                .unwrap();
        }
        let cert = builder.assemble().unwrap();

        // The GC'd log: the prefix below the checkpoint is gone.
        let mut records = vec![WalRecord::Checkpoint {
            cert: cert.clone(),
            chain,
        }];
        records.extend(reference.store.tx_blocks_in(5, 6).map(WalRecord::Block));

        let mut restarted = PrestigeServer::new(
            ServerId(1),
            ClusterConfig::new(4).with_checkpoint_interval(4),
            registry.clone(),
            0,
        );
        restarted.replay_wal(records);
        assert_eq!(restarted.stable_checkpoint(), 4);
        assert_eq!(restarted.store.latest_seq(), SeqNum(6));
        assert_eq!(
            restarted.store.latest_tx_digest(),
            reference.store.latest_tx_digest(),
            "the re-rooted chain must converge on the cluster fingerprint"
        );
        // The restarted replica re-learns the client table from the replayed
        // suffix only: 5 and 6 re-applied, nothing below the checkpoint.
        assert!((5..=6).all(|n| committed_of_block(&restarted, n) == 16));
        assert!((1..=4).all(|n| committed_of_block(&restarted, n) == 0));

        // The anchor is local scaffolding: a real block store still agrees.
        let mut fresh = BlockStore::new(4);
        for b in reference.store.tx_blocks_in(1, 6) {
            let keys = block_keys_digest(&b);
            assert!(fresh.insert_tx_block(b, keys));
        }
        assert_eq!(fresh.latest_tx_digest(), restarted.store.latest_tx_digest());
    }
}

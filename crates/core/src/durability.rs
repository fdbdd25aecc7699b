//! The durable storage plane: WAL appends, certified checkpoints, log GC,
//! and crash-restart replay.
//!
//! Every durable event — a committed txBlock, the ordering QC behind a
//! commit share, an installed vcBlock — is appended to the attached
//! [`Storage`] *before* the server acts on it, so a `kill -9` can never
//! un-commit state the rest of the cluster built on. Every
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
use crate::server::{PrestigeServer, ServerRole};
use crate::storage::block_keys_digest;
use prestige_crypto::{sign_share, FramedHasher, QcBuilder};
use prestige_sim::Context;
use prestige_storage::{Storage, StorageStats, WalRecord, WalRecordRef};
use prestige_types::{Digest, Message, PartialSig, QcKind, QuorumCertificate, SeqNum, View};

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

    /// Forces everything appended so far to stable storage (shutdown path).
    pub fn sync_storage(&mut self) {
        if let Some(storage) = self.storage.as_mut() {
            let _ = storage.sync();
        }
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
        let interval = self.config.checkpoint_interval;
        if interval == 0
            || n.0 == 0
            || !n.0.is_multiple_of(interval)
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

    /// Accepts a peer's checkpoint share — only for heights this replica has
    /// itself committed with a matching state digest (a share over state it
    /// cannot reproduce is either stale, divergent, or forged).
    pub(crate) fn handle_ckpt_share(
        &mut self,
        n: SeqNum,
        digest: Digest,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if self.config.checkpoint_interval == 0 || n.0 <= self.stable_checkpoint {
            return;
        }
        let Some((_, local)) = self.checkpoint_statement(n.0) else {
            return;
        };
        if local != digest {
            return;
        }
        self.add_ckpt_share(n, digest, share, ctx);
    }

    /// Adds a verified share to the collector for `n`; on reaching `2f + 1`
    /// assembles the certificate, installs the checkpoint, and broadcasts
    /// the certificate so laggards (who never committed `n` in time to
    /// collect shares) can adopt it.
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
        if builder.add_share(&self.registry, &share).is_err() || !builder.complete() {
            return;
        }
        let Ok(cert) = builder.assemble() else {
            return;
        };
        self.ckpt_builders.remove(&n.0);
        self.install_checkpoint(cert.clone());
        ctx.broadcast(self.other_servers(), Message::CkptCert { cert });
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
    /// the server resumes exactly where the crash left it: committed chain,
    /// client table (as far as the surviving log tells), commit-share proof
    /// records, view history, role, and the stable checkpoint.
    ///
    /// If GC pruned the log below a checkpoint, the chain is re-rooted at
    /// the checkpoint's recorded fingerprint; blocks the log no longer
    /// chains to genesis are skipped (their effects are covered by the
    /// checkpoint), and the replica fetches anything newer from its peers
    /// via the usual repair path.
    pub fn replay_wal(&mut self, records: Vec<WalRecord>) {
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
                    for tx in &block.tx {
                        self.clients
                            .note_committed(tx.key(), &mut self.stats.gc_pruned_keys);
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
            }
        }
        // Committed instances need no per-instance proof records.
        let tip = self.store.latest_seq().0;
        self.instances.retain(|n, _| *n > tip);
        self.next_seq = SeqNum(tip).next();
        let leader = self.store.latest_vc_block().leader_id;
        self.role = if leader == self.id {
            ServerRole::Leader
        } else {
            ServerRole::Follower
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::BlockStore;
    use prestige_crypto::KeyRegistry;
    use prestige_sim::{Context, Effects, Emission, SimRng, SimTime};
    use prestige_storage::MemStorage;
    use prestige_types::{ClientId, ClusterConfig, ServerId, Transaction, TxBlock};
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
            for tx in &block.tx {
                server
                    .clients
                    .note_committed(tx.key(), &mut server.stats.gc_pruned_keys);
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

        let mut restarted = PrestigeServer::new(
            ServerId(1),
            ClusterConfig::new(4).with_checkpoint_interval(4),
            registry.clone(),
            0,
        );
        restarted.replay_wal(records);
        assert_eq!(restarted.store.latest_seq(), SeqNum(6));
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
        assert_eq!(restarted.role, ServerRole::Follower);
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

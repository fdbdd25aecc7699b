//! Certificate validation and the in-order apply path, shared by live
//! `CommitBlock` broadcasts and blocks acquired through sync.

use crate::client_table::keys_by_client;
use crate::profile::{LoopProfile, LoopStage};
use crate::server::PrestigeServer;
use crate::storage::block_keys_digest;
use prestige_crypto::ordering_digest;
use prestige_sim::Context;
use prestige_types::{key_runs, Actor, Digest, KeyRun, Message, QcKind, Transaction, TxBlock};
use std::sync::Arc;

impl PrestigeServer {
    /// Shared validation + apply path for `CommitBlock` broadcasts and synced
    /// txBlocks. A block is applied only when its two QCs certify exactly
    /// its body: both are quorum certificates of the block's own instance
    /// and view over one digest, and that digest is the batch digest of
    /// `block.tx`. Nothing else about the message is trusted — not who
    /// relayed it, not its signature — so a refusal here is the only thing
    /// standing between one Byzantine relay and a forked log. `from` is who
    /// relayed it, and is asked for whatever the block proves missing.
    pub(crate) fn verify_and_apply_block(
        &mut self,
        from: Actor,
        block: Arc<TxBlock>,
        ctx: &mut Context<Message>,
    ) {
        let quorum = self.config.quorum();
        let (Some(ordering_qc), Some(commit_qc)) = (&block.ordering_qc, &block.commit_qc) else {
            return;
        };
        if ordering_qc.kind != QcKind::Ordering
            || commit_qc.kind != QcKind::Commit
            || ordering_qc.seq != block.n
            || commit_qc.seq != block.n
        {
            return;
        }
        // An ordering quorum from one view and a commit quorum from another
        // (or over another digest) certify no single instance.
        if ordering_qc.view != block.view
            || commit_qc.view != block.view
            || ordering_qc.digest != commit_qc.digest
        {
            self.stats.verify_rejected += 1;
            return;
        }
        if !self.verify_qc_cached(ordering_qc, quorum, ctx)
            || !self.verify_qc_cached(commit_qc, quorum, ctx)
        {
            return;
        }
        let Some(keys) = self.certified_keys_digest(&block, &ordering_qc.digest) else {
            self.stats.verify_rejected += 1;
            return;
        };
        self.apply_committed_block(from, block, keys, ctx);
    }

    /// The keys digest of `block.tx`, if the body is the batch `digest`
    /// certifies. On the live path this follower acknowledged the ordering
    /// itself — it hashed a batch to this digest at `Ord` time and kept that
    /// batch and its keys digest beside the digest — so comparing the body
    /// with the batch is enough and the kept keys digest is reused;
    /// otherwise (sync, a straggler from an earlier view, a lost `Ord`) the
    /// keys are hashed once from the body, for this check and for the chain
    /// link alike.
    fn certified_keys_digest(&self, block: &TxBlock, digest: &Digest) -> Option<Digest> {
        if block.view == self.current_view() {
            if let Some(ack) = self.instances.get(&block.n.0).and_then(|r| r.ack.as_ref()) {
                let body_keys = block.tx.iter().map(|tx| tx.key());
                if ack.digest == *digest && ack.batch.iter().map(|p| p.tx.key()).eq(body_keys) {
                    return Some(ack.keys);
                }
            }
        }
        let keys = block_keys_digest(block);
        (ordering_digest(block.view, block.n, &keys) == *digest).then_some(keys)
    }

    /// Applies a committed block locally: store it, update bookkeeping, and
    /// notify the owning clients. `keys` is the block's keys digest, which
    /// links it into the chain. `from` is the server that proved the block:
    /// this server itself on the leader's commit path, which also fans the
    /// block out as `CommitBlock` once it lands.
    pub(crate) fn apply_committed_block(
        &mut self,
        from: Actor,
        block: Arc<TxBlock>,
        keys: Digest,
        ctx: &mut Context<Message>,
    ) {
        let broadcast = from == Actor::Server(self.id);
        let tip = self.store.latest_seq().0;
        if block.n.0 <= tip {
            // Already committed. A leader committing a duplicate still fans
            // it out.
            if broadcast {
                self.broadcast_commit_block(block, ctx);
            }
            return;
        }
        // A gap means the predecessors' broadcasts were lost (shed under
        // backpressure or cut by a partition); a block from a higher view
        // means this server missed a view change (it refused an uncoverable
        // vcBlock, or the install traffic was lost). Either way, ask the
        // server that proved the block what this one missed below it; the
        // repair timer re-asks a rotating peer if that one does not answer.
        if block.n.0 > tip + 1 || block.view > self.current_view() {
            self.request_sync(from, block.n.0 - 1, ctx);
        }
        if block.n.0 > tip + 1 {
            // Parked until the gap closes, so every replica applies the log
            // in the same order.
            let n = block.n.0;
            self.instances.entry(n).or_default().parked = Some((Arc::clone(&block), keys));
            if broadcast {
                self.broadcast_commit_block(block, ctx);
            }
            return;
        }
        let shared = self.apply_in_order(block, keys, ctx);
        if broadcast {
            if let Some(shared) = shared {
                self.broadcast_commit_block(shared, ctx);
            }
        }
        // Drain any parked successors that are now contiguous with the tip.
        while let Some((block, keys)) = self
            .instances
            .get_mut(&(self.store.latest_seq().0 + 1))
            .and_then(|r| r.parked.take())
        {
            self.apply_in_order(block, keys, ctx);
        }
    }

    /// Fans a committed block out as `CommitBlock`. Receivers validate blocks
    /// purely through their QCs; the accompanying signature just binds the
    /// relayer identity and is cheapest as the already-known chain digest.
    fn broadcast_commit_block(&mut self, block: Arc<TxBlock>, ctx: &mut Context<Message>) {
        let sig = self.sign(block.header.digest.as_ref());
        ctx.broadcast(self.other_servers(), Message::CommitBlock { block, sig });
    }

    /// Applies one block whose predecessor is already committed. Returns the
    /// stored, chain-linked form (`None` only on a conflicting insert, which
    /// honest paths never produce).
    fn apply_in_order(
        &mut self,
        block: Arc<TxBlock>,
        keys: Digest,
        ctx: &mut Context<Message>,
    ) -> Option<Arc<TxBlock>> {
        let span = LoopProfile::begin(&self.profiler);
        let out = self.apply_in_order_inner(block, keys, ctx);
        LoopProfile::end_sub(&self.profiler, span, LoopStage::Apply);
        out
    }

    fn apply_in_order_inner(
        &mut self,
        block: Arc<TxBlock>,
        keys: Digest,
        ctx: &mut Context<Message>,
    ) -> Option<Arc<TxBlock>> {
        let (n, view, txs) = (block.n, block.view, block.tx.len() as u64);
        // The block is split once into runs of one client's consecutive
        // request numbers, and every per-transaction step below takes a run
        // at a time: record them in the client table as committed (which
        // also marks them seen), and — the execution-layer half of the
        // double-assign defense — detect transactions that already committed
        // in an earlier block (`note_committed_run` names them). Duplicates
        // are marked `status = false` before the block is stored; the rule is
        // a pure function of the committed prefix, so every replica derives
        // the same statuses, and the chain digest (which covers transaction
        // identities, not statuses) is unaffected.
        #[cfg_attr(feature = "canary-double-commit", allow(unused_mut))]
        let mut block = block;
        let runs: Vec<KeyRun> = key_runs(&block.tx, Transaction::key).collect();
        let mut duplicates: Vec<usize> = Vec::new();
        for run in &runs {
            let retired = &mut self.stats.gc_pruned_keys;
            self.clients.note_committed_run(run, retired, |number| {
                duplicates.push(run.index_of(number));
            });
        }
        // Canary mutation (vopr mutation-score gate): without the apply-time
        // dedup a transaction that slips past the pre-ack defenses commits
        // with `status = true` at two sequence numbers.
        #[cfg(not(feature = "canary-double-commit"))]
        if !duplicates.is_empty() {
            let inner = Arc::make_mut(&mut block);
            for i in duplicates {
                if inner.status[i] {
                    inner.status[i] = false;
                    self.stats.duplicate_tx_suppressed += 1;
                }
            }
        }
        #[cfg(feature = "canary-double-commit")]
        drop(duplicates);
        // Log the commit before acting on it: a replica that crashes between
        // here and the insert replays an idempotent record; one that crashed
        // *after* acting without the record would un-commit on restart.
        self.wal_append(prestige_storage::WalRecordRef::Block(block.as_ref()));
        if !self.store.insert_tx_block(block, keys) {
            // Conflicting block at `n` (never on honest paths): the keys
            // recorded above make the client table a harmless superset.
            return None;
        }
        self.stats.committed_blocks += 1;
        self.stats.committed_tx += txs;
        self.stats.last_commit_ms = Some(ctx.now().as_ms());

        // Clear complaint state, ordered-only bits and pending proposals for
        // committed keys. The complaint map is empty in steady state, so its
        // per-key removals are gated on non-emptiness.
        if !self.complaints.is_empty() {
            for key in runs.iter().flat_map(KeyRun::keys) {
                self.complaints.remove(&key);
            }
        }
        for run in &runs {
            self.clients.take_ordered_only(run, |_| {});
        }
        if !self.pending_proposals.is_empty() {
            let clients = &self.clients;
            self.pending_proposals
                .retain(|p| !clients.is_committed(p.tx.key()));
        }
        // The instance's record — its proof, any parked copy, and a leader's
        // open quorum — is spent. A leader may learn of this commit
        // externally (a straggler `CommitBlock` from the previous view racing
        // a re-proposed instance, or sync); its window slot goes with the
        // record.
        self.instances.remove(&n.0);

        // Notify clients: one Notif per client listing its committed keys.
        // The signature covers only the sequence number, so one signing
        // (hoisted out of the loop) serves every client of the block — the
        // deterministic MAC makes this observationally identical to signing
        // per client.
        let by_client = keys_by_client(&runs);
        if !by_client.is_empty() {
            let sig = self.sign(&n.0.to_be_bytes());
            for (client, tx_keys) in by_client {
                ctx.send(
                    Actor::Client(client),
                    Message::Notif {
                        tx_keys,
                        seq: n,
                        view,
                        sig,
                    },
                );
            }
        }

        // Checkpoint interval reached? Sign and exchange state digests.
        self.maybe_emit_checkpoint(n, ctx);
        Some(
            self.store
                .tx_block_shared(n)
                .expect("in-order block was just inserted"),
        )
    }
}

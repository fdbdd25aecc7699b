//! The state machine's block store: committed `txBlock`s and `vcBlock`s.
//!
//! The store is the "state machine" box of Figure 2: replication writes
//! txBlocks, view changes write vcBlocks, and the reputation engine reads both
//! (the penalty history across vcBlocks and the latest committed sequence
//! number). Blocks are chained by digest; digests are computed here so every
//! replica derives identical chain pointers.
//!
//! A txBlock's chain digest is layered on the batch's keys digest
//! ([`prestige_crypto::keys_digest`]), the same value its ordering digest is
//! built on: `hash_many(["txblock", n, prev, keys])`. The store never hashes
//! a block's transactions itself — [`BlockStore::insert_tx_block`] takes the
//! keys digest from its caller, which already computed it to check the
//! block's certificates (or, as leader, to order the batch).

use prestige_crypto::{keys_digest, FramedHasher};
use prestige_types::{Digest, SeqNum, ServerId, Transaction, TxBlock, VcBlock, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The keys digest of a block's body — what a caller that holds no earlier
/// hash of the batch (sync, WAL replay, a straggler) hands
/// [`BlockStore::insert_tx_block`].
pub fn block_keys_digest(block: &TxBlock) -> Digest {
    keys_digest(block.tx.iter().map(Transaction::key))
}

/// Computes the chain digest of the `txBlock` at `n` whose predecessor's
/// digest is `prev` and whose batch has keys digest `keys`.
///
/// The digest deliberately excludes the block's *view*: it identifies the
/// state-machine decision (which transactions occupy which position on which
/// history), not the view that happened to order it. A block committed in
/// view `V` and the same batch re-proposed at the same sequence number by
/// the leader of `V+1` (committed-instance preservation across view changes)
/// must converge to the same chain digest on every replica — per-view
/// uniqueness of the *ordering* is enforced separately by the view-bound
/// ordering/commit QC statements.
pub fn tx_block_digest(n: SeqNum, prev: Digest, keys: &Digest) -> Digest {
    let mut h = FramedHasher::new();
    h.field(b"txblock")
        .field(&n.0.to_be_bytes())
        .field(&prev.0)
        .field(&keys.0);
    h.finish()
}

/// Computes the digest identifying a `vcBlock` (over its view, leader,
/// previous pointer, state-transfer tips, and reputation fragment).
/// Streaming, like [`tx_block_digest`]. The certified tips are covered so a
/// relay cannot rewrite the new leader's state-transfer claim under the
/// leader's adoption signature; the QC payloads themselves are
/// self-certifying and stay outside the digest, like `conf_qc`/`vc_qc`.
pub fn vc_block_digest(block: &VcBlock) -> Digest {
    let mut h = FramedHasher::new();
    h.field(b"vcblock")
        .field(&block.v.0.to_be_bytes())
        .field(&(block.leader_id.0 as u64).to_be_bytes())
        .field(&block.header.prev_digest.0)
        .field(&block.committed_seq.0.to_be_bytes())
        .field(&block.ord_tip.0.to_be_bytes());
    for (id, rp) in &block.rp {
        h.field(&(id.0 as u64).to_be_bytes())
            .field(&rp.to_be_bytes());
    }
    for (id, ci) in &block.ci {
        h.field(&(id.0 as u64).to_be_bytes())
            .field(&ci.to_be_bytes());
    }
    h.finish()
}

/// Per-replica storage of committed blocks.
#[derive(Debug, Clone)]
pub struct BlockStore {
    /// Committed txBlocks, shared so the commit hot path (leader broadcast,
    /// follower apply, sync) never deep-copies a block.
    tx_blocks: BTreeMap<u64, Arc<TxBlock>>,
    vc_blocks: BTreeMap<u64, VcBlock>,
}

impl BlockStore {
    /// Creates a store holding the genesis blocks for a cluster of `n`
    /// servers: `vcBlock[V1]` with every server at `rp = ci = 1`, and the
    /// empty `txBlock[T0]`.
    pub fn new(n: u32) -> Self {
        let mut tx_genesis = TxBlock::genesis();
        tx_genesis.header.digest = tx_block_digest(
            tx_genesis.n,
            tx_genesis.header.prev_digest,
            &block_keys_digest(&tx_genesis),
        );
        let mut vc_genesis = VcBlock::genesis(n);
        vc_genesis.header.digest = vc_block_digest(&vc_genesis);

        let mut tx_blocks = BTreeMap::new();
        tx_blocks.insert(tx_genesis.n.0, Arc::new(tx_genesis));
        let mut vc_blocks = BTreeMap::new();
        vc_blocks.insert(vc_genesis.v.0, vc_genesis);
        BlockStore {
            tx_blocks,
            vc_blocks,
        }
    }

    // ------------------------------------------------------------------
    // Transaction blocks
    // ------------------------------------------------------------------

    /// The latest committed transaction block.
    pub fn latest_tx_block(&self) -> &TxBlock {
        self.tx_blocks
            .values()
            .next_back()
            .expect("store always holds the genesis txBlock")
    }

    /// Shared handle to the committed txBlock at `n`, for zero-copy
    /// re-broadcast (the block is stored behind an `Arc`).
    pub fn tx_block_shared(&self, n: SeqNum) -> Option<Arc<TxBlock>> {
        self.tx_blocks.get(&n.0).map(Arc::clone)
    }

    /// The latest committed sequence number (`ti` in the reputation engine).
    pub fn latest_seq(&self) -> SeqNum {
        self.latest_tx_block().n
    }

    /// The digest of the latest committed txBlock (the PoW puzzle input).
    pub fn latest_tx_digest(&self) -> Digest {
        self.latest_tx_block().header.digest
    }

    /// Inserts a committed txBlock, filling in its chain pointers and digest.
    /// Returns `false` (and stores nothing) if a different block already
    /// occupies that sequence number.
    ///
    /// `keys` is the block's [`block_keys_digest`], supplied by the caller so
    /// the batch is hashed once per node; debug builds re-derive it and
    /// panic on a mismatch.
    ///
    /// Accepts either an owned block or an `Arc`-shared one; a uniquely held
    /// `Arc` (the common case: a block freshly decoded from the wire or
    /// assembled by the leader) is adopted in place without copying.
    pub fn insert_tx_block(&mut self, block: impl Into<Arc<TxBlock>>, keys: Digest) -> bool {
        let mut block = block.into();
        debug_assert_eq!(
            keys,
            block_keys_digest(&block),
            "stale keys digest supplied for txBlock {}",
            block.n.0
        );
        if let Some(existing) = self.tx_blocks.get(&block.n.0) {
            // Compare contents with the chain pointer normalized, so the same
            // block re-delivered (e.g. via sync) is accepted idempotently.
            // Stored blocks always carry their computed digest, so one digest
            // over the candidate suffices.
            return tx_block_digest(block.n, existing.header.prev_digest, &keys)
                == existing.header.digest;
        }
        let prev = self
            .tx_blocks
            .get(&(block.n.0.saturating_sub(1)))
            .map(|b| b.header.digest)
            .unwrap_or(Digest::ZERO);
        let digest = tx_block_digest(block.n, prev, &keys);
        // A block whose header already carries the chain pointers this store
        // would compute (the common case: the leader broadcast its stored,
        // chain-linked form and both replicas share the same chain) is
        // adopted as-is — even a shared Arc costs no copy. Otherwise fill
        // the header, copying only if the Arc is still shared.
        if block.header.prev_digest != prev || block.header.digest != digest {
            let inner = Arc::make_mut(&mut block);
            inner.header.prev_digest = prev;
            inner.header.digest = digest;
        }
        self.tx_blocks.insert(block.n.0, block);
        true
    }

    /// Returns the txBlock at a given sequence number, if committed.
    pub fn tx_block(&self, n: SeqNum) -> Option<&TxBlock> {
        self.tx_blocks.get(&n.0).map(|b| b.as_ref())
    }

    /// Re-roots the chain at a checkpoint: installs a synthetic, empty
    /// txBlock at `n` whose digest is forced to the recorded chain digest, so
    /// a replica replaying a WAL whose prefix was garbage-collected below a
    /// stable checkpoint chains block `n + 1` onto the correct fingerprint
    /// instead of a zero pointer. The synthetic block carries no transactions
    /// and no QCs, so peers that receive it via sync reject it structurally;
    /// it exists only to seed `prev_digest` locally.
    pub fn install_anchor(&mut self, n: SeqNum, digest: Digest) {
        if self.tx_blocks.contains_key(&n.0) {
            return;
        }
        let mut anchor = TxBlock::new(View(0), n, Vec::new());
        anchor.header.prev_digest = Digest::ZERO;
        anchor.header.digest = digest;
        self.tx_blocks.insert(n.0, Arc::new(anchor));
    }

    /// The committed txBlocks in the inclusive range `[from, to]`, none when
    /// `from > to` (cloned lazily: callers ship them over the wire in
    /// `SyncResp` and stop at a response budget).
    pub fn tx_blocks_in(&self, from: u64, to: u64) -> impl Iterator<Item = TxBlock> + '_ {
        let range = self.tx_blocks.range(from..);
        range
            .take_while(move |(n, _)| **n <= to)
            .map(|(_, b)| (**b).clone())
    }

    /// The committed txBlock chain as `(sequence number, digest)` pairs in
    /// sequence order, genesis included. Digests chain each block to its
    /// predecessor, so two replicas agreeing on the digest at sequence `n`
    /// agree on the entire prefix up to `n` — this is the per-replica
    /// fingerprint the adversarial harness compares for fork detection.
    pub fn chain_digests(&self) -> Vec<(u64, Digest)> {
        self.tx_blocks
            .iter()
            .map(|(n, b)| (*n, b.header.digest))
            .collect()
    }

    /// Total number of transactions committed across all txBlocks.
    pub fn committed_tx_count(&self) -> u64 {
        self.tx_blocks.values().map(|b| b.tx.len() as u64).sum()
    }

    /// Number of committed txBlocks (excluding genesis).
    pub fn committed_block_count(&self) -> u64 {
        (self.tx_blocks.len() as u64).saturating_sub(1)
    }

    // ------------------------------------------------------------------
    // View-change blocks
    // ------------------------------------------------------------------

    /// The vcBlock of the highest installed view.
    pub fn latest_vc_block(&self) -> &VcBlock {
        self.vc_blocks
            .values()
            .next_back()
            .expect("store always holds the genesis vcBlock")
    }

    /// The currently installed view.
    pub fn current_view(&self) -> View {
        self.latest_vc_block().v
    }

    /// Inserts a vcBlock, filling in chain pointers and digest. Returns
    /// `false` if a different block is already installed for that view.
    pub fn insert_vc_block(&mut self, mut block: VcBlock) -> bool {
        if let Some(existing) = self.vc_blocks.get(&block.v.0) {
            block.header.prev_digest = existing.header.prev_digest;
            let same = vc_block_digest(existing) == vc_block_digest(&block);
            return same;
        }
        let prev = self
            .vc_blocks
            .range(..block.v.0)
            .next_back()
            .map(|(_, b)| b.header.digest)
            .unwrap_or(Digest::ZERO);
        block.header.prev_digest = prev;
        block.header.digest = vc_block_digest(&block);
        self.vc_blocks.insert(block.v.0, block);
        true
    }

    /// Returns the vcBlock installing `view`, if any.
    pub fn vc_block(&self, view: View) -> Option<&VcBlock> {
        self.vc_blocks.get(&view.0)
    }

    /// The vcBlocks whose view lies in the inclusive range `[from, to]`, none
    /// when `from > to` (cloned lazily, like [`Self::tx_blocks_in`]).
    pub fn vc_blocks_in(&self, from: u64, to: u64) -> impl Iterator<Item = VcBlock> + '_ {
        let range = self.vc_blocks.range(from..);
        range
            .take_while(move |(v, _)| **v <= to)
            .map(|(_, b)| b.clone())
    }

    /// Number of installed vcBlocks (including genesis).
    pub fn vc_block_count(&self) -> u64 {
        self.vc_blocks.len() as u64
    }

    /// Applies a penalty refresh (§4.2.5): overwrite `server`'s rp/ci in the
    /// *current* vcBlock. The refresh is authorized by an `rs_QC` checked by
    /// the caller; it deliberately mutates the live reputation fragment rather
    /// than installing a new block, matching the paper's description.
    pub fn refresh_reputation(&mut self, server: ServerId, rp: i64, ci: u64) {
        if let Some((_, block)) = self.vc_blocks.iter_mut().next_back() {
            block.rp.insert(server, rp);
            block.ci.insert(server, ci);
        }
    }

    // ------------------------------------------------------------------
    // Reputation engine inputs
    // ------------------------------------------------------------------

    /// The penalty history `P` of `server`: its recorded penalty in every
    /// installed vcBlock, ordered by view (Algorithm 1 lines 4–7).
    pub fn penalty_history(&self, server: ServerId) -> Vec<i64> {
        self.vc_blocks.values().map(|b| b.rp_of(server)).collect()
    }

    /// The server's current penalty (from the latest vcBlock).
    pub fn current_rp(&self, server: ServerId) -> i64 {
        self.latest_vc_block().rp_of(server)
    }

    /// The server's current compensation index (from the latest vcBlock).
    pub fn current_ci(&self, server: ServerId) -> u64 {
        self.latest_vc_block().ci_of(server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::{ClientId, Transaction};

    fn batch(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::with_size(ClientId(1), i as u64, 32))
            .collect()
    }

    /// Inserts `block`, hashing its keys the way a sync or replay caller does.
    fn insert(store: &mut BlockStore, block: impl Into<Arc<TxBlock>>) -> bool {
        let block = block.into();
        let keys = block_keys_digest(&block);
        store.insert_tx_block(block, keys)
    }

    fn chain_digest_of(block: &TxBlock) -> Digest {
        tx_block_digest(block.n, block.header.prev_digest, &block_keys_digest(block))
    }

    #[test]
    fn genesis_state() {
        let store = BlockStore::new(4);
        assert_eq!(store.latest_seq(), SeqNum(0));
        assert_eq!(store.current_view(), View(1));
        assert_eq!(store.committed_tx_count(), 0);
        assert_eq!(store.committed_block_count(), 0);
        assert_eq!(store.vc_block_count(), 1);
        assert_eq!(store.penalty_history(ServerId(2)), vec![1]);
        assert_eq!(store.current_rp(ServerId(0)), 1);
        assert_eq!(store.current_ci(ServerId(0)), 1);
    }

    #[test]
    fn tx_blocks_chain_by_digest() {
        let mut store = BlockStore::new(4);
        let genesis_digest = store.latest_tx_digest();
        assert!(insert(
            &mut store,
            TxBlock::new(View(1), SeqNum(1), batch(3))
        ));
        assert!(insert(
            &mut store,
            TxBlock::new(View(1), SeqNum(2), batch(2))
        ));
        let b1 = store.tx_block(SeqNum(1)).unwrap();
        let b2 = store.tx_block(SeqNum(2)).unwrap();
        assert_eq!(b1.header.prev_digest, genesis_digest);
        assert_eq!(b2.header.prev_digest, b1.header.digest);
        assert_eq!(store.latest_seq(), SeqNum(2));
        assert_eq!(store.committed_tx_count(), 5);
        assert_eq!(store.committed_block_count(), 2);
    }

    #[test]
    fn prelinked_shared_block_is_adopted_without_copy() {
        use std::sync::Arc;
        // A follower receiving the leader's stored (chain-linked) block must
        // adopt the shared Arc itself, not a deep copy.
        let mut leader = BlockStore::new(4);
        assert!(insert(
            &mut leader,
            TxBlock::new(View(1), SeqNum(1), batch(3))
        ));
        let broadcast = leader.tx_block_shared(SeqNum(1)).unwrap();

        let mut follower = BlockStore::new(4);
        assert!(insert(&mut follower, Arc::clone(&broadcast)));
        let stored = follower.tx_block_shared(SeqNum(1)).unwrap();
        assert!(
            Arc::ptr_eq(&stored, &broadcast),
            "identical chains must share the broadcast allocation"
        );
    }

    #[test]
    fn conflicting_tx_block_is_rejected_idempotent_accepted() {
        let mut store = BlockStore::new(4);
        let block = TxBlock::new(View(1), SeqNum(1), batch(3));
        assert!(insert(&mut store, block.clone()));
        // Same block again: accepted as idempotent.
        assert!(insert(&mut store, block));
        // A different block at the same sequence number: rejected.
        let conflicting = TxBlock::new(View(2), SeqNum(1), batch(1));
        assert!(!insert(&mut store, conflicting));
        assert_eq!(store.tx_block(SeqNum(1)).unwrap().tx.len(), 3);
    }

    #[test]
    fn vc_blocks_track_views_and_history() {
        let mut store = BlockStore::new(4);
        let genesis = store.latest_vc_block().clone();
        let v2 = genesis.successor(View(2), ServerId(1), 2, 1, None, None);
        assert!(store.insert_vc_block(v2));
        let v5 = store
            .latest_vc_block()
            .successor(View(5), ServerId(1), 5, 1, None, None);
        assert!(store.insert_vc_block(v5));
        assert_eq!(store.current_view(), View(5));
        assert_eq!(store.penalty_history(ServerId(1)), vec![1, 2, 5]);
        assert_eq!(store.penalty_history(ServerId(0)), vec![1, 1, 1]);
        assert_eq!(store.current_rp(ServerId(1)), 5);
        // Chain pointers skip the missing views.
        let b5 = store.vc_block(View(5)).unwrap();
        let b2 = store.vc_block(View(2)).unwrap();
        assert_eq!(b5.header.prev_digest, b2.header.digest);
    }

    #[test]
    fn conflicting_vc_block_is_rejected() {
        let mut store = BlockStore::new(4);
        let genesis = store.latest_vc_block().clone();
        assert!(store.insert_vc_block(genesis.successor(View(2), ServerId(1), 2, 1, None, None)));
        let conflicting = genesis.successor(View(2), ServerId(2), 2, 1, None, None);
        assert!(!store.insert_vc_block(conflicting));
        assert_eq!(store.vc_block(View(2)).unwrap().leader_id, ServerId(1));
    }

    #[test]
    fn chain_digests_fingerprint_the_committed_log() {
        let mut a = BlockStore::new(4);
        let mut b = BlockStore::new(4);
        for n in 1..=3u64 {
            insert(&mut a, TxBlock::new(View(1), SeqNum(n), batch(2)));
            insert(&mut b, TxBlock::new(View(1), SeqNum(n), batch(2)));
        }
        assert_eq!(a.chain_digests(), b.chain_digests());
        assert_eq!(a.chain_digests().len(), 4, "genesis + 3 blocks");
        assert_eq!(a.chain_digests()[0].0, 0);

        // A divergent block at the same height yields a different digest.
        let mut c = BlockStore::new(4);
        insert(&mut c, TxBlock::new(View(1), SeqNum(1), batch(2)));
        insert(&mut c, TxBlock::new(View(2), SeqNum(2), batch(1)));
        assert_ne!(a.chain_digests()[2].1, c.chain_digests()[2].1);
    }

    #[test]
    fn range_queries() {
        let mut store = BlockStore::new(4);
        for n in 1..=5u64 {
            insert(&mut store, TxBlock::new(View(1), SeqNum(n), batch(1)));
        }
        assert_eq!(store.tx_blocks_in(2, 4).count(), 3);
        assert_eq!(store.tx_blocks_in(4, 2).count(), 0);
        assert_eq!(store.vc_blocks_in(1, 10).count(), 1);
    }

    #[test]
    fn digests_depend_on_contents() {
        let a = TxBlock::new(View(1), SeqNum(1), batch(2));
        let b = TxBlock::new(View(1), SeqNum(2), batch(2));
        assert_ne!(chain_digest_of(&a), chain_digest_of(&b));

        let va = VcBlock::genesis(4);
        let vb = va.successor(View(2), ServerId(0), 2, 1, None, None);
        assert_ne!(vc_block_digest(&va), vc_block_digest(&vb));
    }
}

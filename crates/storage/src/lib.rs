//! # prestige-storage
//!
//! The durable storage plane of PrestigeBFT: an append-only, CRC-chained
//! write-ahead log (WAL) behind a [`Storage`] seam.
//!
//! Every record appended to the log carries a CRC32C over itself and, as
//! its link, the CRC of the record before it, both checked on open: a torn
//! tail — an incomplete or corrupted final record, the signature of a crash
//! mid-append — is truncated away, while a broken chain anywhere earlier is
//! a hard error (the disk lied, and replaying past the lie could fork this
//! replica against the cluster). The checks carry no key, so they catch
//! accidents, not someone who can write the disk. The log is split
//! into segment files so checkpoint-driven garbage collection can drop whole
//! prefixes of history, and fsyncs are batched (`sync_every_n` /
//! `sync_interval_ms`) so durability costs a bounded, measured amount of
//! throughput instead of one fsync per record.
//!
//! The consensus core (`prestige-core`) writes five typed records through
//! the seam — committed transaction blocks, ordering QCs of commit-signed
//! instances, installed view-change blocks, stable checkpoint certificates,
//! and election votes — and replays them back into its block store, proof
//! state and vote record on restart. The seam is a trait so the
//! deterministic simulator can run with no storage attached (or with
//! [`MemStorage`], the in-memory test double) while the real runtime
//! attaches a [`Wal`].

#![warn(missing_docs)]

mod crc32c;
mod wal;

pub use wal::{tear_tail, Wal, WalError, WalOptions};

use prestige_types::{PartialSig, QuorumCertificate, ServerId, TxBlock, VcBlock, View};
use serde::Serialize as _;

/// A decoded WAL record: the durable events a replica must survive a
/// `kill -9` with.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed transaction block (QCs included): appended *before* the
    /// commit is acted on, so a restarted replica never un-commits.
    Block(TxBlock),
    /// The ordering QC of an instance this replica commit-signed: restoring
    /// it keeps the election criterion C3 sound across a crash (a commit
    /// share this replica contributed must keep refusing candidates that
    /// cannot cover the instance).
    OrdQc(QuorumCertificate),
    /// An installed view-change block (view history and reputation state).
    ViewInstall(VcBlock),
    /// A stable checkpoint: the quorum-signed state-digest certificate plus
    /// the committed-chain digest at the checkpoint height. The certificate
    /// is the GC anchor that lets everything below it be pruned; the chain
    /// digest lets a replica replaying a GC'd log re-root its block chain at
    /// the checkpoint (the pruned prefix is gone, but its fingerprint is
    /// not). The `chain` field is covered by the record's CRC, which
    /// catches a flipped bit but not a deliberate edit.
    Checkpoint {
        /// The quorum-signed checkpoint certificate.
        cert: QuorumCertificate,
        /// Digest of the committed txBlock chain at `cert.seq`.
        chain: prestige_types::Digest,
    },
    /// The election vote this replica cast in `view` (criterion C1),
    /// appended before the vote leaves: a replica restarted mid-election
    /// must not vote for a second candidate in the same view.
    Vote {
        /// The view voted in.
        view: View,
        /// The candidate voted for (this replica itself for its own campaign).
        candidate: ServerId,
        /// The vote share, re-sent verbatim to the same candidate.
        share: PartialSig,
    },
}

/// A borrowed view of a [`WalRecord`], so the hot commit path can append
/// straight from its shared block handles without cloning a batch of
/// transactions per record.
#[derive(Debug, Clone, Copy)]
pub enum WalRecordRef<'a> {
    /// See [`WalRecord::Block`].
    Block(&'a TxBlock),
    /// See [`WalRecord::OrdQc`].
    OrdQc(&'a QuorumCertificate),
    /// See [`WalRecord::ViewInstall`].
    ViewInstall(&'a VcBlock),
    /// See [`WalRecord::Checkpoint`].
    Checkpoint {
        /// The quorum-signed checkpoint certificate.
        cert: &'a QuorumCertificate,
        /// Digest of the committed txBlock chain at `cert.seq`.
        chain: prestige_types::Digest,
    },
    /// See [`WalRecord::Vote`].
    Vote {
        /// The view voted in.
        view: View,
        /// The candidate voted for.
        candidate: ServerId,
        /// The vote share.
        share: &'a PartialSig,
    },
}

impl WalRecordRef<'_> {
    /// The one-byte record tag leading the payload encoding.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            WalRecordRef::Block(_) => 1,
            WalRecordRef::OrdQc(_) => 2,
            WalRecordRef::ViewInstall(_) => 3,
            WalRecordRef::Checkpoint { .. } => 4,
            WalRecordRef::Vote { .. } => 5,
        }
    }

    /// Appends the record payload, `[tag] ++ bincode(inner)`, to `out`,
    /// serializing straight into it.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            WalRecordRef::Block(b) => b.serialize(out),
            WalRecordRef::OrdQc(qc) => qc.serialize(out),
            WalRecordRef::ViewInstall(b) => b.serialize(out),
            WalRecordRef::Checkpoint { cert, chain } => (cert, chain).serialize(out),
            WalRecordRef::Vote {
                view,
                candidate,
                share,
            } => (view, candidate, share).serialize(out),
        }
    }

    /// The committed-block sequence number this record pins (used for
    /// segment-level GC eligibility), if any.
    pub(crate) fn gc_seq(&self) -> Option<u64> {
        match self {
            WalRecordRef::Block(b) => Some(b.n.0),
            WalRecordRef::OrdQc(qc) => Some(qc.seq.0),
            WalRecordRef::Checkpoint { cert, .. } => Some(cert.seq.0),
            WalRecordRef::ViewInstall(_) | WalRecordRef::Vote { .. } => None,
        }
    }

    /// Whether the record keeps its whole segment from GC: view installs
    /// (replay rebuilds view history and the reputation state from them)
    /// and votes (a vote binds its view however far commits move on).
    pub(crate) fn pins_segment(&self) -> bool {
        matches!(
            self,
            WalRecordRef::ViewInstall(_) | WalRecordRef::Vote { .. }
        )
    }

    /// Clones into the owned form.
    pub fn to_record(&self) -> WalRecord {
        match self {
            WalRecordRef::Block(b) => WalRecord::Block((*b).clone()),
            WalRecordRef::OrdQc(qc) => WalRecord::OrdQc((*qc).clone()),
            WalRecordRef::ViewInstall(b) => WalRecord::ViewInstall((*b).clone()),
            WalRecordRef::Checkpoint { cert, chain } => WalRecord::Checkpoint {
                cert: (*cert).clone(),
                chain: *chain,
            },
            WalRecordRef::Vote {
                view,
                candidate,
                share,
            } => WalRecord::Vote {
                view: *view,
                candidate: *candidate,
                share: (*share).clone(),
            },
        }
    }
}

impl WalRecord {
    /// Borrows as a [`WalRecordRef`] (for re-encoding).
    pub fn as_ref(&self) -> WalRecordRef<'_> {
        match self {
            WalRecord::Block(b) => WalRecordRef::Block(b),
            WalRecord::OrdQc(qc) => WalRecordRef::OrdQc(qc),
            WalRecord::ViewInstall(b) => WalRecordRef::ViewInstall(b),
            WalRecord::Checkpoint { cert, chain } => WalRecordRef::Checkpoint {
                cert,
                chain: *chain,
            },
            WalRecord::Vote {
                view,
                candidate,
                share,
            } => WalRecordRef::Vote {
                view: *view,
                candidate: *candidate,
                share,
            },
        }
    }

    /// Decodes a record from its `[tag] ++ bincode(inner)` payload.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, body) = payload.split_first()?;
        match tag {
            1 => bincode::deserialize(body).ok().map(WalRecord::Block),
            2 => bincode::deserialize(body).ok().map(WalRecord::OrdQc),
            3 => bincode::deserialize(body).ok().map(WalRecord::ViewInstall),
            4 => bincode::deserialize(body)
                .ok()
                .map(|(cert, chain)| WalRecord::Checkpoint { cert, chain }),
            5 => bincode::deserialize(body)
                .ok()
                .map(|(view, candidate, share)| WalRecord::Vote {
                    view,
                    candidate,
                    share,
                }),
            _ => None,
        }
    }
}

/// Counters exported by a [`Storage`] implementation, surfaced in the
/// `chaos_net` and repo-benchmark reports so the durability cost is a
/// measured number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes currently on disk across live WAL segments.
    pub wal_bytes: u64,
    /// Records appended since open.
    pub records: u64,
    /// fsync calls issued (batched by `sync_every_n` / `sync_interval_ms`).
    pub fsyncs: u64,
    /// Live segment files.
    pub segments: u64,
    /// Segment files removed by checkpoint-driven GC.
    pub pruned_segments: u64,
    /// Bytes reclaimed by checkpoint-driven GC.
    pub pruned_bytes: u64,
}

/// The storage seam the consensus core writes through. Implementations:
/// [`Wal`] (real segment files) and [`MemStorage`] (test double).
pub trait Storage: Send {
    /// Appends one record to the log. Durability is batched: the record is
    /// on the OS page cache immediately and fsynced within the configured
    /// batching window.
    fn append(&mut self, record: WalRecordRef<'_>) -> std::io::Result<()>;

    /// Forces everything appended so far to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;

    /// Drops log history at or below the stable checkpoint `stable_seq`
    /// (whole segments only — the active tail always survives). Returns the
    /// number of bytes reclaimed.
    fn prune_below(&mut self, stable_seq: u64) -> std::io::Result<u64>;

    /// Current counters.
    fn stats(&self) -> StorageStats;
}

/// In-memory [`Storage`] double for unit tests and the deterministic
/// simulator: records every append so tests can assert exactly what the
/// consensus core wrote, without touching a filesystem.
#[derive(Debug, Default)]
pub struct MemStorage {
    /// Every record appended, in order (prune keeps them — tests want the
    /// full history).
    pub records: Vec<WalRecord>,
    stats: StorageStats,
}

impl MemStorage {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemStorage {
    fn append(&mut self, record: WalRecordRef<'_>) -> std::io::Result<()> {
        self.stats.records += 1;
        let mut payload = Vec::new();
        record.encode_into(&mut payload);
        self.stats.wal_bytes += (wal::FRAME_HEADER + payload.len()) as u64;
        self.records.push(record.to_record());
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.stats.fsyncs += 1;
        Ok(())
    }

    fn prune_below(&mut self, _stable_seq: u64) -> std::io::Result<u64> {
        Ok(0)
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

/// A clone-able handle to a [`MemStorage`] that outlives the process it is
/// attached to. The deterministic falsification harness (`prestige-vopr`)
/// attaches one handle per simulated server; when it crash-restarts a server
/// it keeps the log, optionally tears records off the tail (modelling the
/// torn final record a real crash leaves — the on-disk [`Wal`] truncates
/// those on open, so replay simply never sees them), snapshots the survivors
/// for `replay_wal`, and re-attaches a clone to the successor.
///
/// All methods take the lock for the duration of one call; the simulator is
/// single-threaded, so the mutex is only there to satisfy `Storage: Send`
/// soundly.
#[derive(Debug, Clone, Default)]
pub struct SharedMemStorage {
    inner: std::sync::Arc<std::sync::Mutex<MemStorage>>,
}

impl SharedMemStorage {
    /// Creates an empty shared in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every surviving record, in append order — the input to
    /// `replay_wal` on restart.
    pub fn records_snapshot(&self) -> Vec<WalRecord> {
        self.inner.lock().expect("storage lock").records.clone()
    }

    /// Number of records currently in the log.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("storage lock").records.len()
    }

    /// True if nothing has been appended (or everything was torn off).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tears the last `n` records off the log — deterministic torn-tail
    /// injection. Returns how many records were actually removed.
    pub fn truncate_tail(&self, n: usize) -> usize {
        let mut inner = self.inner.lock().expect("storage lock");
        let keep = inner.records.len().saturating_sub(n);
        let torn = inner.records.len() - keep;
        inner.records.truncate(keep);
        torn
    }
}

impl Storage for SharedMemStorage {
    fn append(&mut self, record: WalRecordRef<'_>) -> std::io::Result<()> {
        self.inner.lock().expect("storage lock").append(record)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.lock().expect("storage lock").sync()
    }

    fn prune_below(&mut self, stable_seq: u64) -> std::io::Result<u64> {
        self.inner
            .lock()
            .expect("storage lock")
            .prune_below(stable_seq)
    }

    fn stats(&self) -> StorageStats {
        self.inner.lock().expect("storage lock").stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::{ClientId, SeqNum, Transaction, View};

    #[test]
    fn record_payloads_round_trip() {
        let block = TxBlock::new(
            View(3),
            SeqNum(7),
            vec![Transaction::with_size(ClientId(1), 9, 16)],
        );
        let rec = WalRecord::Block(block);
        let mut payload = Vec::new();
        rec.as_ref().encode_into(&mut payload);
        assert_eq!(WalRecord::decode(&payload), Some(rec));
    }

    #[test]
    fn unknown_tags_fail_to_decode() {
        assert_eq!(WalRecord::decode(&[9, 0, 0]), None);
        assert_eq!(WalRecord::decode(&[]), None);
    }

    #[test]
    fn shared_mem_storage_survives_its_owner_and_tears_tails() {
        let handle = SharedMemStorage::new();
        {
            let mut attached = handle.clone();
            for n in 1..=4u64 {
                let block = TxBlock::new(View(1), SeqNum(n), Vec::new());
                attached.append(WalRecordRef::Block(&block)).unwrap();
            }
            // `attached` drops here — the process crashed.
        }
        assert_eq!(handle.len(), 4);
        assert_eq!(handle.truncate_tail(1), 1);
        let survivors = handle.records_snapshot();
        assert_eq!(survivors.len(), 3);
        assert!(
            matches!(survivors.last(), Some(WalRecord::Block(b)) if b.n == SeqNum(3)),
            "tail record should be the block at seq 3 after tearing one off"
        );
        // Tearing more than exists is clamped, not a panic.
        assert_eq!(handle.truncate_tail(10), 3);
        assert!(handle.is_empty());
    }

    #[test]
    fn mem_storage_records_appends() {
        let mut mem = MemStorage::new();
        let block = TxBlock::new(View(1), SeqNum(1), Vec::new());
        mem.append(WalRecordRef::Block(&block)).unwrap();
        mem.sync().unwrap();
        assert_eq!(mem.records.len(), 1);
        assert_eq!(mem.stats().records, 1);
        assert_eq!(mem.stats().fsyncs, 1);
    }
}

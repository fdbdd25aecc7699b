//! The segment-file write-ahead log.
//!
//! ## On-disk format
//!
//! A log directory holds segment files named `wal-<index>.seg`, written and
//! read strictly in index order. Each segment is a run of framed records:
//!
//! ```text
//! ┌──────────────┬──────────────┬─────────────┬─────────────────────────┐
//! │ len: u32 LE  │ link: u32 LE │ crc: u32 LE │ payload: [u8; len - 8]  │
//! └──────────────┴──────────────┴─────────────┴─────────────────────────┘
//!       len = 8 + payload.len()
//!       link = crc of the previous record                (the chain)
//!       crc = CRC32C(len ‖ link ‖ payload)               (self-check)
//!       payload = [record tag: u8] ++ bincode(record body)
//! ```
//!
//! An append encodes in place: the record is serialized straight into one
//! reused frame buffer behind a 12-byte placeholder, the CRC is taken where
//! the bytes lie, and the header is patched before the single `write_all`.
//!
//! Every record checks itself with its `crc`, and its `link` chains it to
//! its predecessor across segment boundaries, so a reordered, dropped or
//! spliced-in record shows as well as a flipped bit. On open every record
//! is re-checked:
//!
//! * an incomplete record, or one failing either check, *at the very end of
//!   the last segment* is a **torn tail** — the crash signature — and is
//!   truncated;
//! * any earlier failure is a **broken chain** — corruption or tampering —
//!   and is a hard error: replaying past it could fork this replica.
//!
//! The first record after any gap in segment indices — the oldest surviving
//! segment of a pruned log, and every segment whose predecessor was pruned
//! while an older view-install segment was kept — anchors the chain: its
//! `link` names a record checkpoint GC deleted, so it is adopted unchecked,
//! while its `crc` is checked like every other record's (the quorum-signed
//! checkpoint certificate is the semantic trust anchor for everything below
//! it).
//!
//! Neither check has a key: anyone who can write the directory can
//! recompute both. They detect accidents — torn writes, flipped bits,
//! misplaced files — not an adversary with the disk.
//!
//! Until this format, each frame carried the SHA-256 of the previous
//! record's digest and the payload (`len | digest: [u8; 32] | payload`). A
//! directory in that format is refused with [`WalError::Format`] and left
//! untouched; start the replica on an empty directory.

use crate::crc32c::crc32c;
use crate::{Storage, StorageStats, WalRecord, WalRecordRef};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Knobs of the [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a new segment file once the active one reaches this size.
    pub segment_bytes: u64,
    /// fsync after at most this many unsynced appends.
    pub sync_every_n: u64,
    /// fsync after at most this many milliseconds with unsynced appends.
    pub sync_interval_ms: f64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            sync_every_n: 64,
            sync_interval_ms: 5.0,
        }
    }
}

/// Why a WAL could not be opened.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A record before the tail failed its chain check: corruption the log
    /// must not be replayed past.
    BrokenChain {
        /// Segment index of the offending record.
        segment: u64,
        /// Byte offset of the record inside the segment.
        offset: u64,
    },
    /// A chain-valid record whose payload does not decode to a known record
    /// type — same severity as a broken chain.
    Decode {
        /// Segment index of the offending record.
        segment: u64,
        /// Byte offset of the record inside the segment.
        offset: u64,
    },
    /// The log was written in the earlier SHA-256-chained frame format
    /// (`len | digest: [u8; 32] | payload`), which this build does not
    /// read. Nothing was changed on disk.
    Format {
        /// Segment index of the first record, the one that was recognised.
        segment: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BrokenChain { segment, offset } => {
                write!(
                    f,
                    "wal chain broken in segment {segment} at offset {offset}"
                )
            }
            WalError::Decode { segment, offset } => {
                write!(
                    f,
                    "undecodable wal record in segment {segment} at offset {offset}"
                )
            }
            WalError::Format { segment } => write!(
                f,
                "wal segment {segment} is in the SHA-256-chained format \
                 (len | 32-byte digest | payload) that CRC32C framing replaced; \
                 start this replica on an empty directory"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Per-segment bookkeeping for GC eligibility.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentMeta {
    bytes: u64,
    /// Highest sequence number pinned by any record in the segment.
    max_seq: u64,
    /// Segments holding a view install or a vote are never pruned
    /// (`WalRecordRef::pins_segment`).
    keep: bool,
}

/// The real, segment-file write-ahead log. See the module docs for the
/// format and recovery rules.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    active_index: u64,
    /// `crc` of the most recent record: the next record's `link`.
    chain: u32,
    segments: BTreeMap<u64, SegmentMeta>,
    unsynced: u64,
    last_sync: Instant,
    stats: StorageStats,
    /// The frame being appended, reused across appends.
    frame: Vec<u8>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:010}.seg"))
}

/// The indices of the segment files in `dir`, ascending.
fn segment_indices(dir: &Path) -> std::io::Result<Vec<u64>> {
    let index = |name: &str| -> Option<u64> {
        name.strip_prefix("wal-")?
            .strip_suffix(".seg")?
            .parse()
            .ok()
    };
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        indices.extend(entry?.file_name().to_str().and_then(index));
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Crash injection for a log nobody has open: cuts the newest segment of
/// the log in `dir` in the middle of the `records`-th frame from its end —
/// what a power cut during that append leaves on disk. The next
/// [`Wal::open`] truncates the torn frame and everything after it, so
/// exactly `records` records are lost. Returns how many records were
/// actually torn (fewer when the newest segment holds fewer; a tear never
/// crosses a segment boundary).
pub fn tear_tail(dir: &Path, records: usize) -> std::io::Result<usize> {
    let Some(&newest) = segment_indices(dir)?.last() else {
        return Ok(0);
    };
    let path = segment_path(dir, newest);
    let bytes = std::fs::read(&path)?;
    // Frame boundaries by length prefix alone (the log was closed by a
    // crash, so a frame that does not fit ends the walk).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut offset = 0usize;
    while let Some(prefix) = bytes.get(offset..offset + 4) {
        let len = 4 + u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
        if offset + len > bytes.len() {
            break;
        }
        frames.push((offset, len));
        offset += len;
    }
    let torn = records.min(frames.len());
    if torn > 0 {
        let (start, len) = frames[frames.len() - torn];
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len((start + len / 2) as u64)?;
        file.sync_all()?;
    }
    Ok(torn)
}

/// Bytes ahead of a record's payload: the `u32` length, link and crc.
pub(crate) const FRAME_HEADER: usize = 4 + 4 + 4;

/// A frame's `crc`: CRC32C over its length and link words and its payload
/// (`head` is the frame's first eight bytes).
fn frame_crc(head: &[u8], payload: &[u8]) -> u32 {
    crc32c(&[head, payload])
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Whether `frame` (a whole frame, length prefix included) reads as a
/// record of the earlier SHA-256-chained format: `len | digest | payload`
/// with a payload that decodes exactly. A CRC-framed record that failed its
/// own check almost never does — its "payload" would start 24 bytes into
/// its real one.
fn is_sha256_frame(frame: &[u8]) -> bool {
    frame.len() > 4 + 32 && WalRecord::decode(&frame[4 + 32..]).is_some()
}

impl Wal {
    /// Opens (or creates) the log in `dir`, checking every record and the
    /// chain between them and truncating a torn tail. Returns the log handle
    /// plus every surviving record in append order, ready to be replayed
    /// into server state.
    pub fn open(dir: &Path, opts: WalOptions) -> Result<(Wal, Vec<WalRecord>), WalError> {
        std::fs::create_dir_all(dir)?;
        let indices = segment_indices(dir)?;

        let mut records = Vec::new();
        let mut segments: BTreeMap<u64, SegmentMeta> = BTreeMap::new();
        let mut chain = 0u32;
        // A gap in segment indices is history checkpoint GC deleted — before
        // the oldest surviving segment, or between a kept view-install
        // segment and its pruned successors. The first record after a gap
        // links to a record that is gone: its link is adopted unchecked (its
        // crc still is); an intact log (0, 1, 2, …) links from zero
        // throughout.
        let mut anchored = false;
        let mut next_index = 0u64;
        let mut wal_bytes = 0u64;
        let last_index = indices.last().copied();

        for &index in &indices {
            anchored |= index != next_index;
            next_index = index + 1;
            let path = segment_path(dir, index);
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let is_last = Some(index) == last_index;
            let mut meta = SegmentMeta::default();
            let mut offset = 0usize;
            loop {
                let rest = &bytes[offset..];
                if rest.is_empty() {
                    break;
                }
                // A record failing any check here is either the torn tail
                // (only allowed at the end of the last segment) or a hard
                // error.
                let tear = |off: u64| -> Result<(), WalError> {
                    if is_last {
                        Ok(())
                    } else {
                        Err(WalError::BrokenChain {
                            segment: index,
                            offset: off,
                        })
                    }
                };
                if rest.len() < 4 {
                    tear(offset as u64)?;
                    break;
                }
                let len = u32_at(rest, 0) as usize;
                // A payload holds at least its tag byte.
                if len <= FRAME_HEADER - 4 || rest.len() < 4 + len {
                    tear(offset as u64)?;
                    break;
                }
                let frame = &rest[..4 + len];
                let payload = &frame[FRAME_HEADER..];
                let crc = u32_at(frame, 8);
                let is_final_record = is_last && bytes.len() == offset + frame.len();
                if frame_crc(&frame[..8], payload) != crc
                    || (!anchored && u32_at(frame, 4) != chain)
                {
                    if records.is_empty() && is_sha256_frame(frame) {
                        return Err(WalError::Format { segment: index });
                    }
                    // A failing *final* record of the last segment is a
                    // torn/corrupted tail; anywhere else the chain is broken.
                    if is_final_record {
                        break;
                    }
                    return Err(WalError::BrokenChain {
                        segment: index,
                        offset: offset as u64,
                    });
                }
                let Some(record) = WalRecord::decode(payload) else {
                    if is_final_record {
                        break;
                    }
                    return Err(WalError::Decode {
                        segment: index,
                        offset: offset as u64,
                    });
                };
                anchored = false;
                chain = crc;
                let r = record.as_ref();
                if let Some(seq) = r.gc_seq() {
                    meta.max_seq = meta.max_seq.max(seq);
                }
                if r.pins_segment() {
                    meta.keep = true;
                }
                records.push(record);
                offset += frame.len();
            }
            if offset < bytes.len() {
                // Torn tail: cut the file back to the last good record so
                // future appends continue the chain cleanly.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(offset as u64)?;
                f.sync_all()?;
            }
            meta.bytes = offset as u64;
            wal_bytes += meta.bytes;
            segments.insert(index, meta);
        }

        let active_index = last_index.unwrap_or(0);
        segments.entry(active_index).or_default();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, active_index))?;
        let stats = StorageStats {
            wal_bytes,
            records: records.len() as u64,
            segments: segments.len() as u64,
            ..StorageStats::default()
        };
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                opts,
                file,
                active_index,
                chain,
                segments,
                unsynced: 0,
                last_sync: Instant::now(),
                stats,
                frame: Vec::new(),
            },
            records,
        ))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        self.file.sync_all()?;
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        self.active_index += 1;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, self.active_index))?;
        self.segments
            .insert(self.active_index, SegmentMeta::default());
        self.stats.segments = self.segments.len() as u64;
        Ok(())
    }

    fn maybe_sync(&mut self) -> std::io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        if self.unsynced >= self.opts.sync_every_n
            || self.last_sync.elapsed().as_secs_f64() * 1e3 >= self.opts.sync_interval_ms
        {
            self.sync()?;
        }
        Ok(())
    }
}

impl Storage for Wal {
    fn append(&mut self, record: WalRecordRef<'_>) -> std::io::Result<()> {
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0u8; FRAME_HEADER]);
        record.encode_into(frame);
        let len = u32::try_from(frame.len() - 4).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "wal record longer than a u32 length prefix",
            )
        })?;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&self.chain.to_le_bytes());
        let crc = frame_crc(&frame[..8], &frame[FRAME_HEADER..]);
        frame[8..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(frame)?;
        let frame_len = frame.len() as u64;
        self.chain = crc;
        self.unsynced += 1;
        self.stats.records += 1;
        self.stats.wal_bytes += frame_len;
        let meta = self
            .segments
            .get_mut(&self.active_index)
            .expect("active segment is tracked");
        meta.bytes += frame_len;
        if let Some(seq) = record.gc_seq() {
            meta.max_seq = meta.max_seq.max(seq);
        }
        if record.pins_segment() {
            meta.keep = true;
        }
        if meta.bytes >= self.opts.segment_bytes {
            self.rotate()?;
        }
        self.maybe_sync()?;
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn prune_below(&mut self, stable_seq: u64) -> std::io::Result<u64> {
        let prunable: Vec<u64> = self
            .segments
            .iter()
            .filter(|(ix, meta)| {
                **ix != self.active_index && !meta.keep && meta.max_seq <= stable_seq
            })
            .map(|(ix, _)| *ix)
            .collect();
        let mut reclaimed = 0u64;
        for ix in prunable {
            let meta = self.segments.remove(&ix).expect("listed");
            std::fs::remove_file(segment_path(&self.dir, ix))?;
            reclaimed += meta.bytes;
            self.stats.pruned_segments += 1;
        }
        self.stats.pruned_bytes += reclaimed;
        self.stats.wal_bytes = self.stats.wal_bytes.saturating_sub(reclaimed);
        self.stats.segments = self.segments.len() as u64;
        Ok(reclaimed)
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

/// Closing the log forces its unsynced appends to disk, so every host's
/// shutdown keeps its last batch. A failure has nowhere to go and is
/// ignored: the disk then holds what a crash at this point would leave.
impl Drop for Wal {
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalRecord;
    use prestige_types::{ClientId, SeqNum, Transaction, TxBlock, View};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("prestige-wal-{}-{}-{}", std::process::id(), tag, n));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn block(n: u64) -> TxBlock {
        TxBlock::new(
            View(1),
            SeqNum(n),
            vec![Transaction::with_size(ClientId(1), n, 24)],
        )
    }

    fn tiny_opts() -> WalOptions {
        WalOptions {
            segment_bytes: 256,
            sync_every_n: 4,
            sync_interval_ms: 1000.0,
        }
    }

    #[test]
    fn append_reopen_replays_identically() {
        let dir = temp_dir("replay");
        let mut written = Vec::new();
        {
            let (mut wal, existing) = Wal::open(&dir, tiny_opts()).unwrap();
            assert!(existing.is_empty());
            for n in 1..=20u64 {
                let b = block(n);
                wal.append(WalRecordRef::Block(&b)).unwrap();
                written.push(WalRecord::Block(b));
            }
            wal.sync().unwrap();
            assert!(wal.stats().segments > 1, "tiny segments must rotate");
        }
        let (wal, replayed) = Wal::open(&dir, tiny_opts()).unwrap();
        assert_eq!(replayed, written);
        assert_eq!(wal.stats().records, 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = temp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, tiny_opts()).unwrap();
            for n in 1..=3u64 {
                wal.append(WalRecordRef::Block(&block(n))).unwrap();
            }
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the last segment.
        let last = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .max()
            .unwrap();
        let len = std::fs::metadata(&last).unwrap().len();
        let f = OpenOptions::new().write(true).open(&last).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let (mut wal, replayed) = Wal::open(&dir, tiny_opts()).unwrap();
        let seqs: Vec<u64> = replayed
            .iter()
            .map(|r| match r {
                WalRecord::Block(b) => b.n.0,
                _ => panic!("only blocks were written"),
            })
            .collect();
        assert!(
            seqs.len() < 3 && seqs.iter().zip(1u64..).all(|(a, b)| *a == b),
            "the torn record is dropped, the good prefix survives: {seqs:?}"
        );
        // The log stays appendable and chains correctly across the repair.
        let next = seqs.len() as u64 + 1;
        wal.append(WalRecordRef::Block(&block(next))).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replayed2) = Wal::open(&dir, tiny_opts()).unwrap();
        assert_eq!(replayed2.len(), seqs.len() + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_tail_loses_exactly_the_records_asked_for() {
        let dir = temp_dir("tear");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for n in 1..=5u64 {
                wal.append(WalRecordRef::Block(&block(n))).unwrap();
            }
            wal.sync().unwrap();
        }
        assert_eq!(tear_tail(&dir, 1).unwrap(), 1);
        let (mut wal, replayed) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(replayed.len(), 4, "exactly one record is torn off");
        assert!(matches!(replayed.last(), Some(WalRecord::Block(b)) if b.n.0 == 4));
        // The log stays appendable and chains correctly across the repair.
        wal.append(WalRecordRef::Block(&block(5))).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(tear_tail(&dir, 2).unwrap(), 2);
        let (_, replayed) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(replayed.len(), 3);
        // More than the segment holds is clamped; an empty log tears nothing.
        assert_eq!(tear_tail(&dir, 99).unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(tear_tail(&dir, 1).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let dir = temp_dir("corrupt");
        {
            let (mut wal, _) = Wal::open(&dir, tiny_opts()).unwrap();
            for n in 1..=12u64 {
                wal.append(WalRecordRef::Block(&block(n))).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.stats().segments > 1);
        }
        // Flip a payload byte in the FIRST segment (not the tail).
        let first = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .min()
            .unwrap();
        let mut bytes = std::fs::read(&first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&first, bytes).unwrap();

        match Wal::open(&dir, tiny_opts()) {
            Err(WalError::BrokenChain { .. }) | Err(WalError::Decode { .. }) => {}
            Err(e) => panic!("corruption must be a chain error, got {e}"),
            Ok(_) => panic!("corruption must be a hard error, but the log opened"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The record a GC gap leaves first has no predecessor to link to, but
    /// it still checks itself: a flipped byte in it is a hard error, not a
    /// silently replayed block.
    #[test]
    fn the_anchor_after_a_gap_checks_its_own_bytes() {
        let dir = temp_dir("anchor");
        {
            let (mut wal, _) = Wal::open(&dir, tiny_opts()).unwrap();
            for n in 1..=30u64 {
                wal.append(WalRecordRef::Block(&block(n))).unwrap();
            }
            assert!(wal.prune_below(25).unwrap() > 0);
            wal.sync().unwrap();
        }
        let indices = segment_indices(&dir).unwrap();
        assert!(indices.len() > 1 && indices[0] > 0, "{indices:?}");
        // The anchor is the first record of the oldest surviving segment,
        // which is not the last: the byte sits in the block header's parent
        // digest, so the flipped record still decodes.
        let oldest = segment_path(&dir, indices[0]);
        let mut bytes = std::fs::read(&oldest).unwrap();
        bytes[FRAME_HEADER + 1] ^= 0x01;
        std::fs::write(&oldest, bytes).unwrap();

        assert!(matches!(
            Wal::open(&dir, tiny_opts()),
            Err(WalError::BrokenChain { segment, offset: 0 }) if segment == indices[0]
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two whole, individually intact frames swapped inside a non-final
    /// segment: each passes its own CRC, so only the links catch it.
    #[test]
    fn swapped_frames_break_the_chain() {
        let dir = temp_dir("swap");
        {
            let (mut wal, _) = Wal::open(&dir, tiny_opts()).unwrap();
            for n in 1..=12u64 {
                wal.append(WalRecordRef::Block(&block(n))).unwrap();
            }
            wal.sync().unwrap();
        }
        let indices = segment_indices(&dir).unwrap();
        assert!(indices.len() > 2, "{indices:?}");
        let middle = segment_path(&dir, indices[1]);
        let bytes = std::fs::read(&middle).unwrap();
        let first = 4 + u32_at(&bytes, 0) as usize;
        let second = 4 + u32_at(&bytes, first) as usize;
        let mut swapped = bytes[first..first + second].to_vec();
        swapped.extend_from_slice(&bytes[..first]);
        swapped.extend_from_slice(&bytes[first + second..]);
        std::fs::write(&middle, swapped).unwrap();

        assert!(matches!(
            Wal::open(&dir, tiny_opts()),
            Err(WalError::BrokenChain { segment, offset: 0 }) if segment == indices[1]
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One `Vote` record as the SHA-256-chained format framed it
    /// (`len | digest | payload`), byte for byte.
    const SHA256_FRAMED_VOTE: &str = concat!(
        "51000000",
        "b8fc807ecce6fec4f5868a6fa352a0256b26837bd4aa5a8b5dd3d2a80f699082",
        "05070000000000000002000000010000005e5e5e5e5e5e5e5e5e5e5e5e5e5e5e",
        "5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e",
    );

    #[test]
    fn the_sha256_format_is_refused_and_left_untouched() {
        let vote: Vec<u8> = (0..SHA256_FRAMED_VOTE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&SHA256_FRAMED_VOTE[i..i + 2], 16).unwrap())
            .collect();
        // A one-record log, the case a torn-tail reading would silently
        // empty; the same file as the oldest survivor of a pruned log (its
        // link would be adopted, its crc is still checked); and a log whose
        // first record is not its last.
        for (index, bytes) in [(0u64, vote.clone()), (7, vote.clone()), (0, vote.repeat(2))] {
            let dir = temp_dir("sha256");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(segment_path(&dir, index), &bytes).unwrap();
            match Wal::open(&dir, tiny_opts()) {
                Err(e @ WalError::Format { segment }) => {
                    assert_eq!(segment, index);
                    assert!(e.to_string().contains("SHA-256"), "{e}");
                }
                Err(e) => panic!("expected a format error, got {e}"),
                Ok((_, replayed)) => panic!("opened, replaying {replayed:?}"),
            }
            assert_eq!(segment_indices(&dir).unwrap(), [index]);
            assert_eq!(std::fs::read(segment_path(&dir, index)).unwrap(), bytes);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn prune_below_drops_old_segments_but_keeps_view_installs() {
        let dir = temp_dir("prune");
        let (mut wal, _) = Wal::open(&dir, tiny_opts()).unwrap();
        for n in 1..=30u64 {
            wal.append(WalRecordRef::Block(&block(n))).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.stats();
        assert!(before.segments > 2);
        let reclaimed = wal.prune_below(25).unwrap();
        assert!(reclaimed > 0);
        let after = wal.stats();
        assert!(after.segments < before.segments);
        assert_eq!(after.wal_bytes, before.wal_bytes - reclaimed);
        // Reopen: the surviving suffix replays (anchored at the oldest
        // surviving record).
        drop(wal);
        let (_, replayed) = Wal::open(&dir, tiny_opts()).unwrap();
        assert!(!replayed.is_empty());
        if let WalRecord::Block(b) = &replayed[0] {
            assert!(b.n.0 > 1, "the oldest history was pruned");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_below_keeps_a_segment_holding_a_vote() {
        // A vote binds its view however far commits have moved on.
        let dir = temp_dir("vote");
        let vote = WalRecord::Vote {
            view: prestige_types::View(2),
            candidate: prestige_types::ServerId(1),
            share: prestige_types::PartialSig {
                signer: prestige_types::ServerId(3),
                sig: [9; 32],
            },
        };
        let (mut wal, _) = Wal::open(&dir, tiny_opts()).unwrap();
        wal.append(vote.as_ref()).unwrap();
        for n in 1..=30u64 {
            wal.append(WalRecordRef::Block(&block(n))).unwrap();
        }
        assert!(wal.prune_below(25).unwrap() > 0);
        drop(wal);
        let (_, replayed) = Wal::open(&dir, tiny_opts()).unwrap();
        assert_eq!(replayed.first(), Some(&vote));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopens_across_a_gap_left_by_a_kept_view_install_segment() {
        let dir = temp_dir("gap");
        let install = prestige_types::VcBlock::genesis(4);
        let appended = |from: u64, to: u64, wal: &mut Wal| {
            for n in from..=to {
                wal.append(WalRecordRef::Block(&block(n))).unwrap();
            }
            wal.sync().unwrap();
        };
        let (mut wal, _) = Wal::open(&dir, tiny_opts()).unwrap();
        appended(1, 6, &mut wal);
        wal.append(WalRecordRef::ViewInstall(&install)).unwrap();
        appended(7, 30, &mut wal);
        // GC takes the block-only segments on both sides of the view
        // install's: kept segment, gap, surviving suffix.
        assert!(wal.prune_below(25).unwrap() > 0);
        let indices: Vec<u64> = wal.segments.keys().copied().collect();
        let kept = *indices.first().unwrap();
        assert!(kept > 0 && wal.segments[&kept].keep, "{indices:?}");
        assert!(indices[1] > kept + 1, "pruned successors: {indices:?}");
        drop(wal);

        let seqs = |records: &[WalRecord]| -> Vec<u64> {
            let seq = |r: &WalRecord| match r {
                WalRecord::Block(b) => Some(b.n.0),
                _ => None,
            };
            records.iter().filter_map(seq).collect()
        };
        let (mut wal, replayed) = Wal::open(&dir, tiny_opts()).unwrap();
        assert!(replayed.contains(&WalRecord::ViewInstall(install.clone())));
        assert_eq!(seqs(&replayed).last(), Some(&30));
        assert!(seqs(&replayed).len() < 30, "pruned history stays gone");
        // The reopened log keeps appending and reopens again, gap and all.
        appended(31, 40, &mut wal);
        drop(wal);
        let (_, again) = Wal::open(&dir, tiny_opts()).unwrap();
        assert!(again.contains(&WalRecord::ViewInstall(install)));
        assert_eq!(again.len(), replayed.len() + 10);
        assert_eq!(seqs(&again).last(), Some(&40));

        // A gap excuses only the record right after it: corruption further
        // into the surviving suffix is still a hard error.
        let suffix = segment_path(&dir, indices[2]);
        let mut bytes = std::fs::read(&suffix).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&suffix, bytes).unwrap();
        assert!(matches!(
            Wal::open(&dir, tiny_opts()),
            Err(WalError::BrokenChain { .. } | WalError::Decode { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsyncs_are_batched() {
        let dir = temp_dir("fsync");
        let (mut wal, _) = Wal::open(
            &dir,
            WalOptions {
                segment_bytes: 1 << 20,
                sync_every_n: 8,
                sync_interval_ms: 10_000.0,
            },
        )
        .unwrap();
        for n in 1..=16u64 {
            wal.append(WalRecordRef::Block(&block(n))).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 2, "16 appends at sync_every_n=8");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

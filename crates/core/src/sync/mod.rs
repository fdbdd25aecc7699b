//! The recovery plane's sync subsystem — the paper's `SyncUp` function
//! (§4.2.3) as one question and one answer, in the shape of Viewstamped
//! Replication's state transfer (`GETSTATE`/`NEWSTATE`).
//!
//! Up to `f` correct servers can lag behind a `2f + 1` quorum, and quorum
//! messages can be lost (backpressure, partitions, injected chaos), so a
//! replica can miss views, committed blocks and certified batches. Sync
//! repairs that without a view change.
//!
//! Every request asks the same question, `SyncReq { view, from, to }`: "I
//! hold view `view` and tip `from - 1`, and I have seen height `to` proven;
//! what did I miss?" Whoever holds the evidence of missing state owns the
//! question (PBFT's retransmission rule), and each kind of evidence is asked
//! about in exactly one place. Inline handlers ask only for what the live
//! path will not deliver; the repair tick is the one fallback:
//!
//! | site | evidence | asks |
//! |---|---|---|
//! | `handle_cmt` | signed an instance without its certified batch | the leader |
//! | `apply_committed_block` | a block above a hole, or from a higher view | its relayer |
//! | the repair tick | a stalled tip with parked blocks or signed instances | a rotating peer |
//! | `Verdict::SyncFirst` | a candidate in an uninstalled view | the candidate |
//! | `Refusal::SignedInstancesUncovered` | this voter holds the proof | pushes a `SyncResp` to the candidate |
//!
//! Requests go through one rate limit and never to this server itself. The
//! responder decides what the answer holds, within one response budget:
//!
//! * the vcBlocks above `view`;
//! * the committed blocks `[from, min(to, responder tip)]`;
//! * the certified ordered instances (batch plus ordering QC) above the
//!   responder's tip, up to `to` — state transfer for instances that may have
//!   committed elsewhere;
//! * its stable checkpoint certificate, when that block range is wider than
//!   one response (a restart from an old checkpoint, a long partition), so
//!   the requester can re-establish a GC horizon while it pages the rest.
//!
//! The repair tick also re-broadcasts a stalled candidate's `Camp` and a
//! leader-elect's `NewVcBlock` (election retransmission).
//!
//! [`serve`] answers, rate-limited per peer and byte-budgeted, so a
//! Byzantine or looping requester cannot turn this server into a
//! payload-assembly treadmill. [`repair`] asks, installs answers, and runs
//! the repair tick, whose peer rotates because the leader may be the dead
//! node. Blocks and ordered entries obtained through sync are validated
//! through their quorum certificates exactly like live traffic; sync never
//! widens what a peer can make this server believe, only when it learns it.

mod repair;
mod serve;

/// Upper bound on blocks/entries of each kind in one sync response, to keep
/// individual messages bounded (a requester simply asks again for the
/// remainder). A requester further behind than this is also sent the stable
/// checkpoint certificate.
pub(crate) const MAX_SYNC_BLOCKS: usize = 256;

/// Byte budget for one sync response (backpressure): payload assembly stops
/// once the accumulated wire size crosses this bound, whatever the requested
/// range. At least one item is always served so a huge single block cannot
/// starve its own repair.
pub(crate) const MAX_SYNC_RESP_BYTES: usize = 1 << 20;

/// Minimum interval (ms) between two answers served to the same peer, and
/// between two batches of ordered entries accepted from it. Honest repair is
/// timer-paced far above this; the limit only bites peers hammering the
/// serve path or pushing payloads to hash.
pub(crate) const SERVE_MIN_INTERVAL_MS: f64 = 10.0;

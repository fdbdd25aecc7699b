//! The recovery plane's sync subsystem — the paper's `SyncUp` function
//! (§4.2.3) as one question and one answer, in the shape of Viewstamped
//! Replication's state transfer (`GETSTATE`/`NEWSTATE`).
//!
//! Because quorum certificates only require `2f + 1` signers, up to `f`
//! correct servers can lag behind; and because quorum messages themselves
//! can be lost (backpressure shed, partitions, injected chaos), a replica can
//! find itself *wedged*: views it never installed, parked out-of-order blocks
//! whose predecessors never arrive, commit-signed instances whose batches it
//! lacks. Before this subsystem, the only repair was the client-complaint →
//! view-change path — every burst of loss bought a full election pause.
//!
//! Every site that notices missing state asks the same question,
//! `SyncReq { view, from, to }`: "I hold view `view` and tip `from - 1`, and I
//! have seen height `to` proven; what did I miss?" It goes to the server
//! whose message proved the height (never to this server itself), or to a
//! rotating peer from the repair timer, through one rate limit. The
//! responder decides what the answer holds, within one response budget:
//!
//! * the vcBlocks above `view`;
//! * the committed blocks `[from, min(to, responder tip)]`;
//! * the certified ordered instances (batch plus ordering QC) above the
//!   responder's tip, up to `to` — state transfer for instances that may have
//!   committed elsewhere;
//! * its stable checkpoint certificate, when that block range is wider than
//!   one response (a fresh restart from an old checkpoint, a long
//!   partition), so the requester can re-establish a GC horizon while it
//!   pages the rest.
//!
//! The repair timer also carries **election retransmission** (`Camp` /
//! `NewVcBlock` re-broadcast, idempotent `VoteCP` re-send): view-change
//! messages lost to chaos previously stalled elections until the next
//! timeout escalation.
//!
//! Structure:
//!
//! * [`serve`] — the answer, per-peer rate-limited and byte-budgeted so a
//!   Byzantine or looping requester cannot turn this server into a
//!   payload-assembly treadmill;
//! * [`repair`] — the requester side: the rate-limited request, the periodic
//!   repair timer that notices a stalled committed tip and asks a *rotating*
//!   peer (the leader may be the dead node), and installing answers.
//!
//! Blocks and ordered entries obtained through sync are validated through
//! their quorum certificates exactly like live traffic; sync never widens
//! what a peer can make this server believe, only when it learns it.

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

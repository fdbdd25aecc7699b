//! The PrestigeBFT protocol message vocabulary.
//!
//! Every message the paper names appears here: the client-facing messages
//! (`Prop`, `Notif`, `Compt`), the two-phase replication messages (`Ord`,
//! `Cmt` and their replies, plus the committed `txBlock` broadcast), the
//! active view-change messages (`ConfVC`, `ReVC`, `Camp`, `VoteCP`, the new
//! `vcBlock` broadcast and `vcYes`), the penalty-refresh messages (`Ref`,
//! `Rdone`), and the `SyncUp` request/response pair.
//!
//! Baseline protocols (`prestige-baselines`) define their own message enums;
//! the [`Wire`] trait is what the network simulator requires of any payload,
//! so all protocols ride the same transport.

use crate::blocks::{TxBlock, VcBlock};
use crate::ids::{ClientId, SeqNum, ServerId, View};
use crate::qc::{PartialSig, QuorumCertificate};
use crate::transaction::{Digest, Proposal};
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Minimal contract a message type must satisfy to travel over the simulated
/// network: report its serialized size (for the bandwidth model) and a short
/// label (for traces and per-message-type metrics).
pub trait Wire: Clone + std::fmt::Debug {
    /// Serialized size in bytes.
    fn wire_size(&self) -> usize;
    /// Short, static label naming the message type.
    fn kind(&self) -> &'static str;
}

/// A participant in the protocol: either a consensus server or a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum Actor {
    /// A consensus server (replica).
    Server(ServerId),
    /// A client of the replicated service.
    Client(ClientId),
}

impl std::fmt::Display for Actor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::Server(s) => write!(f, "{s}"),
            Actor::Client(c) => write!(f, "{c}"),
        }
    }
}

/// One certified uncommitted ordered instance, as shipped in a
/// [`Message::SyncResp`]: the batch plus the ordering QC that certifies it.
/// The entry is self-validating — `qc.seq` names the instance, `qc.view` the
/// ordering view, and `qc.digest` must equal the batch digest recomputed over
/// `(qc.view, qc.seq, batch)` — so receivers accept entries from any peer.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct OrderedEntry {
    /// The ordered batch of proposals (shared, like [`Message::Ord`]'s batch).
    pub batch: Arc<Vec<Proposal>>,
    /// The ordering QC certifying `(view, seq, digest)` of the batch.
    pub qc: QuorumCertificate,
}

impl OrderedEntry {
    /// The instance (sequence number) this entry certifies.
    pub fn seq(&self) -> SeqNum {
        self.qc.seq
    }

    /// Serialized size in bytes, for the bandwidth model and the sync
    /// server's response budget.
    pub fn wire_size(&self) -> usize {
        self.batch.iter().map(|p| p.wire_size()).sum::<usize>() + self.qc.wire_size()
    }
}

/// A PrestigeBFT protocol message.
///
/// Signature fields (`sig`) are 32-byte keyed-MAC signatures produced by
/// `prestige-crypto`; `PartialSig` fields are threshold-signature shares that
/// the recipient aggregates into quorum certificates.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum Message {
    // ------------------------------------------------------------------
    // Client interaction (§4.3: invoking and terminating consensus)
    // ------------------------------------------------------------------
    /// Client proposal broadcast to all servers.
    ///
    /// A client process may bundle several logical requests into one `Prop`
    /// (the simulation's stand-in for many clients sharing a TCP connection);
    /// each proposal is still an independent transaction for ordering,
    /// commitment, and notification purposes.
    Prop {
        /// The proposal payloads (transaction + digest each).
        proposals: Vec<Proposal>,
        /// The client's signature over the bundle.
        client_sig: [u8; 32],
    },
    /// Commit notification sent by servers back to the client, listing every
    /// transaction of that client committed in one block.
    Notif {
        /// Identities of the committed transactions (client, timestamp).
        tx_keys: Vec<(ClientId, u64)>,
        /// Sequence number of the block containing the transactions.
        seq: SeqNum,
        /// View in which the block committed.
        view: View,
        /// The notifying server's signature.
        sig: [u8; 32],
    },
    /// Client complaint: the client could not confirm its proposal in time and
    /// suspects the leader (§4.2.1).
    Compt {
        /// The original proposal the client sent.
        proposal: Proposal,
        /// The client's signature.
        client_sig: [u8; 32],
    },

    // ------------------------------------------------------------------
    // Two-phase replication (§4.3)
    // ------------------------------------------------------------------
    /// Leader's ordering message: assigns sequence number `n` to a batch.
    Ord {
        /// Current view.
        view: View,
        /// Assigned sequence number.
        n: SeqNum,
        /// The batched proposals. Shared (`Arc`) so the leader's broadcast
        /// fan-out and its own in-flight bookkeeping reference one allocation
        /// instead of deep-copying the batch per recipient; the encoding is
        /// transparent, so the wire format is that of a plain proposal list.
        batch: Arc<Vec<Proposal>>,
        /// Digest over (view, n, batch) that followers sign.
        digest: Digest,
        /// Leader's signature.
        sig: [u8; 32],
    },
    /// Follower reply to `Ord` carrying a threshold-signature share.
    OrdReply {
        /// View of the ordering instance.
        view: View,
        /// Sequence number being acknowledged.
        n: SeqNum,
        /// Digest the share signs.
        digest: Digest,
        /// The follower's share.
        share: PartialSig,
    },
    /// Leader's commit message carrying the assembled `ordering_QC`.
    Cmt {
        /// Current view.
        view: View,
        /// Sequence number being committed.
        n: SeqNum,
        /// The phase-1 quorum certificate.
        ordering_qc: QuorumCertificate,
        /// Leader's signature.
        sig: [u8; 32],
    },
    /// Follower reply to `Cmt` carrying a share for the `commit_QC`.
    CmtReply {
        /// View of the commit instance.
        view: View,
        /// Sequence number being acknowledged.
        n: SeqNum,
        /// Digest the share signs.
        digest: Digest,
        /// The follower's share.
        share: PartialSig,
    },
    /// Leader broadcast of the finalized `txBlock` (terminates the instance).
    CommitBlock {
        /// The committed transaction block with both QCs filled in. Shared
        /// (`Arc`) for the same reason as [`Message::Ord`]'s batch: one block
        /// allocation serves the local store, the broadcast to every replica,
        /// and any buffered out-of-order copy.
        block: Arc<TxBlock>,
        /// Leader's signature.
        sig: [u8; 32],
    },

    // ------------------------------------------------------------------
    // Active view change (§4.2)
    // ------------------------------------------------------------------
    /// A follower's inspection broadcast after a complaint timed out.
    ConfVC {
        /// The view the follower suspects.
        view: View,
        /// The complained-about transaction.
        tx_key: (ClientId, u64),
        /// The follower's signature.
        sig: [u8; 32],
    },
    /// Reply confirming that the sender also received the same complaint.
    ReVC {
        /// The suspected view.
        view: View,
        /// The complained-about transaction.
        tx_key: (ClientId, u64),
        /// Threshold share toward the `conf_QC`.
        share: PartialSig,
    },
    /// A candidate's leadership campaign (`Camp` / `CampVC`).
    Camp {
        /// `conf_QC` proving the view change was confirmed by f+1 servers.
        conf_qc: Option<QuorumCertificate>,
        /// The candidate's previous (current) view `V`.
        view: View,
        /// The view being campaigned for, `V'`.
        new_view: View,
        /// The candidate's claimed reputation penalty for `V'`.
        rp: i64,
        /// The candidate's claimed compensation index for `V'`.
        ci: u64,
        /// The nonce found while solving the reputation puzzle.
        nonce: u64,
        /// The puzzle hash result (`hr`), which must have an `rp`-determined
        /// zero prefix (criterion C5).
        hash_result: Digest,
        /// Sequence number of the candidate's latest committed txBlock
        /// (criterion C3 input).
        latest_seq: SeqNum,
        /// Highest sequence number the candidate holds *certified ordered
        /// state* for, contiguously above `latest_seq` (criterion C3 input: a
        /// voter that has commit-signed an instance beyond this refuses the
        /// vote, so an elected leader can always re-propose every
        /// possibly-committed instance at its original sequence number).
        /// Since wire v3 the claim is proven, not trusted: `tip_cert` must
        /// carry the ordering QC of every claimed instance.
        latest_ord_seq: SeqNum,
        /// Proof of `latest_seq`: the commit QC of the candidate's latest
        /// committed txBlock (`None` only when `latest_seq` is 0 — the
        /// genesis block has no certificate). Voters verify it instead of
        /// trusting the committed-tip claim.
        commit_cert: Option<QuorumCertificate>,
        /// Proof of `latest_ord_seq`: one ordering QC per claimed instance,
        /// covering `latest_seq + 1 ..= latest_ord_seq` contiguously in
        /// ascending sequence order (empty when the claims are equal). This
        /// is the PBFT-new-view-style certified view-change state transfer:
        /// voters verify each certificate, so a Byzantine candidate can no
        /// longer overstate its ordered tip.
        tip_cert: Vec<QuorumCertificate>,
        /// Digest of that txBlock (puzzle input and sync anchor).
        latest_tx_digest: Digest,
        /// The candidate's signature.
        sig: [u8; 32],
    },
    /// A vote for a campaigning candidate.
    VoteCP {
        /// The view being voted for (`V'`).
        new_view: View,
        /// The candidate receiving the vote.
        candidate: ServerId,
        /// Threshold share toward the `vc_QC`.
        share: PartialSig,
    },
    /// The elected leader's broadcast of the new `vcBlock`.
    NewVcBlock {
        /// The new view-change block.
        block: VcBlock,
        /// Leader's signature.
        sig: [u8; 32],
    },
    /// Acknowledgement that a server adopted the new `vcBlock`.
    VcYes {
        /// The view of the adopted block.
        view: View,
        /// Digest of the adopted block.
        digest: Digest,
        /// The sender's signature share.
        share: PartialSig,
    },

    // ------------------------------------------------------------------
    // Baseline-protocol messages (passive view changes, third phase)
    //
    // The baseline protocols (`prestige-baselines`) share this vocabulary so
    // they ride the same simulated transport and the same client as
    // PrestigeBFT, which keeps the evaluation comparison apples-to-apples.
    // ------------------------------------------------------------------
    /// Intermediate (pre-commit) phase of three-phase baselines: the leader
    /// forwards the phase-1 QC and collects another round of shares.
    PreCmt {
        /// Current view.
        view: View,
        /// Sequence number.
        n: SeqNum,
        /// The phase-1 quorum certificate.
        prepare_qc: QuorumCertificate,
        /// Leader's signature.
        sig: [u8; 32],
    },
    /// Reply to [`Message::PreCmt`] carrying a share for the pre-commit QC.
    PreCmtReply {
        /// View of the instance.
        view: View,
        /// Sequence number being acknowledged.
        n: SeqNum,
        /// Digest the share signs.
        digest: Digest,
        /// The follower's share.
        share: PartialSig,
    },
    /// Passive view change: a replica's timeout/new-view message sent to the
    /// scheduled leader of `view` (`L = V mod n`), carrying the sender's log
    /// position so the incoming leader knows how far it must sync.
    NewView {
        /// The view being entered.
        view: View,
        /// The sender's latest committed sequence number.
        latest_seq: SeqNum,
        /// Threshold share endorsing the view change.
        share: PartialSig,
    },
    /// Passive view change: the scheduled leader announces the new view with
    /// the QC of `2f + 1` NewView messages.
    NewViewAnnounce {
        /// The view being entered.
        view: View,
        /// QC over the NewView messages.
        new_view_qc: QuorumCertificate,
        /// The leader's signature.
        sig: [u8; 32],
    },

    // ------------------------------------------------------------------
    // Penalty refresh (§4.2.5)
    // ------------------------------------------------------------------
    /// Request to refresh one's own penalty after GST-induced penalization.
    Ref {
        /// Current view.
        view: View,
        /// The server requesting the refresh.
        server: ServerId,
        /// Threshold share toward the `rs_QC`.
        share: PartialSig,
    },
    /// Announcement that a refresh completed, carrying the authorizing QC.
    Rdone {
        /// Current view.
        view: View,
        /// The server whose penalty was refreshed.
        server: ServerId,
        /// The `rs_QC` of 2f+1 `Ref` messages.
        rs_qc: QuorumCertificate,
        /// The refreshed (initial) penalty value.
        rp: i64,
        /// The refreshed (initial) compensation index.
        ci: u64,
        /// The sender's signature.
        sig: [u8; 32],
    },

    // ------------------------------------------------------------------
    // Certified checkpoints (durable storage plane)
    // ------------------------------------------------------------------
    /// A replica's signed share of the state digest at a checkpoint sequence
    /// number (broadcast every `checkpoint_interval` committed instances).
    /// `2f + 1` matching shares assemble into a checkpoint certificate.
    CkptShare {
        /// The checkpoint sequence number (a committed block height).
        n: SeqNum,
        /// The view the checkpointed block committed in.
        view: View,
        /// The state digest at `n`: committed digest chain + reputation state.
        digest: Digest,
        /// Threshold share toward the checkpoint QC.
        share: PartialSig,
    },
    /// An assembled checkpoint certificate: `2f + 1` replicas vouch for the
    /// same state digest at `cert.seq`. Receivers adopt it as their stable
    /// checkpoint (GC anchor) once their own committed chain reaches it.
    CkptCert {
        /// The checkpoint quorum certificate (`kind == QcKind::Checkpoint`).
        cert: QuorumCertificate,
    },

    // ------------------------------------------------------------------
    // Log synchronization (the SyncUp function of §4.2.3)
    // ------------------------------------------------------------------
    /// "I hold view `view` and tip `from - 1`; what did I miss up to `to`?"
    /// The responder decides what the answer holds.
    SyncReq {
        /// The requester's installed view.
        view: View,
        /// The requester's first missing sequence number.
        from: u64,
        /// The highest sequence number the requester has seen proven.
        to: u64,
    },
    /// The answer to a `SyncReq` (or the same answer, pushed unsolicited).
    SyncResp {
        /// View-change blocks above the requester's view.
        vc_blocks: Vec<VcBlock>,
        /// Committed transaction blocks `[from, min(to, responder tip)]`.
        tx_blocks: Vec<TxBlock>,
        /// Certified uncommitted ordered instances above the responder's
        /// tip, up to `to`: `(batch, ordering_QC)` pairs in ascending
        /// sequence order.
        ordered: Vec<OrderedEntry>,
        /// The responder's stable checkpoint certificate, sent when the
        /// requester is more than one response behind: lets it adopt a
        /// proven GC anchor once the chained blocks reach it.
        ckpt: Option<QuorumCertificate>,
    },
}

impl Wire for Message {
    fn wire_size(&self) -> usize {
        // Fixed overhead per message (framing, sender, signature) plus the
        // dominant variable-size payloads.
        const BASE: usize = 64;
        match self {
            Message::Prop { proposals, .. } => {
                BASE + proposals.iter().map(|p| p.wire_size()).sum::<usize>()
            }
            Message::Compt { proposal, .. } => BASE + proposal.wire_size(),
            Message::Notif { tx_keys, .. } => BASE + 32 + 16 * tx_keys.len(),
            Message::Ord { batch, .. } => {
                BASE + 16 + batch.iter().map(|p| p.wire_size()).sum::<usize>()
            }
            Message::OrdReply { .. } | Message::CmtReply { .. } | Message::PreCmtReply { .. } => {
                BASE + 32 + 36
            }
            Message::Cmt { ordering_qc, .. } => BASE + 16 + ordering_qc.wire_size(),
            Message::PreCmt { prepare_qc, .. } => BASE + 16 + prepare_qc.wire_size(),
            Message::NewView { .. } => BASE + 16 + 36,
            Message::NewViewAnnounce { new_view_qc, .. } => BASE + 8 + new_view_qc.wire_size(),
            Message::CommitBlock { block, .. } => BASE + block.wire_size(),
            Message::ConfVC { .. } => BASE + 24,
            Message::ReVC { .. } => BASE + 24 + 36,
            Message::Camp {
                conf_qc,
                commit_cert,
                tip_cert,
                ..
            } => {
                BASE + 104
                    + conf_qc.as_ref().map(|q| q.wire_size()).unwrap_or(0)
                    + commit_cert.as_ref().map(|q| q.wire_size()).unwrap_or(0)
                    + tip_cert.iter().map(|q| q.wire_size()).sum::<usize>()
            }
            Message::VoteCP { .. } => BASE + 12 + 36,
            Message::NewVcBlock { block, .. } => BASE + block.wire_size(),
            Message::VcYes { .. } => BASE + 40 + 36,
            Message::Ref { .. } => BASE + 12 + 36,
            Message::Rdone { rs_qc, .. } => BASE + 28 + rs_qc.wire_size(),
            Message::CkptShare { .. } => BASE + 48 + 36,
            Message::CkptCert { cert } => BASE + cert.wire_size(),
            Message::SyncReq { .. } => BASE + 24,
            Message::SyncResp {
                vc_blocks,
                tx_blocks,
                ordered,
                ckpt,
            } => {
                BASE + vc_blocks.iter().map(|b| b.wire_size()).sum::<usize>()
                    + tx_blocks.iter().map(|b| b.wire_size()).sum::<usize>()
                    + ordered.iter().map(|e| e.wire_size()).sum::<usize>()
                    + ckpt.as_ref().map(|q| q.wire_size()).unwrap_or(0)
            }
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Message::Prop { .. } => "Prop",
            Message::Notif { .. } => "Notif",
            Message::Compt { .. } => "Compt",
            Message::Ord { .. } => "Ord",
            Message::OrdReply { .. } => "OrdReply",
            Message::Cmt { .. } => "Cmt",
            Message::CmtReply { .. } => "CmtReply",
            Message::PreCmt { .. } => "PreCmt",
            Message::PreCmtReply { .. } => "PreCmtReply",
            Message::NewView { .. } => "NewView",
            Message::NewViewAnnounce { .. } => "NewViewAnnounce",
            Message::CommitBlock { .. } => "CommitBlock",
            Message::ConfVC { .. } => "ConfVC",
            Message::ReVC { .. } => "ReVC",
            Message::Camp { .. } => "Camp",
            Message::VoteCP { .. } => "VoteCP",
            Message::NewVcBlock { .. } => "NewVcBlock",
            Message::VcYes { .. } => "VcYes",
            Message::Ref { .. } => "Ref",
            Message::Rdone { .. } => "Rdone",
            Message::CkptShare { .. } => "CkptShare",
            Message::CkptCert { .. } => "CkptCert",
            Message::SyncReq { .. } => "SyncReq",
            Message::SyncResp { .. } => "SyncResp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;

    fn sample_proposal() -> Proposal {
        let tx = Transaction::with_size(ClientId(1), 1, 32);
        Proposal::new(tx, Digest::ZERO)
    }

    #[test]
    fn kind_names_the_variant() {
        let sync = Message::SyncReq {
            view: View(1),
            from: 1,
            to: 5,
        };
        assert_eq!(sync.kind(), "SyncReq");
    }

    #[test]
    fn ord_wire_size_scales_with_batch() {
        let small = Message::Ord {
            view: View(1),
            n: SeqNum(1),
            batch: Arc::new(vec![sample_proposal()]),
            digest: Digest::ZERO,
            sig: [0; 32],
        };
        let large = Message::Ord {
            view: View(1),
            n: SeqNum(1),
            batch: Arc::new((0..100).map(|_| sample_proposal()).collect()),
            digest: Digest::ZERO,
            sig: [0; 32],
        };
        assert!(large.wire_size() > small.wire_size() * 50);
    }

    #[test]
    fn actor_display() {
        assert_eq!(Actor::Server(ServerId(0)).to_string(), "S1");
        assert_eq!(Actor::Client(ClientId(3)).to_string(), "C3");
    }

    #[test]
    #[cfg(feature = "serde")]
    fn message_serde_round_trip() {
        let msg = Message::VoteCP {
            new_view: View(9),
            candidate: ServerId(2),
            share: PartialSig {
                signer: ServerId(1),
                sig: [7; 32],
            },
        };
        let bytes = bincode::serialize(&msg).unwrap();
        let back: Message = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, msg);
    }
}

//! Quorum certificates.
//!
//! PrestigeBFT uses `(t, n)` threshold signatures to convert `t` individually
//! signed messages into one fully signed message of constant size (§4.1).
//! The resulting artifact is a *quorum certificate* (QC). The paper uses four
//! flavours:
//!
//! * `conf_QC` — `f + 1` `ReVC` replies confirming that a view change is
//!   necessary (threshold `f + 1`),
//! * `vc_QC` — `2f + 1` `VoteCP` votes electing a candidate,
//! * `ordering_QC` / `commit_QC` — the two replication phases,
//! * `rs_QC` — `2f + 1` `Ref` messages authorizing a penalty refresh.
//!
//! This module defines the data layout only; creation and verification (which
//! require keys) live in `prestige-crypto::threshold`.

use crate::ids::{SeqNum, ServerId, View};
use crate::transaction::Digest;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// The kind of quorum certificate, which also fixes its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum QcKind {
    /// Confirms that a view change is necessary (`f + 1` ReVC replies).
    Confirm,
    /// Elects a candidate as the leader of a view (`2f + 1` VoteCP votes).
    ViewChange,
    /// First replication phase (`2f + 1` ordering replies).
    Ordering,
    /// The intermediate phase used by three-phase baselines such as HotStuff
    /// (`2f + 1` pre-commit replies). PrestigeBFT's two-phase replication does
    /// not use it.
    PreCommit,
    /// Second replication phase (`2f + 1` commit replies).
    Commit,
    /// Authorizes a reputation-penalty refresh (`2f + 1` Ref messages).
    Refresh,
    /// Certifies a stable checkpoint: `2f + 1` replicas signed the same
    /// state digest at a checkpoint sequence number, anchoring log GC and
    /// the catch-up of far-behind replicas.
    Checkpoint,
}

impl QcKind {
    /// The threshold `t` of this QC kind for a cluster tolerating `f` faults.
    pub fn threshold(&self, f: u32) -> u32 {
        match self {
            QcKind::Confirm => f + 1,
            _ => 2 * f + 1,
        }
    }
}

/// One server's individually signed contribution (a "share") toward a QC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct PartialSig {
    /// The signing server.
    pub signer: ServerId,
    /// The signature bytes over the QC payload.
    pub sig: [u8; 32],
}

/// A quorum certificate: the deterministic, constant-size proof that a
/// threshold of servers signed the same statement.
///
/// The statement signed is `(kind, view, seq, digest)`; the aggregate
/// signature and the signer bitmap prove that `threshold` distinct servers
/// endorsed it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct QuorumCertificate {
    /// Which protocol step this QC certifies.
    pub kind: QcKind,
    /// The view in which the QC was formed.
    pub view: View,
    /// The sequence number the QC refers to (meaningful for ordering/commit
    /// QCs; `SeqNum::ZERO` otherwise).
    pub seq: SeqNum,
    /// Digest of the certified payload (block digest, campaign digest, ...).
    pub digest: Digest,
    /// The servers whose shares were aggregated.
    pub signers: Vec<ServerId>,
    /// The aggregated (threshold) signature bytes — O(1) regardless of the
    /// number of signers.
    pub aggregate: [u8; 32],
}

impl QuorumCertificate {
    /// Number of distinct signers in this certificate.
    pub fn signer_count(&self) -> usize {
        self.signers.len()
    }

    /// Returns true if the certificate contains at least `t` *distinct*
    /// signers. Cryptographic verification of the aggregate lives in
    /// `prestige-crypto`; this structural check is what voting criterion C2
    /// ("the threshold of Camp.conf_QC is f + 1") inspects first.
    pub fn meets_threshold(&self, t: u32) -> bool {
        let mut sorted: Vec<ServerId> = self.signers.clone();
        sorted.sort();
        sorted.dedup();
        sorted.len() as u32 >= t
    }

    /// Serialized size in bytes, used by the network bandwidth model. The
    /// aggregate signature keeps this constant; only the signer bitmap grows
    /// (modelled as 4 bytes per signer id).
    pub fn wire_size(&self) -> usize {
        1 + 8 + 8 + 32 + 32 + 4 * self.signers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qc_with_signers(signers: Vec<ServerId>) -> QuorumCertificate {
        QuorumCertificate {
            kind: QcKind::Commit,
            view: View(1),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            signers,
            aggregate: [0u8; 32],
        }
    }

    #[test]
    fn thresholds_per_kind() {
        assert_eq!(QcKind::Confirm.threshold(1), 2);
        assert_eq!(QcKind::ViewChange.threshold(1), 3);
        assert_eq!(QcKind::Ordering.threshold(5), 11);
        assert_eq!(QcKind::Commit.threshold(5), 11);
        assert_eq!(QcKind::Refresh.threshold(3), 7);
        assert_eq!(QcKind::Checkpoint.threshold(2), 5);
    }

    #[test]
    fn meets_threshold_requires_distinct_signers() {
        let qc = qc_with_signers(vec![ServerId(0), ServerId(0), ServerId(1)]);
        assert!(qc.meets_threshold(2));
        assert!(!qc.meets_threshold(3));
    }

    #[test]
    fn meets_threshold_counts_all_distinct() {
        let qc = qc_with_signers(vec![ServerId(0), ServerId(1), ServerId(2)]);
        assert!(qc.meets_threshold(3));
        assert!(!qc.meets_threshold(4));
    }

    #[test]
    fn wire_size_grows_only_with_signer_bitmap() {
        let small = qc_with_signers(vec![ServerId(0)]);
        let big = qc_with_signers((0..100).map(ServerId).collect());
        assert_eq!(big.wire_size() - small.wire_size(), 4 * 99);
    }
}

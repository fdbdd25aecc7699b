//! `(t, n)` threshold-signature simulation and quorum-certificate assembly.
//!
//! PrestigeBFT converts `t` individually signed messages (total size O(n))
//! into one fully signed message of size O(1) that all `n` servers can verify
//! (§4.1, citing Shoup's practical threshold signatures). This module
//! reproduces the *interface and properties* of that primitive:
//!
//! * each server contributes a [`PartialSig`] share over the QC statement,
//! * a [`QcBuilder`] collects shares, rejects duplicates and forgeries, and —
//!   once `t` distinct valid shares are present — aggregates them into a
//!   [`QuorumCertificate`] whose `aggregate` field is a constant-size value
//!   deterministically bound to the statement and the signer set,
//! * a [`ThresholdVerifier`] checks a finished certificate in O(t) share
//!   recomputations (the real primitive verifies in O(1); the simulator
//!   charges CPU time for QC verification separately so the *performance*
//!   model matches the O(1) claim — see `prestige_sim::cpu_cost::PER_VERIFY_MS`).

use crate::hash::FramedHasher;
use crate::signature::{KeyRegistry, Signature};
use prestige_types::{
    Actor, Digest, PartialSig, ProtocolError, QcKind, QuorumCertificate, Result, SeqNum, ServerId,
    View,
};
use std::collections::BTreeMap;

/// Byte length of a QC statement: kind tag + view + seq + digest.
pub const QC_STATEMENT_LEN: usize = 1 + 8 + 8 + 32;

/// Builds the canonical byte statement that shares of a QC sign. The
/// statement is fixed-size and returned on the stack: signing and verifying
/// shares — the most frequent crypto operation on the replication hot path —
/// allocates nothing.
pub fn qc_statement(
    kind: QcKind,
    view: View,
    seq: SeqNum,
    digest: &Digest,
) -> [u8; QC_STATEMENT_LEN] {
    let kind_tag: u8 = match kind {
        QcKind::Confirm => 0,
        QcKind::ViewChange => 1,
        QcKind::Ordering => 2,
        QcKind::Commit => 3,
        QcKind::Refresh => 4,
        QcKind::PreCommit => 5,
        QcKind::Checkpoint => 6,
    };
    let mut out = [0u8; QC_STATEMENT_LEN];
    out[0] = kind_tag;
    out[1..9].copy_from_slice(&view.0.to_be_bytes());
    out[9..17].copy_from_slice(&seq.0.to_be_bytes());
    out[17..49].copy_from_slice(&digest.0);
    out
}

/// Produces a server's share over a QC statement. This is what followers do
/// when they reply to `Ord` / `Cmt` / `ConfVC` / `Camp` / `Ref` messages.
pub fn sign_share(
    registry: &KeyRegistry,
    signer: ServerId,
    kind: QcKind,
    view: View,
    seq: SeqNum,
    digest: &Digest,
) -> Option<PartialSig> {
    let kp = registry.key_of(Actor::Server(signer))?;
    let stmt = qc_statement(kind, view, seq, digest);
    Some(PartialSig {
        signer,
        sig: kp.sign(&stmt),
    })
}

/// Collects threshold shares for one statement and aggregates them into a
/// quorum certificate once the threshold is reached.
#[derive(Debug, Clone)]
pub struct QcBuilder {
    kind: QcKind,
    view: View,
    seq: SeqNum,
    digest: Digest,
    threshold: u32,
    shares: BTreeMap<ServerId, Signature>,
}

impl QcBuilder {
    /// Starts collecting shares for the statement `(kind, view, seq, digest)`
    /// with the given threshold `t`.
    pub fn new(kind: QcKind, view: View, seq: SeqNum, digest: Digest, threshold: u32) -> Self {
        QcBuilder {
            kind,
            view,
            seq,
            digest,
            threshold,
            shares: BTreeMap::new(),
        }
    }

    /// The threshold `t` this builder was created with.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Number of distinct valid shares collected so far.
    pub fn count(&self) -> u32 {
        self.shares.len() as u32
    }

    /// True once the threshold is met.
    pub fn complete(&self) -> bool {
        self.count() >= self.threshold
    }

    /// Adds a share after verifying it against the registry. Duplicate shares
    /// from the same signer are idempotent; forged shares are rejected.
    /// Returns `true` if the builder is complete after this addition.
    pub fn add_share(&mut self, registry: &KeyRegistry, share: &PartialSig) -> Result<bool> {
        let stmt = qc_statement(self.kind, self.view, self.seq, &self.digest);
        if !registry.verify(Actor::Server(share.signer), &stmt, &share.sig) {
            return Err(ProtocolError::InvalidSignature {
                signer: share.signer,
            });
        }
        self.shares.insert(share.signer, share.sig);
        Ok(self.complete())
    }

    /// Adds a share **without** re-verifying it against the registry.
    ///
    /// Callers must have already verified the share's signature over exactly
    /// this builder's statement `(kind, view, seq, digest)`. Duplicate shares
    /// from the same signer are idempotent. Returns `true` if the builder is
    /// complete afterwards.
    pub fn add_verified_share(&mut self, share: &PartialSig) -> bool {
        self.shares.insert(share.signer, share.sig);
        self.complete()
    }

    /// Aggregates the collected shares into a quorum certificate.
    ///
    /// The aggregate value is the hash of the statement and all shares in
    /// signer order — constant size, deterministic, and recomputable by any
    /// verifier that can reconstruct the shares (which the [`ThresholdVerifier`]
    /// does through the key registry).
    pub fn assemble(&self) -> Result<QuorumCertificate> {
        if !self.complete() {
            return Err(ProtocolError::InvalidQc {
                reason: format!(
                    "only {} of {} required shares collected",
                    self.count(),
                    self.threshold
                ),
            });
        }
        let stmt = qc_statement(self.kind, self.view, self.seq, &self.digest);
        let signers: Vec<ServerId> = self.shares.keys().copied().collect();
        // Stream statement and shares into a single hasher (same framing as
        // `hash_many`) instead of collecting a parts vector.
        let mut h = FramedHasher::new();
        h.field(&stmt);
        for sig in self.shares.values() {
            h.field(sig);
        }
        let aggregate = h.finish().0;
        Ok(QuorumCertificate {
            kind: self.kind,
            view: self.view,
            seq: self.seq,
            digest: self.digest,
            signers,
            aggregate,
        })
    }
}

/// Verifies finished quorum certificates.
#[derive(Debug, Clone)]
pub struct ThresholdVerifier<'a> {
    registry: &'a KeyRegistry,
}

impl<'a> ThresholdVerifier<'a> {
    /// Creates a verifier over the given key registry.
    pub fn new(registry: &'a KeyRegistry) -> Self {
        ThresholdVerifier { registry }
    }

    /// Fully verifies a QC: threshold of distinct signers, and the aggregate
    /// value matches the recomputed aggregation of each signer's share over
    /// the statement.
    pub fn verify(&self, qc: &QuorumCertificate, threshold: u32) -> Result<()> {
        if !qc.meets_threshold(threshold) {
            return Err(ProtocolError::InvalidQc {
                reason: format!(
                    "certificate has {} distinct signers, needs {}",
                    qc.signer_count(),
                    threshold
                ),
            });
        }
        let stmt = qc_statement(qc.kind, qc.view, qc.seq, &qc.digest);
        // Recompute each signer's share; signers must be sorted and unique for
        // the aggregate to be reproducible.
        let mut sorted = qc.signers.clone();
        sorted.sort();
        sorted.dedup();
        if sorted != qc.signers {
            return Err(ProtocolError::InvalidQc {
                reason: "signer list is not sorted and deduplicated".into(),
            });
        }
        let mut h = FramedHasher::new();
        h.field(&stmt);
        for signer in &sorted {
            let kp = self
                .registry
                .key_of(Actor::Server(*signer))
                .ok_or(ProtocolError::InvalidSignature { signer: *signer })?;
            let share: Signature = kp.sign(&stmt);
            h.field(&share);
        }
        let expected = h.finish().0;
        if expected != qc.aggregate {
            return Err(ProtocolError::InvalidQc {
                reason: "aggregate signature does not match signer set".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> KeyRegistry {
        KeyRegistry::new(7, 7, 0)
    }

    fn build_qc(reg: &KeyRegistry, signers: &[u32], threshold: u32) -> Result<QuorumCertificate> {
        let digest = Digest([9u8; 32]);
        let mut builder = QcBuilder::new(QcKind::Commit, View(3), SeqNum(5), digest, threshold);
        for s in signers {
            let share = sign_share(
                reg,
                ServerId(*s),
                QcKind::Commit,
                View(3),
                SeqNum(5),
                &digest,
            )
            .unwrap();
            builder.add_share(reg, &share)?;
        }
        builder.assemble()
    }

    #[test]
    fn qc_round_trip() {
        let reg = registry();
        let qc = build_qc(&reg, &[0, 1, 2, 3, 4], 5).unwrap();
        assert_eq!(qc.signer_count(), 5);
        ThresholdVerifier::new(&reg).verify(&qc, 5).unwrap();
    }

    #[test]
    fn incomplete_builder_refuses_to_assemble() {
        let reg = registry();
        let err = build_qc(&reg, &[0, 1], 5).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidQc { .. }));
    }

    #[test]
    fn duplicate_shares_do_not_count_twice() {
        let reg = registry();
        let digest = Digest([1u8; 32]);
        let mut builder = QcBuilder::new(QcKind::Ordering, View(1), SeqNum(1), digest, 3);
        let share = sign_share(
            &reg,
            ServerId(0),
            QcKind::Ordering,
            View(1),
            SeqNum(1),
            &digest,
        )
        .unwrap();
        builder.add_share(&reg, &share).unwrap();
        builder.add_share(&reg, &share).unwrap();
        assert_eq!(builder.count(), 1);
        assert!(!builder.complete());
    }

    #[test]
    fn forged_share_is_rejected() {
        let reg = registry();
        let digest = Digest([1u8; 32]);
        let mut builder = QcBuilder::new(QcKind::Confirm, View(2), SeqNum(0), digest, 2);
        // A share claiming to come from S3 but signed with garbage.
        let forged = PartialSig {
            signer: ServerId(2),
            sig: [0xee; 32],
        };
        let err = builder.add_share(&reg, &forged).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidSignature { .. }));
    }

    #[test]
    fn share_for_wrong_statement_is_rejected() {
        let reg = registry();
        let digest_a = Digest([1u8; 32]);
        let digest_b = Digest([2u8; 32]);
        let mut builder = QcBuilder::new(QcKind::Commit, View(1), SeqNum(1), digest_a, 2);
        let share = sign_share(
            &reg,
            ServerId(0),
            QcKind::Commit,
            View(1),
            SeqNum(1),
            &digest_b,
        )
        .unwrap();
        assert!(builder.add_share(&reg, &share).is_err());
    }

    #[test]
    fn verifier_rejects_tampered_aggregate() {
        let reg = registry();
        let mut qc = build_qc(&reg, &[0, 1, 2], 3).unwrap();
        qc.aggregate[0] ^= 0xff;
        assert!(ThresholdVerifier::new(&reg).verify(&qc, 3).is_err());
    }

    #[test]
    fn verifier_rejects_insufficient_signers() {
        let reg = registry();
        let qc = build_qc(&reg, &[0, 1, 2], 3).unwrap();
        assert!(ThresholdVerifier::new(&reg).verify(&qc, 5).is_err());
    }

    #[test]
    fn verifier_rejects_padded_signer_list() {
        let reg = registry();
        let mut qc = build_qc(&reg, &[0, 1, 2], 3).unwrap();
        // A Byzantine server pads the signer list with a duplicate to fake a
        // larger quorum; structural verification catches it.
        qc.signers.push(ServerId(2));
        assert!(ThresholdVerifier::new(&reg).verify(&qc, 4).is_err());
    }

    #[test]
    fn statement_distinguishes_kinds_and_views() {
        let d = Digest::ZERO;
        assert_ne!(
            qc_statement(QcKind::Ordering, View(1), SeqNum(1), &d),
            qc_statement(QcKind::Commit, View(1), SeqNum(1), &d)
        );
        assert_ne!(
            qc_statement(QcKind::Commit, View(1), SeqNum(1), &d),
            qc_statement(QcKind::Commit, View(2), SeqNum(1), &d)
        );
    }
}

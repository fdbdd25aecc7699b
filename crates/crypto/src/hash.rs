//! Hashing helpers producing [`Digest`] values.
//!
//! These are thin conveniences over [`Sha256`] used throughout
//! the protocol code: hashing a single byte string, hashing a pair (block
//! digest + nonce for the PoW puzzle), and hashing an ordered list of parts
//! (message digests, block contents).
//!
//! The [`FramedHasher`] is the streaming form of [`hash_many`]: callers feed
//! fields one by one and each is length-framed exactly as `hash_many` frames
//! its parts, so a digest built incrementally equals the digest of the same
//! parts collected into a list — without materializing any intermediate
//! buffers. The protocol hot paths (batch digests, block digests, QC
//! aggregation) are written against it.

use crate::sha256::Sha256;
use prestige_types::{ClientId, Digest, Proposal, SeqNum, View};

/// Streaming, length-framed hasher: each [`FramedHasher::field`] call hashes
/// `(len as u64 BE) ‖ bytes`, the exact framing of [`hash_many`], so
/// streaming N fields yields the same digest as `hash_many` over the same N
/// parts. Zero allocations.
#[derive(Clone, Default)]
pub struct FramedHasher {
    inner: Sha256,
}

impl FramedHasher {
    /// Creates a fresh framed hasher.
    pub fn new() -> Self {
        FramedHasher {
            inner: Sha256::new(),
        }
    }

    /// Feeds one length-framed field.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.inner.update(&(bytes.len() as u64).to_be_bytes());
        self.inner.update(bytes);
        self
    }

    /// Finishes the hash, consuming the hasher.
    pub fn finish(self) -> Digest {
        Digest(self.inner.finalize())
    }
}

/// Digest over an ordered replication batch that both phases' shares sign,
/// from the `(client, request number)` identities it orders — the one copy
/// of the field framing, fed by [`batch_digest`] from the proposals of an
/// `Ord` and by the commit path from the transactions of a block body.
///
/// Fields stream into one incremental SHA-256 with the same length framing
/// the original list-of-parts spec used (`hash_many` over
/// `["batch", view, n, client₀, ts₀, client₁, ts₁, …]`), so the digest value
/// is unchanged — pinned by the compatibility proptests — but computing it
/// allocates nothing.
pub fn batch_digest_of_keys(
    view: View,
    n: SeqNum,
    keys: impl IntoIterator<Item = (ClientId, u64)>,
) -> Digest {
    let mut h = FramedHasher::new();
    h.field(b"batch")
        .field(&view.0.to_be_bytes())
        .field(&n.0.to_be_bytes());
    for (client, timestamp) in keys {
        h.field(&client.0.to_be_bytes())
            .field(&timestamp.to_be_bytes());
    }
    h.finish()
}

/// [`batch_digest_of_keys`] over the proposals of an ordered batch.
///
/// Lives here (rather than in `prestige-core`, which re-exports it) so
/// harnesses can compute ordering digests without depending on the core.
pub fn batch_digest(view: View, n: SeqNum, batch: &[Proposal]) -> Digest {
    batch_digest_of_keys(view, n, batch.iter().map(|p| p.tx.key()))
}

/// Hashes a single byte string into a [`Digest`].
pub fn digest_of(data: &[u8]) -> Digest {
    Digest(Sha256::digest(data))
}

/// Hashes the concatenation of two parts with length framing, so that
/// `hash_pair(a, b)` never collides with `hash_pair(a', b')` for a different
/// split of the same concatenated bytes.
pub fn hash_pair(a: &[u8], b: &[u8]) -> Digest {
    let mut h = FramedHasher::new();
    h.field(a).field(b);
    h.finish()
}

/// Hashes an ordered sequence of parts with length framing.
pub fn hash_many<'a, I>(parts: I) -> Digest
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut h = FramedHasher::new();
    for part in parts {
        h.field(part);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_is_sha256() {
        assert_eq!(digest_of(b"abc").0, Sha256::digest(b"abc"));
    }

    #[test]
    fn hash_pair_is_framing_safe() {
        // Without framing these would collide: "ab" + "c" vs "a" + "bc".
        assert_ne!(hash_pair(b"ab", b"c"), hash_pair(b"a", b"bc"));
    }

    #[test]
    fn hash_many_matches_hash_pair_for_two_parts() {
        assert_eq!(
            hash_many([b"view".as_slice(), b"block".as_slice()]),
            hash_pair(b"view", b"block")
        );
    }

    #[test]
    fn hash_many_order_sensitive() {
        assert_ne!(
            hash_many([b"a".as_slice(), b"b".as_slice()]),
            hash_many([b"b".as_slice(), b"a".as_slice()])
        );
    }

    #[test]
    fn empty_parts_are_distinguished() {
        assert_ne!(
            hash_many([b"".as_slice(), b"x".as_slice()]),
            hash_many([b"x".as_slice(), b"".as_slice()])
        );
    }

    #[test]
    fn framed_hasher_equals_hash_many() {
        let parts: Vec<&[u8]> = vec![b"batch", b"\x00\x01", b"", b"tail"];
        let mut h = FramedHasher::new();
        for p in &parts {
            h.field(p);
        }
        assert_eq!(h.finish(), hash_many(parts.iter().copied()));
    }
}

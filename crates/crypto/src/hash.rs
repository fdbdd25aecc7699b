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
//! buffers.
//!
//! A batch's transactions are hashed once, by [`keys_digest`], and both
//! protocol digests over a batch are built on that one value:
//!
//! ```text
//! keys digest      K = SHA-256(tag ‖ client₀ ‖ number₀ ‖ client₁ ‖ number₁ ‖ …)
//! ordering digest      hash_many(["batch", view, n, K])        — ordering_digest
//! txBlock chain digest hash_many(["txblock", n, prev, K])      — prestige_core::storage
//! ```
//!
//! so a node that hashed a batch's keys at `Ord` time reuses `K` to link the
//! committed block into its chain instead of hashing the keys again.

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

/// Width of one `(client u64 BE ‖ number u64 BE)` record in [`keys_digest`];
/// the domain tag is exactly one record wide, so records stay 16-byte
/// aligned against SHA-256's 64-byte blocks.
const KEY_RECORD_LEN: usize = 16;

/// Domain tag opening every [`keys_digest`] input.
const KEYS_DIGEST_TAG: &[u8; KEY_RECORD_LEN] = b"prestige-keys-v1";

/// Records staged on the stack per `Sha256::update` call.
const KEYS_PER_CHUNK: usize = 64;

/// The one hash over a batch's transaction identities: SHA-256 over the
/// 16-byte domain tag `prestige-keys-v1` followed by one fixed-width 16-byte
/// record per `(client, request number)` key, in batch order. Records are
/// fixed-width, so the encoding is injective without per-field length
/// framing. Records stream through a stack buffer into one incremental hash
/// — no allocation.
pub fn keys_digest(keys: impl IntoIterator<Item = (ClientId, u64)>) -> Digest {
    let mut h = Sha256::new();
    let mut buf = [0u8; KEYS_PER_CHUNK * KEY_RECORD_LEN];
    buf[..KEY_RECORD_LEN].copy_from_slice(KEYS_DIGEST_TAG);
    let mut len = KEY_RECORD_LEN;
    for (client, number) in keys {
        if len == buf.len() {
            h.update(&buf);
            len = 0;
        }
        buf[len..len + 8].copy_from_slice(&client.0.to_be_bytes());
        buf[len + 8..len + KEY_RECORD_LEN].copy_from_slice(&number.to_be_bytes());
        len += KEY_RECORD_LEN;
    }
    h.update(&buf[..len]);
    Digest(h.finalize())
}

/// Digest over an ordered replication batch that both phases' shares sign:
/// `hash_many(["batch", view, n, keys])`, where `keys` is the batch's
/// [`keys_digest`]. Binds the ordering view, unlike the chain digest.
pub fn ordering_digest(view: View, n: SeqNum, keys: &Digest) -> Digest {
    let mut h = FramedHasher::new();
    h.field(b"batch")
        .field(&view.0.to_be_bytes())
        .field(&n.0.to_be_bytes())
        .field(&keys.0);
    h.finish()
}

/// [`ordering_digest`] of a batch of proposals, hashing its keys.
///
/// Lives here (rather than in `prestige-core`, which re-exports it) so
/// harnesses can compute ordering digests without depending on the core.
pub fn batch_digest(view: View, n: SeqNum, batch: &[Proposal]) -> Digest {
    ordering_digest(view, n, &keys_digest(batch.iter().map(|p| p.tx.key())))
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
    fn keys_digest_hashes_tag_then_fixed_width_records() {
        assert_eq!(keys_digest([]).0, Sha256::digest(KEYS_DIGEST_TAG));
        let mut bytes = KEYS_DIGEST_TAG.to_vec();
        bytes.extend_from_slice(&7u64.to_be_bytes());
        bytes.extend_from_slice(&9u64.to_be_bytes());
        assert_eq!(keys_digest([(ClientId(7), 9)]).0, Sha256::digest(&bytes));
    }

    #[test]
    fn ordering_digest_binds_view_and_position() {
        let keys = keys_digest([(ClientId(1), 1)]);
        let base = ordering_digest(View(1), SeqNum(1), &keys);
        assert_ne!(base, ordering_digest(View(2), SeqNum(1), &keys));
        assert_ne!(base, ordering_digest(View(1), SeqNum(2), &keys));
        assert_ne!(base, ordering_digest(View(1), SeqNum(1), &keys_digest([])));
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

//! Transactions, digests, and client proposals.
//!
//! A client invokes the consensus service by broadcasting a proposal
//! `⟨Prop, t, d, c, σc, tx⟩` (§4.3 of the paper) containing a unique timestamp,
//! the transaction payload, its digest, the client id, and the client's
//! signature. The types here model that message's payload; the signature
//! itself lives in `prestige-crypto`.

use crate::ids::ClientId;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A 32-byte digest (SHA-256 output size).
///
/// `prestige-crypto` produces these; they are defined here so block and
/// message types can reference digests without depending on the crypto crate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the "previous block" pointer of genesis
    /// blocks.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Renders the first `n` bytes as lowercase hex (for logs and traces).
    pub fn short_hex(&self, n: usize) -> String {
        self.0
            .iter()
            .take(n)
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
    }

    /// Number of leading zero bytes, used to verify proof-of-work results
    /// (criterion C5: the hash result must have a prefix of `rp` zero units).
    pub fn leading_zero_bytes(&self) -> u32 {
        let mut count = 0;
        for b in self.0.iter() {
            if *b == 0 {
                count += 1;
            } else {
                break;
            }
        }
        count
    }

    /// Number of leading zero bits, used by the "scaled" PoW difficulty mode
    /// so unit tests and benches can exercise the real solver quickly.
    pub fn leading_zero_bits(&self) -> u32 {
        let mut count = 0;
        for b in self.0.iter() {
            if *b == 0 {
                count += 8;
            } else {
                count += b.leading_zeros();
                break;
            }
        }
        count
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", self.short_hex(4))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex(8))
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A client transaction: an opaque payload plus bookkeeping identity.
///
/// The evaluation uses random payloads of `m = 32` or `64` bytes; the payload
/// length is what matters for the bandwidth model. The payload is shared:
/// the client allocates it once, and every copy after that (each recipient
/// of the proposal, each replica's pool, the ordered batch, the block body)
/// is a reference-count bump. It encodes exactly as a `Vec<u8>` would.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Transaction {
    /// The client that issued this transaction.
    pub client: ClientId,
    /// Client-local unique timestamp / request counter.
    pub timestamp: u64,
    /// Opaque payload bytes.
    pub payload: Arc<[u8]>,
}

impl Transaction {
    /// Creates a transaction with the given identity and payload.
    pub fn new(client: ClientId, timestamp: u64, payload: impl Into<Arc<[u8]>>) -> Self {
        Transaction {
            client,
            timestamp,
            payload: payload.into(),
        }
    }

    /// Creates a transaction whose payload is `size` filler bytes derived from
    /// the identity — convenient for workload generators that only care about
    /// the message size `m`.
    pub fn with_size(client: ClientId, timestamp: u64, size: usize) -> Self {
        let seed = client.0 as usize + timestamp as usize;
        // An exact-size iterator collects into the `Arc` in one allocation.
        let payload = (0..size).map(|i| (seed + i) as u8).collect();
        Transaction {
            client,
            timestamp,
            payload,
        }
    }

    /// Serialized size in bytes, used by the network bandwidth model.
    pub fn wire_size(&self) -> usize {
        8 + 8 + self.payload.len()
    }

    /// A stable identity key `(client, timestamp)` used to deduplicate
    /// proposals and to match commits with outstanding client requests.
    pub fn key(&self) -> (ClientId, u64) {
        (self.client, self.timestamp)
    }
}

/// A client proposal message payload (`Prop` in §4.3) — the transaction plus
/// the digest the client computed over it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Proposal {
    /// The proposed transaction.
    pub tx: Transaction,
    /// Digest of the transaction, signed by the client.
    pub digest: Digest,
}

impl Proposal {
    /// Creates a proposal wrapping `tx` with its `digest`.
    pub fn new(tx: Transaction, digest: Digest) -> Self {
        Proposal { tx, digest }
    }

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        self.tx.wire_size() + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_leading_zero_bytes() {
        let mut d = Digest::ZERO;
        assert_eq!(d.leading_zero_bytes(), 32);
        d.0[0] = 1;
        assert_eq!(d.leading_zero_bytes(), 0);
        let mut d2 = Digest::ZERO;
        d2.0[3] = 0xff;
        assert_eq!(d2.leading_zero_bytes(), 3);
    }

    #[test]
    fn digest_leading_zero_bits() {
        let mut d = Digest::ZERO;
        assert_eq!(d.leading_zero_bits(), 256);
        d.0[0] = 0b0001_0000;
        assert_eq!(d.leading_zero_bits(), 3);
        let mut d2 = Digest::ZERO;
        d2.0[1] = 0b0100_0000;
        assert_eq!(d2.leading_zero_bits(), 9);
    }

    #[test]
    fn transaction_with_size_has_requested_payload_length() {
        let tx = Transaction::with_size(ClientId(7), 3, 32);
        assert_eq!(tx.payload.len(), 32);
        assert_eq!(tx.wire_size(), 48);
    }

    #[test]
    fn transaction_key_is_stable() {
        let a = Transaction::with_size(ClientId(1), 10, 32);
        let b = Transaction::with_size(ClientId(1), 10, 64);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn digest_display_is_hex() {
        let mut d = Digest::ZERO;
        d.0[0] = 0xab;
        assert!(d.to_string().starts_with("ab"));
    }
}

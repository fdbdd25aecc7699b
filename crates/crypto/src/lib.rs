//! # prestige-crypto
//!
//! Cryptographic substrate for the PrestigeBFT reproduction:
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation validated against the
//!   FIPS-180 test vectors. Used for digests, signatures, and the
//!   proof-of-work puzzle.
//! * [`hash`] — convenience hashing helpers producing [`prestige_types::Digest`].
//! * [`signature`] — deterministic keyed-MAC signatures standing in for the
//!   public-key signatures the paper assumes. A node cannot forge another
//!   node's signature because it does not hold that node's key; verification
//!   in the simulation is performed by a key registry that models a PKI.
//! * [`threshold`] — `(t, n)` threshold-signature simulation: individual
//!   shares are aggregated into constant-size quorum certificates and verified
//!   against the registry, reproducing the O(n) → O(1) compression of
//!   Shoup-style threshold signatures the paper relies on.
//! * [`pow`] — the reputation-penalty proof-of-work puzzle (§4.2.2), with a
//!   *real* solver (iterating SHA-256) and a *modeled* solver (sampling the
//!   geometric attempt distribution) so that cluster experiments reproduce the
//!   exponential attacker cost of Figure 12 without hours of CPU time.
//!
//! Every check here is a plain function call made on the calling node's own
//! thread: a keyed-MAC verification costs a few hundred nanoseconds, far less
//! than handing it to another thread and back, so the crate owns no threads.
//!
//! See DESIGN.md §1 for the substitution rationale.

#![warn(missing_docs)]

pub mod hash;
pub mod pow;
pub mod sha256;
pub mod signature;
pub mod threshold;

pub use hash::{
    batch_digest, digest_of, hash_many, hash_pair, keys_digest, ordering_digest, FramedHasher,
};
pub use pow::{PowPuzzle, PowSolution, PowSolver};
pub use sha256::Sha256;
pub use signature::{KeyPair, KeyRegistry, Signature};
pub use threshold::{qc_statement, sign_share, QcBuilder, ThresholdVerifier, QC_STATEMENT_LEN};

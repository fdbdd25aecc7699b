//! Keyed-MAC signatures standing in for public-key signatures.
//!
//! The paper assumes standard digital signatures (`σ_Si`, `σ_c`) plus a PKI:
//! every server can verify every other participant's signature, and a faulty
//! server cannot produce a valid signature of a non-faulty server (§4.1,
//! "computationally bound"). In this reproduction, signatures are 32-byte
//! keyed MACs: `sig = SHA-256(secret_key ‖ message)`. Unforgeability holds in
//! the simulation because only the owner holds `secret_key`; verification is
//! performed through a [`KeyRegistry`] that plays the role of the PKI (it can
//! recompute the MAC for any registered identity).
//!
//! The *performance* effect of real signature verification is modeled
//! separately by the simulator's per-verification CPU cost
//! (`prestige_sim::cpu_cost::PER_VERIFY_MS`), so substituting MACs for public-key
//! signatures does not distort the throughput comparisons.

use crate::hash::hash_many;
use prestige_types::{Actor, ClientId, ServerId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A 32-byte signature value.
pub type Signature = [u8; 32];

/// A signing identity: the secret key plus the public identity it belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    /// The actor this key belongs to.
    pub owner: Actor,
    secret: [u8; 32],
}

impl KeyPair {
    /// Derives the key pair for a given actor from a cluster-wide seed. Every
    /// honest node derives the *registry* the same way, but only the owner is
    /// ever handed its own `KeyPair` by the harness, which preserves the
    /// unforgeability assumption inside the simulation.
    pub fn derive(owner: Actor, cluster_seed: u64) -> Self {
        let tag: Vec<u8> = match owner {
            Actor::Server(ServerId(i)) => {
                let mut v = b"server-key".to_vec();
                v.extend_from_slice(&i.to_be_bytes());
                v
            }
            Actor::Client(ClientId(i)) => {
                let mut v = b"client-key".to_vec();
                v.extend_from_slice(&i.to_be_bytes());
                v
            }
        };
        let secret = hash_many([tag.as_slice(), &cluster_seed.to_be_bytes()]).0;
        KeyPair { owner, secret }
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        hash_many([self.secret.as_slice(), message]).0
    }
}

/// The registry of all participants' keys — the simulation's stand-in for a
/// PKI. Verification recomputes the MAC with the claimed signer's key.
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: HashMap<Actor, KeyPair>,
}

impl KeyRegistry {
    /// Builds a registry covering `n_servers` servers and `n_clients` clients,
    /// all derived from `cluster_seed`.
    pub fn new(cluster_seed: u64, n_servers: u32, n_clients: u64) -> Self {
        let mut keys = HashMap::new();
        for i in 0..n_servers {
            let actor = Actor::Server(ServerId(i));
            keys.insert(actor, KeyPair::derive(actor, cluster_seed));
        }
        for i in 0..n_clients {
            let actor = Actor::Client(ClientId(i));
            keys.insert(actor, KeyPair::derive(actor, cluster_seed));
        }
        KeyRegistry { keys }
    }

    /// Returns the key pair of `actor` (the harness hands this to the owning
    /// node only).
    pub fn key_of(&self, actor: Actor) -> Option<&KeyPair> {
        self.keys.get(&actor)
    }

    /// Verifies that `sig` is `actor`'s signature over `message`.
    pub fn verify(&self, actor: Actor, message: &[u8], sig: &Signature) -> bool {
        match self.keys.get(&actor) {
            Some(kp) => &kp.sign(message) == sig,
            None => false,
        }
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let reg = KeyRegistry::new(42, 4, 2);
        let s1 = Actor::Server(ServerId(0));
        let kp = reg.key_of(s1).unwrap().clone();
        let sig = kp.sign(b"Ord V1 T1");
        assert!(reg.verify(s1, b"Ord V1 T1", &sig));
        assert!(!reg.verify(s1, b"Ord V1 T2", &sig));
    }

    #[test]
    fn signatures_are_owner_specific() {
        let reg = KeyRegistry::new(42, 4, 0);
        let s1 = Actor::Server(ServerId(0));
        let s2 = Actor::Server(ServerId(1));
        let sig1 = reg.key_of(s1).unwrap().sign(b"msg");
        // S2 cannot pass off S1's message signature as its own, nor forge S1's.
        assert!(!reg.verify(s2, b"msg", &sig1));
        let sig2 = reg.key_of(s2).unwrap().sign(b"msg");
        assert_ne!(sig1, sig2);
    }

    #[test]
    fn unknown_actor_never_verifies() {
        let reg = KeyRegistry::new(42, 4, 0);
        assert!(!reg.verify(Actor::Server(ServerId(9)), b"msg", &[0u8; 32]));
    }

    #[test]
    fn derivation_is_deterministic_per_seed() {
        let a = KeyPair::derive(Actor::Server(ServerId(3)), 7);
        let b = KeyPair::derive(Actor::Server(ServerId(3)), 7);
        let c = KeyPair::derive(Actor::Server(ServerId(3)), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn registry_covers_servers_and_clients() {
        let reg = KeyRegistry::new(1, 4, 3);
        assert_eq!(reg.len(), 7);
        assert!(!reg.is_empty());
        assert!(reg.key_of(Actor::Client(ClientId(2))).is_some());
    }
}

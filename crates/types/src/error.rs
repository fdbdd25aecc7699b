//! Protocol error types.
//!
//! Errors are used for *rejections*: a certificate, share or proof of work
//! that fails verification is dropped and the reason recorded. They are not
//! used for Byzantine-fault *handling* — a Byzantine peer's message simply
//! fails one of these checks.

use crate::ids::ServerId;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, ProtocolError>;

/// The ways a protocol message or state transition can be rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum ProtocolError {
    /// A quorum certificate did not meet its threshold or failed verification.
    InvalidQc {
        /// Human-readable reason.
        reason: String,
    },
    /// A signature or threshold share failed verification.
    InvalidSignature {
        /// The claimed signer.
        signer: ServerId,
    },
    /// A candidate's proof-of-work result does not match its penalty
    /// (criterion C5).
    InvalidPow {
        /// The required number of leading zero units.
        required: u32,
        /// The number actually present in the hash result.
        found: u32,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidQc { reason } => {
                write!(f, "invalid quorum certificate: {reason}")
            }
            ProtocolError::InvalidSignature { signer } => {
                write!(f, "invalid signature claimed from {signer}")
            }
            ProtocolError::InvalidPow { required, found } => {
                write!(
                    f,
                    "invalid proof of work: required {required} zero units, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ProtocolError::InvalidSignature {
            signer: ServerId(3),
        };
        assert!(e.to_string().contains(&ServerId(3).to_string()));

        let e = ProtocolError::InvalidPow {
            required: 4,
            found: 1,
        };
        assert!(e.to_string().contains("required 4"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            ProtocolError::InvalidSignature {
                signer: ServerId(2)
            },
            ProtocolError::InvalidSignature {
                signer: ServerId(2)
            }
        );
        assert_ne!(
            ProtocolError::InvalidSignature {
                signer: ServerId(2)
            },
            ProtocolError::InvalidSignature {
                signer: ServerId(3)
            }
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(ProtocolError::InvalidQc {
            reason: "bad".into(),
        });
        assert!(e.to_string().contains("bad"));
    }
}

//! # prestige-types
//!
//! Common protocol types shared by every crate in the PrestigeBFT reproduction:
//!
//! * identifiers — [`ServerId`], [`ClientId`], [`View`], [`SeqNum`] ([`ids`])
//! * transactions and client proposals ([`transaction`])
//! * the two consensus block kinds of the paper's Figure 3 — [`TxBlock`] and
//!   [`VcBlock`] ([`blocks`])
//! * quorum certificates ([`qc`])
//! * the bounded per-client request-number set behind request dedup
//!   ([`seqwindow`])
//! * the full protocol message vocabulary ([`message`])
//! * cluster / timeout / view-change policy configuration ([`config`])
//! * error types ([`error`])
//!
//! The types are deliberately protocol-agnostic: both the PrestigeBFT core
//! (`prestige-core`) and the baseline protocols (`prestige-baselines`) build on
//! the same vocabulary, which keeps the evaluation comparison apples-to-apples.

#![warn(missing_docs)]

pub mod blocks;
pub mod config;
pub mod error;
pub mod ids;
pub mod message;
pub mod qc;
pub mod seqwindow;
pub mod transaction;

pub use blocks::{BlockHeader, TxBlock, VcBlock};
pub use config::{ClusterConfig, TimeoutConfig, ViewChangePolicy};
pub use error::{ProtocolError, Result};
pub use ids::{ClientId, ReplicaSet, SeqNum, ServerId, View};
pub use message::{Actor, Message, MessageKind, NetMessage, OrderedEntry, Wire};
pub use qc::{PartialSig, QcKind, QuorumCertificate};
pub use seqwindow::{SeqWindow, REQUEST_WINDOW};
pub use transaction::{Digest, Proposal, Transaction};

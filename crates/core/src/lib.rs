//! # prestige-core
//!
//! The PrestigeBFT consensus algorithm — the paper's primary contribution.
//!
//! A [`PrestigeServer`] is a deterministic event handler (driven by
//! `prestige-sim`) that implements:
//!
//! * the **active view-change protocol** (§4.2): failure detection through
//!   client complaints (`Compt` → `ConfVC` → `ReVC` → `conf_QC`), the
//!   follower → redeemer → candidate → leader state machine of Figure 5,
//!   reputation-determined proof-of-work, the five voting criteria C1–C5,
//!   `SyncUp` for stale voters, vcBlock consensus, and the §4.2.5 penalty
//!   refresh;
//! * the **two-phase replication protocol** (§4.3): ordering and commit
//!   phases building `ordering_QC`/`commit_QC`, txBlock production, and
//!   client notification;
//! * the **reputation engine** integration (`prestige-reputation`);
//! * the paper's **Byzantine behaviours** F1–F4 and attack strategies S1/S2
//!   ([`faults`]), used by the evaluation harness;
//! * a closed-loop **client** ([`client`]) that proposes transactions,
//!   collects `f + 1` notifications, and complains about unresponsive leaders.
//!
//! * the **certified recovery plane**: PBFT-new-view-style certified
//!   view-change state transfer (campaign tip claims proven by ordering
//!   QCs — see `view_change::certify`) and a first-class rate-limited
//!   sync/retransmission subsystem (`sync`) that repairs stalled quorum
//!   rounds without a view change;
//! * the **durable storage plane** ([`durability`]): write-ahead logging of
//!   commits through the `prestige-storage` seam, quorum-certified
//!   checkpoints that anchor log GC and far-behind catch-up, and crash-restart
//!   replay that rebuilds a replica's committed state from disk.
//!
//! The crate has no I/O: all communication goes through the simulator's
//! context, so every experiment is reproducible from a seed.

#![warn(missing_docs)]

pub mod client;
pub mod durability;
pub mod faults;
pub mod histogram;
pub mod pacemaker;
pub mod profile;
pub mod server;
pub mod storage;

mod client_table;
mod refresh_proto;
mod replication;
mod sync;
mod view_change;

pub use client::{ClientConfig, ClientStats, PrestigeClient};
pub use client_table::{keys_by_client, ClientTable};
pub use faults::{AttackStrategy, ByzantineBehavior};
pub use histogram::LatencyHistogram;
pub use pacemaker::{timer_tags, Pacemaker};
/// The configuration types [`PrestigeServer`]'s constructors take, for
/// crates that build one without depending on `prestige-types` themselves.
pub use prestige_types::{ClusterConfig, TimeoutConfig, ViewChangePolicy};
pub use profile::{LoopProfile, LoopSnapshot, LoopStage};
pub use replication::batch_digest;
pub use server::{PrestigeServer, ServerRole, ServerStats};
pub use storage::BlockStore;
pub use view_change::Refusal;

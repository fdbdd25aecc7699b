//! # prestige-baselines
//!
//! The baseline BFT protocols the paper compares PrestigeBFT against,
//! implemented on the *same* substrate (simulator, crypto, block store,
//! clients) so the comparison isolates exactly what the paper isolates: the
//! view-change protocol and the number of replication phases.
//!
//! * **HotStuff-style** ([`BaselineProtocol::HotStuff`]) — three-phase
//!   replication (prepare → pre-commit → commit) with the passive view-change
//!   protocol inherited from PBFT: leadership rotates on a fixed schedule
//!   (`L = V mod n`), an unavailable scheduled leader costs a full timeout,
//!   and an incoming leader must sync up before proposing.
//! * **SBFT-lite** ([`BaselineProtocol::SbftLite`]) — the same linear
//!   collector pattern with three phases plus an additional execution
//!   acknowledgement round, reflecting SBFT's extra client-facing phase.
//! * **Prosecutor-lite** ([`BaselineProtocol::ProsecutorLite`]) — two-phase
//!   replication with the passive schedule, approximating the authors' prior
//!   system's replication pipeline (its PoW penalization concerns the
//!   campaign path, which the passive schedule here does not exercise).
//!
//! All three are served by [`PassiveBftServer`]; the profile selects the phase
//! ladder ([`BaselineProtocol::phases`]) and cost knobs. They reuse
//! `prestige-core`'s client, statistics, and block store.

#![warn(missing_docs)]

pub mod passive;

pub use passive::{BaselineProtocol, PassiveBftServer};

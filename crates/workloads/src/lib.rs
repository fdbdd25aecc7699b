//! # prestige-workloads
//!
//! Scenario descriptions for the evaluation: which protocol runs, how many
//! client processes, how many requests each keeps in flight, the payload
//! size `m`, the network, and which fault pattern is injected. [`scenario`]
//! is the one description the vopr simulator, the paper's figures
//! (`prestige-experiments`) and `chaos_net` all run, read from the
//! mini-TOML in [`toml`].

#![warn(missing_docs)]

pub mod fault_plan;
pub mod scenario;
pub mod toml;

pub use fault_plan::FaultPlan;
pub use scenario::{Link, ProtocolChoice, Scenario};

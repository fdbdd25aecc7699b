//! # prestige-workloads
//!
//! Workload and scenario descriptions for the evaluation: how many client
//! processes, how many requests each keeps in flight, the payload size `m`,
//! and which fault pattern is injected. The experiment harness
//! (`prestige-experiments`) turns these descriptions into concrete clusters;
//! [`scenario`] is the one fault-timeline description `chaos_net` and the
//! vopr simulator both run, read from the mini-TOML in [`toml`].

#![warn(missing_docs)]

pub mod fault_plan;
pub mod scenario;
pub mod spec;
pub mod toml;

pub use fault_plan::FaultPlan;
pub use scenario::Scenario;
pub use spec::{ProtocolChoice, WorkloadSpec};

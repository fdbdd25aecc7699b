//! # prestige-sim
//!
//! A deterministic discrete-event cluster simulator. It stands in for the
//! paper's testbed of 4–100 cloud VMs connected by TCP (see DESIGN.md §1):
//!
//! * a virtual clock with nanosecond resolution ([`time`]),
//! * a deterministic event queue — same seed, same trace ([`event`], [`runtime`]),
//! * a network model with per-link latency distributions (constant, uniform,
//!   normal — reproducing the paper's netem `d = 10 ± 5 ms` emulation),
//!   per-sender bandwidth serialization, message loss, and partitions
//!   ([`network`]),
//! * a node abstraction: protocol implementations are event handlers reacting
//!   to message deliveries and timer expirations ([`process`]),
//! * per-node CPU cost accounting so that signature verification and batch
//!   hashing show up as processing delay, which is what creates the
//!   throughput/latency elbows of Figure 6 ([`runtime`], priced by
//!   [`cpu_cost`]),
//! * execution statistics: message and byte counts per message kind
//!   ([`stats`]).
//!
//! Both PrestigeBFT (`prestige-core`) and the baselines
//! (`prestige-baselines`) run unchanged on this substrate, which is what makes
//! the evaluation comparison apples-to-apples.

#![warn(missing_docs)]

pub mod event;
pub mod network;
pub mod process;
pub mod rng;
pub mod runtime;
pub mod stats;
pub mod time;

pub use event::{Event, EventPayload, TimerId};
pub use network::{LatencyModel, LinkState, NetworkConfig};
pub use process::{cpu_cost, Context, Effects, Emission, Process};
pub use rng::SimRng;
pub use runtime::Simulation;
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};

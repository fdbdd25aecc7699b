//! # prestigebft
//!
//! A from-scratch Rust reproduction of **PrestigeBFT** — the leader-based BFT
//! consensus algorithm with *active*, reputation-driven view changes
//! (Zhang, Pan, Tijanic, Jacobsen; ICDE 2024).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`core`] (`prestige-core`) — the PrestigeBFT server, client, Byzantine
//!   behaviours, pacemaker, and block store;
//! * [`reputation`] (`prestige-reputation`) — the reputation engine
//!   (Algorithm 1: penalization + compensation, penalty refresh);
//! * [`crypto`] (`prestige-crypto`) — SHA-256, keyed signatures, threshold
//!   quorum certificates, the reputation proof-of-work puzzle;
//! * [`sim`] (`prestige-sim`) — the deterministic discrete-event cluster
//!   simulator that stands in for the paper's VM testbed;
//! * [`net`] (`prestige-net`) — the real networking runtime: wire codec,
//!   loopback + TCP transports, and the node runtime that runs the same
//!   servers on actual sockets (see `examples/real_cluster.rs`);
//! * [`storage`] (`prestige-storage`) — the durable storage plane: the
//!   append-only, CRC-chained write-ahead log that servers commit through
//!   and replay on crash-restart;
//! * [`baselines`] (`prestige-baselines`) — HotStuff-style / SBFT-lite /
//!   Prosecutor-lite passive-view-change baselines;
//! * [`vopr`] (`prestige-vopr`) — `SimCluster`, the one builder of simulated
//!   clusters, and the falsification harness that checks every safety
//!   invariant after every event;
//! * [`types`], [`workloads`], [`metrics`], [`experiments`] — shared types,
//!   the scenario description (protocol, cluster, workload, network, faults),
//!   measurement tools, and the harness that regenerates every figure of the
//!   paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use prestigebft::prelude::*;
//!
//! // A 4-server PrestigeBFT cluster plus one client on the paper's LAN,
//! // described as a scenario — the form the figures, the vopr swarm and the
//! // `scenarios/*.toml` files share — and built on the simulator.
//! let scenario = Scenario {
//!     seed: 7,
//!     clients: 1,
//!     concurrency: 50,
//!     batch_size: 50,
//!     network: Link::LAN,
//!     ..Scenario::default()
//! };
//! let mut cluster = SimCluster::new(&scenario);
//!
//! // Run two simulated seconds and inspect the committed state.
//! cluster.sim.run_until(SimTime::from_secs(2.0));
//! let server: &PrestigeServer = cluster.server(0).unwrap();
//! assert!(server.stats().committed_tx > 0);
//! ```

pub use prestige_baselines as baselines;
pub use prestige_core as core;
pub use prestige_crypto as crypto;
pub use prestige_experiments as experiments;
pub use prestige_metrics as metrics;
pub use prestige_net as net;
pub use prestige_reputation as reputation;
pub use prestige_sim as sim;
pub use prestige_storage as storage;
pub use prestige_types as types;
pub use prestige_vopr as vopr;
pub use prestige_workloads as workloads;

/// The most commonly used items, re-exported flat for examples and tests.
pub mod prelude {
    pub use prestige_baselines::{BaselineProtocol, PassiveBftServer};
    pub use prestige_core::{
        AttackStrategy, ByzantineBehavior, ClientConfig, LatencyHistogram, PrestigeClient,
        PrestigeServer, ServerRole,
    };
    pub use prestige_crypto::{KeyRegistry, PowPuzzle, PowSolver, Sha256};
    pub use prestige_experiments::{all_experiments, Scale};
    pub use prestige_metrics::Table;
    pub use prestige_net::{LocalCluster, NodeHandle};
    pub use prestige_reputation::{CalcRpInput, ReputationEngine};
    pub use prestige_sim::{NetworkConfig, SimDuration, SimTime, Simulation};
    pub use prestige_types::{
        Actor, ClientId, ClusterConfig, Message, ReplicaSet, SeqNum, ServerId, TimeoutConfig, View,
        ViewChangePolicy,
    };
    pub use prestige_vopr::SimCluster;
    pub use prestige_workloads::{FaultPlan, Link, ProtocolChoice, Scenario};
}

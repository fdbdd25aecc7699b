//! # prestige-net
//!
//! The real networking runtime for PrestigeBFT: everything needed to take the
//! I/O-free protocol implementations of `prestige-core` from the
//! deterministic simulator onto actual sockets, unmodified.
//!
//! Four layers, bottom to top:
//!
//! 1. **wire codec** ([`frame`]) — serde-derived binary encoding of
//!    `prestige-types` messages wrapped in length-prefixed frames with a
//!    magic preamble, a wire version, and a max-frame guard;
//! 2. **transport abstraction** ([`transport`], [`tcp`]) — the [`Transport`]
//!    trait with two implementations: a channel-based in-process loopback
//!    (fast, used by integration tests and CI) and a TCP transport with
//!    per-peer reconnecting outbound queues and bounded backpressure;
//! 3. **node runtime** ([`runtime`]) — an event loop that drives any
//!    `prestige_sim::Process` with real timers and real deliveries through
//!    the same `Context`/`Effects` driver contract the simulator uses, so
//!    protocol code cannot tell which runtime it is on;
//! 4. **cluster launcher** ([`cluster`], [`config`]) — one-call in-process
//!    cluster bring-up: one [`Cluster<F>`] generic over the [`Fabric`] that
//!    hands out its endpoints (`LocalCluster` = channels, `TcpCluster` =
//!    `127.0.0.1` sockets), so behaviours, chaos, storage and crash/restart
//!    work on both; plus the TOML-configured building blocks the
//!    `prestige-node` binary uses for multi-process deployments.
//!
//! On top of these sits the **adversarial harness**: [`chaos`] injects link
//! delay, loss, and (a)symmetric partitions and their heals at the
//! `Transport` seam, [`Cluster::launch_full`] attaches the paper's Byzantine
//! behaviours (F1–F4, S1/S2) to real nodes on either fabric, and the
//! `chaos_net` binary runs declarative attack scenarios with no-fork and
//! recovery assertions (see `docs/ATTACKS.md`).
//!
//! ## Why the simulator and the runtime can share protocol code
//!
//! `prestige-core` servers and clients are deterministic event handlers: they
//! react to message deliveries and timer expirations, and buffer their
//! effects (sends, timer arms/cancels) into `prestige_sim::Effects`. The
//! simulator replays those effects into a virtual event queue; this crate
//! replays them into socket writes and a timer heap serviced by an OS
//! thread. `SimTime` is plain nanoseconds, so all protocol timeout arithmetic
//! transfers 1:1 to wall-clock time.
//!
//! ## Quick start (in-process cluster)
//!
//! ```
//! use prestige_net::cluster::LocalCluster;
//! use prestige_types::ClusterConfig;
//! use std::time::Duration;
//!
//! let config = ClusterConfig::new(4).with_batch_size(50);
//! let cluster = LocalCluster::launch(config, 7, 1, 32);
//! let committed = cluster.wait_until(Duration::from_secs(20), |c| {
//!     c.total_committed() >= 100
//! });
//! assert!(committed, "cluster must commit transactions on the real runtime");
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod config;
pub mod frame;
pub mod runtime;
pub mod tcp;
pub mod transport;

pub use chaos::{ChaosTransport, NetChaos};
pub use cluster::{
    launch_tcp_client, launch_tcp_server, verify_no_fork_chains, Cluster, Fabric, LocalCluster,
    StoragePlan, TcpCluster,
};
pub use config::{NodeConfig, NodeRole};
pub use frame::{FrameCodec, FrameError, DEFAULT_MAX_FRAME, MAGIC, WIRE_VERSION};
pub use runtime::{JobSource, NodeHandle};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{LoopbackNet, LoopbackTransport, Transport, TransportStats, TransportTotals};

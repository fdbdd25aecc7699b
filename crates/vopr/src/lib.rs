//! # prestige-vopr
//!
//! A deterministic falsification harness (a VOPR, in TigerBeetle's coinage:
//! Viewstamped Operation Replicator — here aimed at PrestigeBFT) for the
//! consensus core. Each seed deterministically [`generate`]s a [`Scenario`] —
//! cluster shape, workload, Byzantine fault plan, and a timeline of injected
//! faults (partitions, degradation, crash-restarts with torn WAL tails) —
//! drives the unmodified protocol through the discrete-event simulator, and
//! evaluates the safety [`invariants`] after **every** event; then the run
//! is judged by the scenario's own expectation (`Scenario::judge`) and
//! recorded in a [`SwarmReport`]. The type and its text form belong to
//! `prestige_workloads::scenario`, so the files `chaos_net` runs on the real
//! runtime replay here, judged by the same rule as a generated schedule. [`SimCluster`] builds the simulated cluster of any scenario —
//! for this harness, and for the paper's figures, the simulated tests and
//! the examples.
//!
//! When a schedule falsifies an invariant, the [`mod@shrink`] pass reduces it
//! to a minimal reproducer, written under `vopr/regressions/` as a scenario
//! file expecting that violation. The `vopr` binary drives the whole
//! loop (`run --seeds N`, `replay <file>`, `shrink <file>`) and a pair of
//! canary features in `prestige-core` (`canary-c3-fork`,
//! `canary-double-commit`) re-introduce two historical safety bugs so CI can
//! measure that the swarm still catches them — a mutation-score gate for the
//! harness itself.

#![warn(missing_docs)]

pub mod cluster;
pub mod harness;
pub mod invariants;
pub mod report;
pub mod schedule;
pub mod shrink;

pub use cluster::SimCluster;
pub use harness::{run_scenario, RunOutcome};
pub use invariants::{InvariantChecker, Violation, INVARIANT_NAMES};
pub use prestige_workloads::scenario::Scenario;
pub use report::{FailureRecord, SwarmReport};
pub use schedule::generate;
pub use shrink::{shrink, ShrinkResult};

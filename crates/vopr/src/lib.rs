//! # prestige-vopr
//!
//! A deterministic falsification harness (a VOPR, in TigerBeetle's coinage:
//! Viewstamped Operation Replicator — here aimed at PrestigeBFT) for the
//! consensus core. Each seed deterministically generates a [`Schedule`] —
//! cluster shape, workload, Byzantine fault plan, and a timeline of injected
//! faults (partitions, degradation, crash-restarts with torn WAL tails) —
//! drives the unmodified protocol through the discrete-event simulator, and
//! evaluates the safety [`invariants`] after **every** event.
//!
//! When a schedule falsifies an invariant, the [`mod@shrink`] pass reduces it to
//! a minimal reproducer and serializes it as a replayable [`regression`]
//! file under `vopr/regressions/*.ron`. The `vopr` binary drives the whole
//! loop (`run --seeds N`, `replay <file>`, `shrink <file>`) and a pair of
//! canary features in `prestige-core` (`canary-c3-fork`,
//! `canary-double-commit`) re-introduce two historical safety bugs so CI can
//! measure that the swarm still catches them — a mutation-score gate for the
//! harness itself.

#![warn(missing_docs)]

pub mod harness;
pub mod invariants;
pub mod regression;
pub mod report;
pub mod schedule;
pub mod shrink;

pub use harness::{run_schedule, RunOutcome};
pub use invariants::{InvariantChecker, Violation, INVARIANT_NAMES};
pub use regression::{from_ron, to_ron};
pub use report::{FailureRecord, SwarmReport};
pub use schedule::{ActionKind, Schedule, ScheduledAction};
pub use shrink::{shrink, ShrinkResult};

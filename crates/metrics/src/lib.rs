//! # prestige-metrics
//!
//! Measurement toolkit for the experiment harness: throughput computation
//! from sampled commit counts, availability over time, plain-text report
//! tables matching the rows/series the paper's figures report, and a minimal
//! JSON builder for the machine-readable reports the benchmark and chaos
//! binaries write. Latency has one record, `prestige_core::LatencyHistogram`,
//! which every client keeps and every report reads.

#![warn(missing_docs)]

pub mod availability;
pub mod json;
pub mod report;
pub mod throughput;

pub use availability::availability_series;
pub use json::Json;
pub use report::Table;
pub use throughput::{throughput_series, total_tps, window_instants};

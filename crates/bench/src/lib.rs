//! # prestige-bench
//!
//! Criterion microbenchmarks of the substrate primitives:
//!
//! * `micro_crypto` — SHA-256, proof-of-work, quorum-certificate aggregation;
//! * `micro_reputation` — the reputation calculation;
//! * `micro_wire` — the wire codec, broadcast fan-out and the batch digest.
//!
//! The paper's figures are regenerated (and timed) by the `run_experiments`
//! binary of `prestige-experiments`; end-to-end performance of the real
//! runtime is measured by the standalone `benchmark/` package.

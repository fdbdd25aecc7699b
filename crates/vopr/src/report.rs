//! Swarm reports: the machine-readable summary a `vopr run` emits, rendered
//! through [`prestige_metrics::Json`] so CI can diff and gate on it
//! (satellite: `vopr_steps`, `invariant_checks`, `schedules_shrunk`, and
//! per-invariant violation counts are all first-class fields).

use crate::invariants::{Violation, INVARIANT_NAMES};
use prestige_metrics::Json;
use prestige_workloads::scenario::Scenario;
use std::collections::BTreeMap;

/// Aggregated statistics over one swarm (a batch of seeded runs).
#[derive(Debug, Clone, Default)]
pub struct SwarmReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Simulator events processed across all runs.
    pub vopr_steps: u64,
    /// Individual invariant evaluations across all runs.
    pub invariant_checks: u64,
    /// Failing schedules that were shrunk to minimal reproducers.
    pub schedules_shrunk: u64,
    /// Shrink candidate runs spent across all shrinks.
    pub shrink_candidates_run: u64,
    /// Violations per invariant name, across all runs.
    pub violation_counts: BTreeMap<&'static str, u64>,
    /// The failing seeds, with their (possibly shrunk) violations.
    pub failures: Vec<FailureRecord>,
    /// Blocks committed on the most advanced correct replica, summed over
    /// runs (a liveness sanity signal: a swarm that commits nothing is not
    /// testing the protocol).
    pub committed_blocks: u64,
}

/// One failing seed in a swarm report.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// The seed that produced the failure.
    pub seed: u64,
    /// The violation (post-shrink when shrinking ran).
    pub violation: Violation,
    /// The minimal reproducer, when shrinking ran.
    pub shrunk: Option<Scenario>,
    /// Path the regression file was written to, when one was.
    pub regression_file: Option<String>,
}

impl SwarmReport {
    /// Folds one run's counters into the report.
    pub fn absorb_run(&mut self, outcome: &crate::harness::RunOutcome) {
        self.seeds_run += 1;
        self.vopr_steps += outcome.steps;
        self.invariant_checks += outcome.invariant_checks;
        self.committed_blocks += outcome.committed_blocks;
        for (name, count) in &outcome.violation_counts {
            *self.violation_counts.entry(name).or_insert(0) += count;
        }
    }

    /// Total violations across every invariant.
    pub fn total_violations(&self) -> u64 {
        self.violation_counts.values().sum()
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut counts = Json::obj();
        for name in INVARIANT_NAMES {
            counts.push(name, self.violation_counts.get(name).copied().unwrap_or(0));
        }
        let failures: Vec<Json> = self
            .failures
            .iter()
            .map(|f| {
                let mut obj = Json::obj();
                obj.push("seed", f.seed)
                    .push("invariant", f.violation.invariant)
                    .push("replica", f.violation.replica)
                    .push("at_ms", f.violation.at_ms)
                    .push("detail", f.violation.detail.clone());
                let shrunk = f.shrunk.as_ref();
                obj.push("shrunk_actions", shrunk.map(|s| s.faults.len()))
                    .push("shrunk_duration_ms", shrunk.map(|s| s.duration_ms))
                    .push("regression_file", f.regression_file.clone());
                obj
            })
            .collect();
        let mut doc = Json::obj();
        doc.push("seeds_run", self.seeds_run)
            .push("vopr_steps", self.vopr_steps)
            .push("invariant_checks", self.invariant_checks)
            .push("schedules_shrunk", self.schedules_shrunk)
            .push("shrink_candidates_run", self.shrink_candidates_run)
            .push("total_violations", self.total_violations())
            .push("violation_counts", counts)
            .push("committed_blocks", self.committed_blocks)
            .push("failures", failures);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_all_gate_fields() {
        let mut report = SwarmReport {
            seeds_run: 3,
            vopr_steps: 1_000,
            invariant_checks: 6_000,
            schedules_shrunk: 1,
            ..SwarmReport::default()
        };
        *report.violation_counts.entry("no_fork").or_insert(0) += 1;
        report.failures.push(FailureRecord {
            seed: 42,
            violation: Violation {
                invariant: "no_fork",
                replica: 2,
                at_ms: 1234.5,
                detail: "digest diverges".into(),
            },
            shrunk: Some(crate::schedule::generate(42)),
            regression_file: Some("vopr/regressions/seed-42.toml".into()),
        });
        let text = report.to_json().render();
        for field in [
            "vopr_steps",
            "invariant_checks",
            "schedules_shrunk",
            "violation_counts",
            "no_fork",
            "no_double_commit",
            "quorum_intersection",
            "tip_monotonicity",
            "reputation_bounds",
            "checkpoint_consistency",
            "bounded_dedup_state",
            "regression_file",
        ] {
            assert!(text.contains(field), "missing {field} in:\n{text}");
        }
        assert_eq!(report.total_violations(), 1);
    }
}

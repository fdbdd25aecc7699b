//! Swarm reports: the machine-readable summary a `vopr run` emits, rendered
//! through [`prestige_metrics::Json`] so CI can diff and gate on it
//! (satellite: `vopr_steps`, `invariant_checks`, `schedules_shrunk`, and
//! per-invariant violation counts are all first-class fields). A failure is
//! a run [`Scenario::judge`] finds short of its expectation, with or without
//! a violation.

use crate::harness::RunOutcome;
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
    /// The failed runs, in the order they ran.
    pub failures: Vec<FailureRecord>,
    /// Blocks committed on the most advanced correct replica, summed over
    /// runs (a liveness sanity signal: a swarm that commits nothing is not
    /// testing the protocol).
    pub committed_blocks: u64,
}

/// One failed run in a swarm report.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// The seed that produced the failure.
    pub seed: u64,
    /// Every way the run fell short of its scenario's expectation, as
    /// [`Scenario::judge`] put it.
    pub reasons: Vec<String>,
    /// The violation, if the run falsified an invariant (post-shrink when
    /// shrinking ran).
    pub violation: Option<Violation>,
    /// The minimal reproducer, when shrinking ran.
    pub shrunk: Option<Scenario>,
    /// Path the regression file was written to, when one was.
    pub regression_file: Option<String>,
}

impl SwarmReport {
    /// Folds one run of `scenario` into the report: its counters, and its
    /// verdict. A run the judge finds short is recorded as a failure, which
    /// is returned for the caller to complete (shrink, regression file).
    pub fn record(
        &mut self,
        scenario: &Scenario,
        outcome: &RunOutcome,
    ) -> Option<&mut FailureRecord> {
        self.seeds_run += 1;
        self.vopr_steps += outcome.steps;
        self.invariant_checks += outcome.invariant_checks;
        self.committed_blocks += outcome.committed_blocks;
        for (name, count) in &outcome.violation_counts {
            *self.violation_counts.entry(name).or_insert(0) += count;
        }
        let reasons = scenario.judge(&outcome.observations);
        if reasons.is_empty() {
            return None;
        }
        self.failures.push(FailureRecord {
            seed: scenario.seed,
            reasons,
            violation: outcome.violation.clone(),
            shrunk: None,
            regression_file: None,
        });
        self.failures.last_mut()
    }

    /// Total violations across every invariant.
    pub fn total_violations(&self) -> u64 {
        self.violation_counts.values().sum()
    }

    /// Renders the report as a JSON document. A failure with a violation
    /// names it; one without lists the judge's reasons.
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
                obj.push("seed", f.seed);
                match &f.violation {
                    Some(v) => obj
                        .push("invariant", v.invariant)
                        .push("replica", v.replica)
                        .push("at_ms", v.at_ms)
                        .push("detail", v.detail.clone()),
                    None => {
                        let reasons = f.reasons.iter().map(|r| r.as_str().into());
                        obj.push("reasons", reasons.collect::<Vec<Json>>())
                    }
                };
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
    use prestige_workloads::scenario::Expectation;

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
            reasons: vec!["safety violated — no_fork: on s2 at 1234.5 ms — digest diverges".into()],
            violation: Some(Violation {
                invariant: "no_fork",
                replica: 2,
                at_ms: 1234.5,
                detail: "digest diverges".into(),
            }),
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

    #[test]
    fn a_judge_only_failure_is_recorded_with_its_reasons() {
        // A clean run that still fails its expectation: it asks for more
        // views than any run of four seconds installs.
        let mut scenario = crate::schedule::generate(1);
        let Expectation::Assert(assertions) = &mut scenario.expect else {
            panic!("a generated schedule carries the default [assert]");
        };
        assertions.min_views_installed = 1_000;
        let outcome = crate::harness::run_scenario(&scenario);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        let mut report = SwarmReport::default();
        let recorded = report.record(&scenario, &outcome).map(|f| f.seed);
        assert_eq!((recorded, report.seeds_run), (Some(1), 1));
        let [failure] = &report.failures[..] else {
            panic!("one failure expected: {:?}", report.failures);
        };
        assert!(failure.violation.is_none());
        let [reason] = &failure.reasons[..] else {
            panic!("one reason expected: {:?}", failure.reasons);
        };
        assert!(reason.contains("below the required 1000"), "{reason}");
        let text = report.to_json().render();
        assert!(text.contains("\"reasons\""), "{text}");
        assert!(text.contains("below the required 1000"), "{text}");
        assert!(!text.contains("\"invariant\""), "{text}");
    }
}

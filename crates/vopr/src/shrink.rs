//! Shrinking: reduce a failing schedule to a minimal reproducer.
//!
//! The shrinker only ever keeps a candidate that *still violates an
//! invariant* (not necessarily the same one — a smaller schedule that trips
//! a different checker is still a bug), so the result is always a valid
//! regression. Passes, in order:
//!
//! 1. **Simplify knobs** — drop the Byzantine fault plan and base-network
//!    loss if the faults alone reproduce.
//! 2. **Drop faults** — greedy removal to a fixpoint.
//! 3. **Shorten windows** — halve partition/degrade/down windows while the
//!    violation survives.
//! 4. **Bisect the run** — repeatedly halve the schedule duration toward the
//!    violation time, then truncate to just past it.

use crate::harness::run_scenario;
use crate::invariants::Violation;
use prestige_workloads::scenario::Scenario;
use prestige_workloads::FaultPlan;

/// The outcome of a shrink: the minimal schedule, the violation it still
/// reproduces, and how many candidate runs it took.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized schedule.
    pub schedule: Scenario,
    /// The violation the minimized schedule reproduces.
    pub violation: Violation,
    /// Candidate schedules executed while shrinking.
    pub candidates_run: u64,
}

/// Shrinks `original` to a minimal schedule that still violates an
/// invariant. Returns `None` if the original run is clean (nothing to
/// shrink).
pub fn shrink(original: &Scenario) -> Option<ShrinkResult> {
    run_scenario(original).violation.as_ref()?;
    let mut best = original.clone();
    let mut candidates_run = 1u64;
    let try_candidate = |best: &mut Scenario, candidate: Scenario, runs: &mut u64| -> bool {
        *runs += 1;
        if run_scenario(&candidate).violation.is_some() {
            *best = candidate;
            true
        } else {
            false
        }
    };

    // Pass 1: simplify knobs.
    if best.fault_plan != FaultPlan::None {
        let mut candidate = best.clone();
        candidate.fault_plan = FaultPlan::None;
        try_candidate(&mut best, candidate, &mut candidates_run);
    }
    if best.network.loss_permille > 0 {
        let mut candidate = best.clone();
        candidate.network.loss_permille = 0;
        try_candidate(&mut best, candidate, &mut candidates_run);
    }

    // Pass 2: greedy fault removal to a fixpoint.
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < best.faults.len() {
            let mut candidate = best.clone();
            candidate.faults.remove(i);
            if try_candidate(&mut best, candidate, &mut candidates_run) {
                removed_any = true;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            break;
        }
    }

    // Pass 3: shorten the surviving windows (two halving rounds).
    for _ in 0..2 {
        for i in 0..best.faults.len() {
            let mut candidate = best.clone();
            let window = &mut candidate.faults[i].window_ms;
            if *window > 200 {
                *window /= 2;
                try_candidate(&mut best, candidate, &mut candidates_run);
            }
        }
    }

    // Pass 4: bisect the run duration toward the violation, then truncate
    // to just past it.
    loop {
        let half = best.duration_ms / 2;
        if half < 500 {
            break;
        }
        let mut candidate = best.clone();
        candidate.duration_ms = half;
        if !try_candidate(&mut best, candidate, &mut candidates_run) {
            break;
        }
    }
    let outcome = run_scenario(&best);
    candidates_run += 1;
    let violation = outcome.violation.clone().expect("best still violates");
    let cut = violation.at_ms as u64 + 200;
    if cut < best.duration_ms {
        let mut candidate = best.clone();
        candidate.duration_ms = cut;
        try_candidate(&mut best, candidate, &mut candidates_run);
    }

    candidates_run += 1;
    let violation = run_scenario(&best)
        .violation
        .expect("shrunk schedule reproduces");
    Some(ShrinkResult {
        schedule: best,
        violation,
        candidates_run,
    })
}

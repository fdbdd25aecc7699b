//! # prestige-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! PrestigeBFT evaluation (§6 of the paper). Each `figN_*` module describes
//! its runs as scenarios ([`prestige_workloads::Scenario`]) — a base setting
//! plus the figure's sweep — runs each on the simulator through
//! `prestige_vopr::SimCluster`, and returns [`prestige_metrics::Table`]s
//! with the same rows or series the paper reports. Any row can be written
//! out as a scenario file (`Scenario::to_toml`).
//!
//! Two scales are supported:
//!
//! * [`Scale::Quick`] — scaled-down parameters (shorter runs, smaller
//!   rotation intervals, fewer points) so the whole suite finishes in minutes
//!   on a laptop; this is what `run_experiments` uses by default.
//! * [`Scale::Full`] — parameters closer to the paper's (larger `n`, longer
//!   runs); expect a long wall-clock time.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator, not
//! a 100-VM testbed — see DESIGN.md §1); the *shapes* are what the harness
//! reproduces: who wins, by roughly what factor, and how behaviour changes
//! under faults.

#![warn(missing_docs)]

pub mod fig10_repeated_vc;
pub mod fig11_recovery;
pub mod fig12_attack_cost;
pub mod fig13_rp_evolution;
pub mod fig14_availability;
pub mod fig6_batching;
pub mod fig7_scalability;
pub mod fig8_split_votes;
pub mod fig9_benign_byz;
pub mod peak;
pub mod runner;

pub use runner::{run, RunOutcome};

use prestige_metrics::Table;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down parameters; minutes of wall-clock time for the full suite.
    Quick,
    /// Parameters close to the paper's; much longer wall-clock time.
    Full,
}

/// One reproducible experiment (a paper figure or table).
pub struct Experiment {
    /// Identifier used on the command line (e.g. `fig9`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub description: &'static str,
    /// Runs the experiment and returns its report tables.
    pub run: fn(Scale) -> Vec<Table>,
}

/// The registry of all experiments, in the order they appear in the paper.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "peak",
            description: "Peak performance, n=4 (Section 6.1 text)",
            run: peak::run,
        },
        Experiment {
            id: "fig6",
            description: "Figure 6 — throughput/latency under batching (n=4, m=32)",
            run: fig6_batching::run,
        },
        Experiment {
            id: "fig7",
            description: "Figure 7 — scalability with n, m and emulated delay",
            run: fig7_scalability::run,
        },
        Experiment {
            id: "fig8",
            description: "Figure 8 — split votes vs timeout randomization",
            run: fig8_split_votes::run,
        },
        Experiment {
            id: "fig9",
            description: "Figure 9 — throughput under quiet / equivocation faults",
            run: fig9_benign_byz::run,
        },
        Experiment {
            id: "fig10",
            description: "Figure 10 — throughput under repeated view-change attacks",
            run: fig10_repeated_vc::run,
        },
        Experiment {
            id: "fig11",
            description: "Figure 11 — throughput recovery over time under F4+F2",
            run: fig11_recovery::run,
        },
        Experiment {
            id: "fig12",
            description: "Figure 12 — time cost to start a view change vs number of attacks",
            run: fig12_attack_cost::run,
        },
        Experiment {
            id: "fig13",
            description: "Figure 13 — evolution of reputation penalties under f=3 attacks",
            run: fig13_rp_evolution::run,
        },
        Experiment {
            id: "fig14",
            description: "Figure 14 — availability under attack strategies S1/S2",
            run: fig14_availability::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_workloads::Scenario;

    #[test]
    fn every_quick_figure_row_can_be_written_out_as_a_scenario_file() {
        // Every experiment but fig12, which drives the reputation engine alone.
        let figures: [fn(Scale) -> Vec<Scenario>; 9] = [
            peak::scenarios,
            fig6_batching::scenarios,
            fig7_scalability::scenarios,
            fig8_split_votes::scenarios,
            fig9_benign_byz::scenarios,
            fig10_repeated_vc::scenarios,
            fig11_recovery::scenarios,
            fig13_rp_evolution::scenarios,
            fig14_availability::scenarios,
        ];
        let rows: Vec<Scenario> = figures.iter().flat_map(|f| f(Scale::Quick)).collect();
        assert!(rows.len() > 100, "only {} rows", rows.len());
        for scenario in rows {
            let text = scenario.to_toml();
            let back = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(back, scenario, "{}", scenario.name);
        }
    }
}

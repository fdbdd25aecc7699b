//! Figure 9 — throughput under quiet (F2) and equivocation (F3) faults with
//! frequent, policy-driven view changes.
//!
//! Paper result to reproduce (shape): HotStuff's throughput drops sharply as
//! soon as faulty servers appear (they are still handed leadership by the
//! rotation schedule, and each of their reigns stalls replication for a full
//! timeout), and drops more with more frequent rotations. PrestigeBFT is
//! essentially unaffected — quiet servers even free up bandwidth.

use crate::runner::{fault_experiment, run as run_one};
use crate::Scale;
use prestige_metrics::Table;
use prestige_workloads::{FaultPlan, ProtocolChoice, Scenario};

/// An attack: its series label and its plan at `f` faulty servers.
pub(crate) type Attack = (&'static str, fn(u32) -> FaultPlan);

/// A fault figure (9 or 10): per panel `n`, protocol, rotation and attack,
/// one row per fault count, the `f = 0` row first; each row's throughput is
/// reported with its drop against that row.
pub(crate) struct FaultFigure {
    /// Table title, before the panel's `(n=…)`.
    pub title: &'static str,
    /// Seed base: a row runs at `seed + n + f`.
    pub seed: u64,
    /// Quick scale: run length (ms) and the `n = 16` panel's fault counts.
    pub quick: (u64, &'static [u32]),
    /// The same at full scale.
    pub full: (u64, &'static [u32]),
    /// The two attacks.
    pub attacks: [Attack; 2],
}

impl FaultFigure {
    fn panels(&self, scale: Scale) -> [(u32, Vec<Scenario>); 2] {
        // r10/r30 at full scale; proportionally shorter rotations in quick
        // mode so several rotations still happen within the shorter run.
        let ((duration_ms, counts_n16), rotations) = match scale {
            Scale::Quick => (self.quick, [("r10", 3_000), ("r30", 6_000)]),
            Scale::Full => (self.full, [("r10", 10_000), ("r30", 30_000)]),
        };
        [(4, &[0, 1][..]), (16, counts_n16)].map(|(n, counts)| {
            let mut rows = Vec::new();
            for protocol in [ProtocolChoice::Prestige, ProtocolChoice::HotStuff] {
                for (rotation, rotation_ms) in rotations {
                    for (attack, plan) in self.attacks {
                        for &f in counts {
                            let series = format!("{}_{rotation}_{attack}", protocol.label());
                            rows.push(Scenario {
                                name: format!("{series}_f{f}"),
                                seed: self.seed + n as u64 + f as u64,
                                protocol,
                                servers: n,
                                rotation_ms,
                                fault_plan: if f == 0 { FaultPlan::None } else { plan(f) },
                                duration_ms,
                                ..fault_experiment()
                            });
                        }
                    }
                }
            }
            (n, rows)
        })
    }

    /// Every row of both panels (`n = 4`, then `n = 16`).
    pub fn scenarios(&self, scale: Scale) -> Vec<Scenario> {
        let panels = self.panels(scale);
        panels.into_iter().flat_map(|(_, rows)| rows).collect()
    }

    /// Runs both panels.
    pub fn run(&self, scale: Scale) -> Vec<Table> {
        let panel = |(n, rows): (u32, Vec<Scenario>)| {
            let title = format!("{} (n={n})", self.title);
            let mut table = Table::new(title, &["series", "f", "throughput (TPS)", "drop vs f=0"]);
            let mut baseline_tps = None;
            for s in rows {
                let f = s.fault_plan.count();
                let outcome = run_one(&s, 0.05, None);
                let drop = match baseline_tps {
                    Some(base) if f > 0 && base > 0.0 => {
                        format!("{:.0}%", 100.0 * (base - outcome.tps) / base)
                    }
                    _ => "—".to_string(),
                };
                if f == 0 {
                    baseline_tps = Some(outcome.tps);
                }
                let series = s.name.trim_end_matches(&format!("_f{f}")).to_string();
                let tps = format!("{:.0}", outcome.tps);
                table.push_row(vec![series, f.to_string(), tps, drop]);
            }
            table
        };
        self.panels(scale).map(panel).to_vec()
    }
}

const FIGURE: FaultFigure = FaultFigure {
    title: "Figure 9 — throughput under F2/F3",
    seed: 7,
    quick: (20_000, &[0, 3]),
    full: (120_000, &[0, 1, 2, 3]),
    attacks: [
        ("quiet", |count| FaultPlan::Quiet { count }),
        ("equiv", |count| FaultPlan::Equivocate { count }),
    ],
};

/// Every row of the F2/F3 fault sweep.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    FIGURE.scenarios(scale)
}

/// Runs the F2/F3 fault sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    FIGURE.run(scale)
}

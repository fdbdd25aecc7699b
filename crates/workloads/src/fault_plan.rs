//! Fault-injection plans: which servers misbehave and how.
//!
//! The paper's §6.2 scenarios pick `f` servers "arbitrarily" to perform an
//! attack; this module makes the choice explicit and reproducible (the last
//! `f` servers, matching the paper's Figure 13 where S6–S8 of 16 are faulty).

use prestige_core::{AttackStrategy, ByzantineBehavior};
use serde::{Deserialize, Serialize};

/// A named fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPlan {
    /// All servers correct.
    None,
    /// F1: `count` servers mimic correct servers' timeouts.
    TimeoutAttack {
        /// Number of faulty servers.
        count: u32,
    },
    /// F2: `count` quiet servers.
    Quiet {
        /// Number of faulty servers.
        count: u32,
    },
    /// F3: `count` equivocating servers.
    Equivocate {
        /// Number of faulty servers.
        count: u32,
    },
    /// F4 + F2 under the given strategy.
    RepeatedVcQuiet {
        /// Number of faulty servers.
        count: u32,
        /// Attack timing strategy (S1 / S2).
        strategy: AttackStrategy,
    },
    /// F4 + F3 under the given strategy.
    RepeatedVcEquivocate {
        /// Number of faulty servers.
        count: u32,
        /// Attack timing strategy (S1 / S2).
        strategy: AttackStrategy,
    },
    /// F5: `count` servers campaign like F4 but overstate their certified
    /// ordered-tip claim (the attack the certified recovery plane refuses).
    TipLiar {
        /// Number of faulty servers.
        count: u32,
        /// Attack timing strategy (S1 / S2).
        strategy: AttackStrategy,
    },
}

impl FaultPlan {
    /// The number of faulty servers this plan injects.
    pub fn count(&self) -> u32 {
        match self {
            FaultPlan::None => 0,
            FaultPlan::TimeoutAttack { count }
            | FaultPlan::Quiet { count }
            | FaultPlan::Equivocate { count }
            | FaultPlan::RepeatedVcQuiet { count, .. }
            | FaultPlan::RepeatedVcEquivocate { count, .. }
            | FaultPlan::TipLiar { count, .. } => *count,
        }
    }

    /// The attack timing strategy, for the plans that carry one.
    pub fn strategy(&self) -> Option<AttackStrategy> {
        match self {
            FaultPlan::RepeatedVcQuiet { strategy, .. }
            | FaultPlan::RepeatedVcEquivocate { strategy, .. }
            | FaultPlan::TipLiar { strategy, .. } => Some(*strategy),
            _ => None,
        }
    }

    /// The behaviour this plan's faulty servers perform.
    fn faulty_behavior(&self) -> ByzantineBehavior {
        match self {
            FaultPlan::None => ByzantineBehavior::Correct,
            FaultPlan::TimeoutAttack { .. } => ByzantineBehavior::TimeoutAttack,
            FaultPlan::Quiet { .. } => ByzantineBehavior::Quiet,
            FaultPlan::Equivocate { .. } => ByzantineBehavior::Equivocate,
            FaultPlan::RepeatedVcQuiet { strategy, .. } => {
                ByzantineBehavior::RepeatedVcQuiet(*strategy)
            }
            FaultPlan::RepeatedVcEquivocate { strategy, .. } => {
                ByzantineBehavior::RepeatedVcEquivocate(*strategy)
            }
            FaultPlan::TipLiar { strategy, .. } => ByzantineBehavior::OverclaimTip(*strategy),
        }
    }

    /// The per-server behaviour vector for a cluster of `n` servers. Faulty
    /// servers are the last `count` servers, so the initial leader (S1) starts
    /// correct — matching the paper's setups.
    pub fn behaviors(&self, n: u32) -> Vec<ByzantineBehavior> {
        (0..n).map(|i| self.behavior_of(n, i)).collect()
    }

    /// The behaviour of server `id` in a cluster of `n` servers under this
    /// plan — [`Self::behaviors`] without materializing the whole vector,
    /// for single-node launchers like `prestige-node`. Ids outside the
    /// cluster are correct.
    pub fn behavior_of(&self, n: u32, id: u32) -> ByzantineBehavior {
        let count = self.count().min(n);
        if id < n && id >= n - count {
            self.faulty_behavior()
        } else {
            ByzantineBehavior::Correct
        }
    }

    /// Parses a plan from its label plus a fault count and F4 strategy
    /// (ignored by non-F4 plans), as scenario files and node configs spell
    /// it. Inverse of [`Self::label`]; returns `None` for unknown labels.
    pub fn from_parts(label: &str, count: u32, strategy: AttackStrategy) -> Option<FaultPlan> {
        Some(match label {
            "none" => FaultPlan::None,
            "timeout" => FaultPlan::TimeoutAttack { count },
            "quiet" => FaultPlan::Quiet { count },
            "equiv" => FaultPlan::Equivocate { count },
            "vc_quiet" => FaultPlan::RepeatedVcQuiet { count, strategy },
            "vc_equiv" => FaultPlan::RepeatedVcEquivocate { count, strategy },
            "tip_liar" => FaultPlan::TipLiar { count, strategy },
            _ => return None,
        })
    }

    /// Parses an attack strategy from its paper name: `s1` (attack at every
    /// opportunity) or `s2` (attack only when compensable).
    pub fn parse_strategy(text: &str) -> Option<AttackStrategy> {
        match text {
            "s1" | "S1" | "always" => Some(AttackStrategy::Always),
            "s2" | "S2" | "compensable" => Some(AttackStrategy::WhenCompensable),
            _ => None,
        }
    }

    /// Short suffix used in scenario names (`quiet`, `equiv`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            FaultPlan::None => "none",
            FaultPlan::TimeoutAttack { .. } => "timeout",
            FaultPlan::Quiet { .. } => "quiet",
            FaultPlan::Equivocate { .. } => "equiv",
            FaultPlan::RepeatedVcQuiet { .. } => "vc_quiet",
            FaultPlan::RepeatedVcEquivocate { .. } => "vc_equiv",
            FaultPlan::TipLiar { .. } => "tip_liar",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_all_correct() {
        let b = FaultPlan::None.behaviors(4);
        assert!(b.iter().all(|x| !x.is_faulty()));
        assert_eq!(FaultPlan::None.count(), 0);
    }

    #[test]
    fn faulty_servers_are_the_last_ones() {
        let plan = FaultPlan::Quiet { count: 3 };
        let b = plan.behaviors(16);
        assert_eq!(b.len(), 16);
        assert!(!b[0].is_faulty(), "initial leader stays correct");
        assert!(b[13].is_faulty() && b[14].is_faulty() && b[15].is_faulty());
        assert_eq!(b.iter().filter(|x| x.is_faulty()).count(), 3);
    }

    #[test]
    fn count_is_clamped_to_cluster_size() {
        let plan = FaultPlan::Equivocate { count: 10 };
        assert_eq!(plan.behaviors(4).len(), 4);
        assert_eq!(
            plan.behaviors(4).iter().filter(|x| x.is_faulty()).count(),
            4
        );
    }

    #[test]
    fn from_parts_round_trips_every_label() {
        for plan in [
            FaultPlan::None,
            FaultPlan::TimeoutAttack { count: 2 },
            FaultPlan::Quiet { count: 2 },
            FaultPlan::Equivocate { count: 2 },
            FaultPlan::RepeatedVcQuiet {
                count: 2,
                strategy: AttackStrategy::Always,
            },
            FaultPlan::RepeatedVcEquivocate {
                count: 2,
                strategy: AttackStrategy::Always,
            },
            FaultPlan::TipLiar {
                count: 2,
                strategy: AttackStrategy::Always,
            },
        ] {
            let count = if plan == FaultPlan::None { 0 } else { 2 };
            assert_eq!(
                FaultPlan::from_parts(plan.label(), count, AttackStrategy::Always),
                Some(plan)
            );
        }
        assert_eq!(
            FaultPlan::from_parts("bogus", 1, AttackStrategy::Always),
            None
        );
    }

    #[test]
    fn strategy_labels_parse() {
        assert_eq!(
            FaultPlan::parse_strategy("s1"),
            Some(AttackStrategy::Always)
        );
        assert_eq!(
            FaultPlan::parse_strategy("S2"),
            Some(AttackStrategy::WhenCompensable)
        );
        assert_eq!(FaultPlan::parse_strategy("s3"), None);
    }

    #[test]
    fn behavior_of_matches_behaviors_vector() {
        let plan = FaultPlan::RepeatedVcQuiet {
            count: 1,
            strategy: AttackStrategy::Always,
        };
        let all = plan.behaviors(4);
        for id in 0..4 {
            assert_eq!(plan.behavior_of(4, id), all[id as usize]);
        }
        assert_eq!(
            plan.behavior_of(4, 99),
            ByzantineBehavior::Correct,
            "out-of-range ids default to correct"
        );
    }

    #[test]
    fn repeated_vc_plans_carry_strategy() {
        let plan = FaultPlan::RepeatedVcQuiet {
            count: 1,
            strategy: AttackStrategy::WhenCompensable,
        };
        let b = plan.behaviors(4);
        assert_eq!(
            b[3],
            ByzantineBehavior::RepeatedVcQuiet(AttackStrategy::WhenCompensable)
        );
        assert_eq!(plan.label(), "vc_quiet");
    }
}

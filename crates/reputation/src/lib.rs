//! # prestige-reputation
//!
//! The PrestigeBFT reputation engine (§3 of the paper, Algorithm 1 "CalcRP").
//!
//! The engine converts a server's behaviour history — how many transaction
//! blocks it has replicated, and how its penalty evolved across past view
//! changes — into a *reputation penalty* `rp`: an integer where higher values
//! indicate a higher suspicion of misbehaviour. During an active view change,
//! `rp` determines the amount of computational work (proof of work) a
//! campaigner must perform before it can stand for election, which is how
//! PrestigeBFT suppresses Byzantine servers from regaining leadership.
//!
//! The calculation has two steps:
//!
//! 1. **Penalization** ([`penalty`], Eq. 1) — campaigning for view `V'` from
//!    view `V` raises the penalty by the view jump `V' − V`.
//! 2. **Compensation** ([`compensation`], Eqs. 2–4) — good history earns a
//!    deduction: *incremental log responsiveness* `δtx = (ti − ci)/ti` rewards
//!    replicating ever more txBlocks, and *leadership zealousness*
//!    `δvc = 1 − sigmoid(z)` (z-score of the current penalty against the
//!    server's penalty history) rewards gradually increasing or stable
//!    penalties. The deduction is `⌊rp_temp · Cδ · δtx · δvc⌋`.
//!
//! The engine is a pure "consultant": it never mutates protocol state. Only
//! view-change consensus installs a new `rp`/`ci`, and only for the elected
//! leader (§4.2.4). The [`refresh`] module implements the §4.2.5 penalty
//! refresh for GST-induced penalization of correct servers.
//!
//! Every worked example from the paper (Figure 4 and Appendix C) is encoded as
//! a unit test in these modules.

#![warn(missing_docs)]

pub mod compensation;
pub mod engine;
pub mod history;
pub mod penalty;
pub mod refresh;

pub use compensation::{delta_tx, delta_vc, sigmoid, C_DELTA, INITIAL_CI};
pub use engine::{CalcRpInput, ReputationEngine, RpOutcome};
pub use history::PenaltyHistory;
pub use penalty::{penalize, INITIAL_RP};
pub use refresh::{refresh_allowed, REFRESH_THRESHOLD_PI};

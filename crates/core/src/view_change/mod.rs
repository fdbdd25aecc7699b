//! The active view-change protocol (§4.2), split into cohesive units:
//!
//! * [`campaign`] — failure detection (client complaints → `ConfVC` →
//!   `ReVC` → `conf_QC`), the redeemer/candidate state machine, election
//!   timeouts, policy rotations, and the F4 attack hooks;
//! * [`certify`] — the certified recovery plane's claim machinery: building
//!   a candidate's tip certificate from its ordering QCs, verifying claims
//!   on the voter side (criteria C1–C5, with C3 now *proven* instead of
//!   trusted), and collecting election votes;
//! * [`install`] — the leader-elect phase: preparing the new `vcBlock`
//!   (carrying the certified state-transfer payload), validating and
//!   adopting it, and completing the view change.
//!
//! The Figure-5 state machine is unchanged from the paper:
//!
//! * **failure detection** — client complaints (`Compt`) are relayed to the
//!   leader; unresolved complaints trigger an inspection (`ConfVC`), and
//!   `f + 1` matching `ReVC` replies form a `conf_QC` that justifies a view
//!   change;
//! * **redeemer** — the campaigner consults the reputation engine, then solves
//!   the reputation-determined puzzle (modeled proof of work);
//! * **candidate** — broadcasts a `Camp` message; voters enforce the criteria
//!   C1–C5 (one vote per view, confirmed view change, *certified* up-to-date
//!   log, reproducible reputation penalty, verified computation); `2f + 1`
//!   votes form the `vc_QC`;
//! * **leader** — prepares the new `vcBlock` (only the winner's rp/ci change;
//!   since wire v3 it also carries the certified state transfer), collects
//!   `2f + 1` `vcYes` acknowledgements, and resumes replication;
//! * **policy rotations** — the timing policies (r10 / r30) of §6.2, where
//!   campaigns carry no `conf_QC` and voters check rotation due-ness locally;
//! * **Byzantine attack hooks** — F4 repeated campaigns under strategies
//!   S1/S2, and the tip-overclaim attack the certificates exist to refuse.

mod campaign;
mod certify;
mod install;

pub(crate) use certify::CampClaims;
pub use certify::Refusal;

use crate::server::PrestigeServer;
use prestige_crypto::hash_many;
use prestige_types::{Digest, SeqNum, ServerId, View};

impl PrestigeServer {
    /// The digest signed by `ReVC` shares confirming that a view change away
    /// from `view` is necessary.
    pub(crate) fn confvc_digest(view: View) -> Digest {
        hash_many([b"confvc".as_slice(), &view.0.to_be_bytes()])
    }

    /// The digest signed by election votes (`VoteCP` shares) for a candidate.
    ///
    /// Beyond the identity and puzzle fields, the digest covers the
    /// candidate's log claims (`latest_seq`, `latest_ord_seq`,
    /// `latest_tx_digest`): the claims are certified by QCs since wire v3,
    /// and binding them into the signed digest stops a relay from swapping a
    /// candidate's claims under its signature.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn campaign_digest(
        candidate: ServerId,
        new_view: View,
        rp: i64,
        nonce: u64,
        hash_result: &Digest,
        latest_seq: SeqNum,
        latest_ord_seq: SeqNum,
        latest_tx_digest: &Digest,
    ) -> Digest {
        hash_many([
            b"camp".as_slice(),
            &(candidate.0 as u64).to_be_bytes(),
            &new_view.0.to_be_bytes(),
            &rp.to_be_bytes(),
            &nonce.to_be_bytes(),
            hash_result.as_ref(),
            &latest_seq.0.to_be_bytes(),
            &latest_ord_seq.0.to_be_bytes(),
            latest_tx_digest.as_ref(),
        ])
    }

    /// Evaluates Algorithm 1 for a campaigner (`who`) moving from `view` to
    /// `new_view` with `latest_seq` committed, reading its reputation from
    /// the local state machine. A campaigner passes its own view and tip; a
    /// voter checking C4 passes the candidate's claimed ones.
    pub(crate) fn calc_rp_for(
        &self,
        who: ServerId,
        view: View,
        new_view: View,
        latest_seq: SeqNum,
    ) -> prestige_reputation::RpOutcome {
        let input = prestige_reputation::CalcRpInput {
            current_view: view,
            new_view,
            current_rp: self.store.current_rp(who),
            current_ci: self.store.current_ci(who),
            latest_tx_seq: latest_seq,
            penalty_history: self.store.penalty_history(who),
        };
        self.engine.calc_rp(&input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(n: u32, id: u32) -> PrestigeServer {
        let config = prestige_types::ClusterConfig::new(n);
        let registry = prestige_crypto::KeyRegistry::new(5, n, 2);
        PrestigeServer::new(ServerId(id), config, registry, 0)
    }

    #[test]
    fn digests_are_deterministic_and_distinct() {
        let d1 = PrestigeServer::confvc_digest(View(3));
        let d2 = PrestigeServer::confvc_digest(View(3));
        let d3 = PrestigeServer::confvc_digest(View(4));
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);

        let camp = |candidate, ord| {
            PrestigeServer::campaign_digest(
                candidate,
                View(2),
                2,
                7,
                &Digest::ZERO,
                SeqNum(0),
                ord,
                &Digest::ZERO,
            )
        };
        assert_ne!(camp(ServerId(1), SeqNum(0)), camp(ServerId(2), SeqNum(0)));
        // The log claims are covered: a relay inflating the ordered-tip claim
        // invalidates the candidate's signature.
        assert_ne!(camp(ServerId(1), SeqNum(0)), camp(ServerId(1), SeqNum(9)));
    }

    #[test]
    fn calc_rp_for_initial_campaign_matches_engine() {
        let s = server(4, 1);
        let outcome = s.calc_rp_for(ServerId(1), View(1), View(2), SeqNum(0));
        // From genesis: rp 1 → 2 with no possible compensation (ti = 0).
        assert_eq!(outcome.new_rp, 2);
        assert_eq!(outcome.new_ci, 1);
        assert!(!outcome.compensated);
    }

    #[test]
    fn voters_and_candidates_agree_on_rp() {
        // Criterion C4 requires that any server recomputes the same rp/ci for
        // a given candidate from the same stored state.
        let s2 = server(4, 1);
        let s3 = server(4, 2);
        let a = s2.calc_rp_for(ServerId(3), View(1), View(2), SeqNum(0));
        let b = s3.calc_rp_for(ServerId(3), View(1), View(2), SeqNum(0));
        assert_eq!(a.new_rp, b.new_rp);
        assert_eq!(a.new_ci, b.new_ci);
    }
}

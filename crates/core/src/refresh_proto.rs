//! The penalty-refresh protocol (§4.2.5).
//!
//! A long pre-GST period can penalize correct servers. When at least `f + 1`
//! servers carry penalties above the threshold π, a server may broadcast
//! `Ref` requests; `2f + 1` endorsements form an `rs_QC` that authorizes the
//! `Rdone` announcement resetting the server's `rp` and `ci` to their initial
//! values in everyone's current `vcBlock`.

use crate::server::PrestigeServer;
use prestige_crypto::{hash_many, sign_share, QcBuilder};
use prestige_sim::Context;
use prestige_types::{
    Digest, Message, PartialSig, QcKind, QuorumCertificate, SeqNum, ServerId, View,
};
use std::collections::BTreeMap;

impl PrestigeServer {
    /// The digest signed by `Ref` endorsements for `server`'s refresh in `view`.
    pub(crate) fn refresh_digest(view: View, server: ServerId) -> Digest {
        hash_many([
            b"refresh".as_slice(),
            &view.0.to_be_bytes(),
            &(server.0 as u64).to_be_bytes(),
        ])
    }

    /// The penalty map of the current vcBlock, in the form the refresh
    /// eligibility check expects.
    fn current_penalties(&self) -> BTreeMap<ServerId, i64> {
        self.store.latest_vc_block().rp.clone()
    }

    /// Initiates a refresh request if this server's penalty exceeds π and the
    /// `f + 1`-servers-over-π precondition holds.
    pub(crate) fn maybe_request_refresh(&mut self, ctx: &mut Context<Message>) {
        let my_rp = self.store.current_rp(self.id);
        if !self.engine.exceeds_refresh_threshold(my_rp) {
            return;
        }
        if !self
            .refresh_tracker
            .refresh_allowed(&self.current_penalties())
        {
            return;
        }
        if self.refresh_builder.is_some() {
            return;
        }
        let view = self.current_view();
        let digest = Self::refresh_digest(view, self.id);
        let mut builder = QcBuilder::new(
            QcKind::Refresh,
            view,
            SeqNum(0),
            digest,
            self.config.quorum(),
        );
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::Refresh,
            view,
            SeqNum(0),
            &digest,
        ) {
            let _ = builder.add_share(&self.registry, &share);
        }
        self.refresh_builder = Some(builder);
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::Refresh,
            view,
            SeqNum(0),
            &digest,
        ) {
            ctx.broadcast(
                self.other_servers(),
                Message::Ref {
                    view,
                    server: self.id,
                    share,
                },
            );
        }
    }

    /// Handles a peer's refresh request: endorse it if the precondition holds
    /// locally and the requester is indeed over the threshold.
    pub(crate) fn handle_ref(
        &mut self,
        view: View,
        server: ServerId,
        _share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if view != self.current_view() {
            return;
        }
        self.charge_verify_cost(ctx);
        let requester_rp = self.store.current_rp(server);
        if !self.engine.exceeds_refresh_threshold(requester_rp) {
            return;
        }
        if !self
            .refresh_tracker
            .refresh_allowed(&self.current_penalties())
        {
            return;
        }
        self.refresh_tracker
            .record_endorsement(view, server, self.id);
        let digest = Self::refresh_digest(view, server);
        if let Some(share) = sign_share(
            &self.registry,
            self.id,
            QcKind::Refresh,
            view,
            SeqNum(0),
            &digest,
        ) {
            ctx.send(
                prestige_types::Actor::Server(server),
                Message::Ref {
                    view,
                    server,
                    share,
                },
            );
        }
    }

    /// Handles an endorsement for this server's own refresh; `2f + 1` of them
    /// authorize the reset.
    pub(crate) fn handle_refresh_endorsement(
        &mut self,
        view: View,
        share: PartialSig,
        ctx: &mut Context<Message>,
    ) {
        if view != self.current_view() {
            return;
        }
        let registry = self.registry.clone();
        let complete = match self.refresh_builder.as_mut() {
            Some(builder) => {
                builder.add_share(&registry, &share).ok();
                builder.complete()
            }
            None => false,
        };
        if !complete {
            return;
        }
        let builder = self.refresh_builder.take().expect("builder present");
        let rs_qc = match builder.assemble() {
            Ok(qc) => qc,
            Err(_) => return,
        };
        let (rp, ci) = self.engine.initial_values();
        self.store.refresh_reputation(self.id, rp, ci);
        let sig = self.sign(rs_qc.digest.as_ref());
        ctx.broadcast(
            self.other_servers(),
            Message::Rdone {
                view,
                server: self.id,
                rs_qc,
                rp,
                ci,
                sig,
            },
        );
    }

    /// Handles a peer's completed refresh: verify the `rs_QC` and update the
    /// peer's rp/ci in the current vcBlock.
    #[allow(clippy::too_many_arguments)] // mirrors the Rdone message fields
    pub(crate) fn handle_rdone(
        &mut self,
        view: View,
        server: ServerId,
        rs_qc: QuorumCertificate,
        rp: i64,
        ci: u64,
        _sig: [u8; 32],
        ctx: &mut Context<Message>,
    ) {
        if view != self.current_view() {
            return;
        }
        let expected_digest = Self::refresh_digest(view, server);
        let quorum = self.config.quorum();
        if rs_qc.kind != QcKind::Refresh
            || rs_qc.view != view
            || rs_qc.digest != expected_digest
            || !self.verify_qc_cached(&rs_qc, quorum, ctx)
        {
            return;
        }
        let (init_rp, init_ci) = self.engine.initial_values();
        if rp != init_rp || ci != init_ci {
            return;
        }
        self.store.refresh_reputation(server, rp, ci);
    }
}

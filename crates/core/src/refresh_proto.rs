//! The penalty-refresh protocol (§4.2.5).
//!
//! A long pre-GST period can penalize correct servers. When at least `f + 1`
//! servers carry penalties above the threshold π, a server may broadcast
//! `Ref` requests; `2f + 1` endorsements form an `rs_QC` that authorizes the
//! `Rdone` announcement resetting the server's `rp` and `ci` to their initial
//! values in everyone's current `vcBlock`.

use crate::server::PrestigeServer;
use prestige_crypto::{hash_many, sign_share};
use prestige_sim::Context;
use prestige_types::{
    Digest, Message, PartialSig, QcKind, QuorumCertificate, SeqNum, ServerId, View,
};

impl PrestigeServer {
    /// The digest signed by `Ref` endorsements for `server`'s refresh in `view`.
    pub(crate) fn refresh_digest(view: View, server: ServerId) -> Digest {
        hash_many([
            b"refresh".as_slice(),
            &view.0.to_be_bytes(),
            &(server.0 as u64).to_be_bytes(),
        ])
    }

    /// Whether the current vcBlock's penalties allow a refresh: at least
    /// `f + 1` servers over π.
    fn refresh_allowed(&self) -> bool {
        prestige_reputation::refresh_allowed(&self.store.latest_vc_block().rp, self.config.f())
    }

    /// Initiates a refresh request if this server's penalty exceeds π and the
    /// `f + 1`-servers-over-π precondition holds. One request per view: a
    /// view install drops a round that did not complete, so the next view
    /// asks again.
    pub(crate) fn maybe_request_refresh(&mut self, ctx: &mut Context<Message>) {
        let my_rp = self.store.current_rp(self.id);
        if !self.engine.exceeds_refresh_threshold(my_rp)
            || !self.refresh_allowed()
            || self.refresh_builder.is_some()
        {
            return;
        }
        let view = self.current_view();
        let digest = Self::refresh_digest(view, self.id);
        let quorum = self.config.quorum();
        let (builder, share) = self.open_quorum(QcKind::Refresh, view, SeqNum(0), digest, quorum);
        self.refresh_builder = Some(builder);
        ctx.broadcast(
            self.other_servers(),
            Message::Ref {
                view,
                server: self.id,
                share,
            },
        );
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
        if !self.engine.exceeds_refresh_threshold(requester_rp) || !self.refresh_allowed() {
            return;
        }
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
        let Some(builder) = self.refresh_builder.as_mut() else {
            return;
        };
        let _ = builder.add_share(&self.registry, &share);
        if !builder.complete() {
            return;
        }
        let Some(Ok(rs_qc)) = self.refresh_builder.take().map(|b| b.assemble()) else {
            return;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::tests::{pump, route, with_ctx, Queue};
    use crate::storage::vc_block_digest;
    use prestige_crypto::{KeyRegistry, QcBuilder};
    use prestige_sim::{Emission, Process};
    use prestige_types::{Actor, ClusterConfig};

    /// Four servers that all record s1 and s2 over π in view 1: `f + 1`
    /// overloaded servers, so either may ask for a refresh.
    fn over_pi() -> Vec<PrestigeServer> {
        let registry = KeyRegistry::new(9, 4, 2);
        let mut servers: Vec<PrestigeServer> = (0..4)
            .map(|i| PrestigeServer::new(ServerId(i), ClusterConfig::new(4), registry.clone(), 0))
            .collect();
        for s in &mut servers {
            s.store.refresh_reputation(ServerId(1), 9, 1);
            s.store.refresh_reputation(ServerId(2), 10, 1);
        }
        servers
    }

    /// s1's rp as each server records it.
    fn s1_rp(servers: &[PrestigeServer]) -> Vec<i64> {
        servers
            .iter()
            .map(|s| s.store.current_rp(ServerId(1)))
            .collect()
    }

    #[test]
    fn a_refresh_resets_the_requesters_penalty_on_every_server() {
        let mut servers = over_pi();
        let effects = with_ctx(&mut servers[1], |s, ctx| s.maybe_request_refresh(ctx));
        let mut queue = Queue::new();
        route(&mut queue, Actor::Server(ServerId(1)), effects);
        pump(&mut servers, queue, |_, _| false);
        assert_eq!(s1_rp(&servers), vec![1; 4]);
        // s2 asked for nothing, so its penalty stands.
        assert!(servers
            .iter()
            .all(|s| s.store.current_rp(ServerId(2)) == 10));
    }

    #[test]
    fn a_refresh_round_lost_in_one_view_is_asked_again_in_the_next() {
        let mut servers = over_pi();
        // Every `Ref` of the view-1 round is lost.
        with_ctx(&mut servers[1], |s, ctx| s.maybe_request_refresh(ctx));
        assert_eq!(s1_rp(&servers), vec![9; 4]);

        // View 2, led by s3: s0, s2 and s3 learn it over sync, s1 adopts
        // its vcBlock.
        let registry = servers[0].registry.clone();
        let (view, votes_for) = (View(2), Digest([2; 32]));
        let mut votes = QcBuilder::new(QcKind::ViewChange, view, SeqNum(0), votes_for, 3);
        for s in [0, 2, 3] {
            let share = sign_share(
                &registry,
                ServerId(s),
                QcKind::ViewChange,
                view,
                SeqNum(0),
                &votes_for,
            );
            votes.add_share(&registry, &share.unwrap()).unwrap();
        }
        let genesis = servers[1].store.latest_vc_block();
        let block = genesis.successor(view, ServerId(3), 1, 1, None, votes.assemble().ok());
        let leader = Actor::Server(ServerId(3));
        for i in [0, 2, 3] {
            let sync = Message::SyncResp {
                vc_blocks: vec![block.clone()],
                tx_blocks: Vec::new(),
                ordered: Vec::new(),
                ckpt: None,
            };
            with_ctx(&mut servers[i], |s, ctx| s.on_message(leader, sync, ctx));
        }
        let sig = registry
            .key_of(leader)
            .unwrap()
            .sign(vc_block_digest(&block).as_ref());
        let adopt = Message::NewVcBlock { block, sig };
        let effects = with_ctx(&mut servers[1], |s, ctx| s.on_message(leader, adopt, ctx));
        assert!(servers.iter().all(|s| s.current_view() == view));
        let asks = |e: &Emission<Message>| {
            matches!(
                e,
                Emission::Broadcast(_, Message::Ref { view: View(2), .. })
            )
        };
        assert!(effects.emissions.iter().any(asks), "no Ref sent in view 2");

        let mut queue = Queue::new();
        route(&mut queue, Actor::Server(ServerId(1)), effects);
        pump(&mut servers, queue, |_, _| false);
        assert_eq!(s1_rp(&servers), vec![1; 4]);
    }
}

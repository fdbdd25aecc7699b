//! The serve side of the sync subsystem: answering `SyncReq` ranges under a
//! per-peer rate limit and a per-response byte budget.

use super::{MAX_SYNC_BLOCKS, MAX_SYNC_RESP_BYTES, SERVE_MIN_INTERVAL_MS};
use crate::server::PrestigeServer;
use prestige_sim::Context;
use prestige_types::{Actor, Message, OrderedEntry, SyncKind};
use std::sync::Arc;

/// Stable per-kind tag used as part of rate-limiter keys. (Tag 3 is the
/// receive-side `ORDERED_RECV_TAG`; `Snapshot` therefore takes 4.)
pub(crate) fn sync_kind_tag(kind: SyncKind) -> u8 {
    match kind {
        SyncKind::ViewChange => 0,
        SyncKind::Transaction => 1,
        SyncKind::Ordered => 2,
        SyncKind::Snapshot => 4,
    }
}

/// The shared response budget: at least one item is always served, then
/// assembly stops once the byte budget is spent or the count cap reached, so
/// one response can never balloon past the frame bound.
struct ServeBudget {
    bytes: usize,
}

impl ServeBudget {
    fn new() -> Self {
        ServeBudget {
            bytes: MAX_SYNC_RESP_BYTES,
        }
    }

    fn take(&mut self, size: usize, count: usize) -> bool {
        if count > 0 && (size > self.bytes || count >= MAX_SYNC_BLOCKS) {
            return false;
        }
        self.bytes = self.bytes.saturating_sub(size);
        true
    }
}

impl PrestigeServer {
    /// Per-`(peer, kind)` serve rate limit shared by the request and push
    /// paths. Returns `true` (and counts it) when the peer must wait.
    fn serve_throttled(&mut self, peer: Actor, kind: SyncKind, now: f64) -> bool {
        let limiter_key = (peer, sync_kind_tag(kind));
        if let Some(last) = self.sync_served_ms.get(&limiter_key) {
            if now - last < SERVE_MIN_INTERVAL_MS {
                self.stats.sync_throttled += 1;
                return true;
            }
        }
        self.sync_served_ms.insert(limiter_key, now);
        false
    }

    /// Assembles the certified ordered entries of `[lo, hi]` under the
    /// shared response budget. Only instances this server can *prove*
    /// (ordering QC + batch) are included — an entry without its
    /// certificate would be unverifiable at the receiver.
    fn collect_certified_entries(&self, lo: u64, hi: u64) -> Vec<OrderedEntry> {
        let mut budget = ServeBudget::new();
        let mut entries: Vec<OrderedEntry> = Vec::new();
        let lo = lo.max(self.store.latest_seq().0 + 1);
        if hi < lo {
            return entries; // Entirely committed already (or inverted).
        }
        // Iterate the (bounded, commit-pruned) instance records — never the
        // raw numeric range, which is attacker-controlled and may span 2^64.
        for (_, record) in self.instances.range(lo..=hi) {
            let (Some(qc), Some(batch)) = (&record.ord_qc, &record.batch) else {
                continue;
            };
            let entry = OrderedEntry {
                batch: Arc::clone(batch),
                qc: qc.clone(),
            };
            if !budget.take(entry.wire_size(), entries.len()) {
                break;
            }
            entries.push(entry);
        }
        entries
    }

    /// Serves a peer's request for missing blocks or certified ordered
    /// batches. Rate-limited per `(peer, kind)` and byte-budgeted: a peer
    /// asking for the world gets the bounded head of the range and is
    /// expected to ask again for the remainder.
    pub(crate) fn handle_sync_req(
        &mut self,
        from: Actor,
        kind: SyncKind,
        lo: u64,
        hi: u64,
        ctx: &mut Context<Message>,
    ) {
        if hi < lo {
            return;
        }
        if self.serve_throttled(from, kind, ctx.now().as_ms()) {
            return;
        }
        let mut budget = ServeBudget::new();
        let response = match kind {
            SyncKind::ViewChange => {
                let mut blocks = Vec::new();
                for block in self.store.vc_blocks_in(lo, hi) {
                    if !budget.take(block.wire_size(), blocks.len()) {
                        break;
                    }
                    blocks.push(block);
                }
                Message::SyncResp {
                    vc_blocks: blocks,
                    tx_blocks: Vec::new(),
                    ordered: Vec::new(),
                    ckpt: None,
                }
            }
            SyncKind::Transaction => {
                let mut blocks = Vec::new();
                for block in self.store.tx_blocks_in(lo, hi) {
                    if !budget.take(block.wire_size(), blocks.len()) {
                        break;
                    }
                    blocks.push(block);
                }
                Message::SyncResp {
                    vc_blocks: Vec::new(),
                    tx_blocks: blocks,
                    ordered: Vec::new(),
                    ckpt: None,
                }
            }
            SyncKind::Ordered => Message::SyncResp {
                vc_blocks: Vec::new(),
                tx_blocks: Vec::new(),
                ordered: self.collect_certified_entries(lo, hi),
                ckpt: None,
            },
            // A far-behind (or freshly restarted) peer catching up in bulk:
            // the budgeted head of the missing block range, the full view
            // history it may lack, and the stable checkpoint certificate so
            // it can install the checkpoint as soon as its chain reaches the
            // certified height.
            SyncKind::Snapshot => {
                let mut tx_blocks = Vec::new();
                for block in self.store.tx_blocks_in(lo, hi) {
                    if !budget.take(block.wire_size(), tx_blocks.len()) {
                        break;
                    }
                    tx_blocks.push(block);
                }
                let mut vc_blocks = Vec::new();
                for block in self.store.vc_blocks_in(1, self.store.current_view().0) {
                    if !budget.take(block.wire_size(), vc_blocks.len()) {
                        break;
                    }
                    vc_blocks.push(block);
                }
                Message::SyncResp {
                    vc_blocks,
                    tx_blocks,
                    ordered: Vec::new(),
                    ckpt: self.stable_ckpt_cert.clone(),
                }
            }
        };
        ctx.send(from, response);
    }

    /// Pushes certified ordered state `[lo, hi]` to a peer unsolicited (the
    /// payload is self-validating, so an unsolicited `SyncResp` is exactly
    /// as trustworthy as a requested one). Used by the vote path: a voter
    /// refusing a candidate whose claim does not cover the voter's signed
    /// instances *is the proof-holder* — pushing the certificates lets an
    /// honest candidate's retry be certified instead of leaving it to guess
    /// what it is missing. Shares the serve rate limiter and budget.
    pub(crate) fn push_certified_state(
        &mut self,
        to: Actor,
        lo: u64,
        hi: u64,
        ctx: &mut Context<Message>,
    ) {
        if hi < lo {
            return;
        }
        if self.serve_throttled(to, SyncKind::Ordered, ctx.now().as_ms()) {
            return;
        }
        let entries = self.collect_certified_entries(lo, hi);
        if entries.is_empty() {
            return;
        }
        ctx.send(
            to,
            Message::SyncResp {
                vc_blocks: Vec::new(),
                tx_blocks: Vec::new(),
                ordered: entries,
                ckpt: None,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_crypto::{sign_share, KeyRegistry, QcBuilder};
    use prestige_sim::{Context, Effects, Emission, SimRng, SimTime};
    use prestige_types::{
        ClientId, ClusterConfig, Digest, Proposal, QcKind, SeqNum, ServerId, Transaction, View,
    };

    fn with_ctx(
        server: &mut PrestigeServer,
        f: impl FnOnce(&mut PrestigeServer, &mut Context<Message>),
    ) -> Effects<Message> {
        let mut effects = Effects::new();
        let mut rng = SimRng::new(3);
        let mut next_timer_id = 100;
        let me = Actor::Server(server.id());
        let mut ctx = Context::new(
            SimTime::from_ms(50.0),
            me,
            &mut rng,
            &mut next_timer_id,
            &mut effects,
        );
        f(server, &mut ctx);
        effects
    }

    fn certified_server(registry: &KeyRegistry, instances: u64) -> PrestigeServer {
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let quorum = server.config.quorum();
        for n in 1..=instances {
            let batch = vec![Proposal::new(
                Transaction::with_size(ClientId(1), n, 16),
                Digest::ZERO,
            )];
            let digest = PrestigeServer::batch_digest(View(1), SeqNum(n), &batch);
            let mut builder = QcBuilder::new(QcKind::Ordering, View(1), SeqNum(n), digest, quorum);
            for s in 0..quorum {
                let share = sign_share(
                    registry,
                    ServerId(s),
                    QcKind::Ordering,
                    View(1),
                    SeqNum(n),
                    &digest,
                )
                .unwrap();
                builder.add_share(registry, &share).unwrap();
            }
            let record = server.instances.entry(n).or_default();
            record.ord_qc = Some(builder.assemble().unwrap());
            record.batch = Some(Arc::new(batch));
        }
        server
    }

    fn served_ordered(effects: &Effects<Message>) -> Option<Vec<u64>> {
        effects.emissions.iter().find_map(|e| match e {
            Emission::Send(_, Message::SyncResp { ordered, .. }) => {
                Some(ordered.iter().map(|e| e.seq().0).collect())
            }
            _ => None,
        })
    }

    #[test]
    fn ordered_sync_serves_only_provable_instances() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = certified_server(&registry, 3);
        // Instance 4: batch without QC — must not be served.
        server.instances.entry(4).or_default().batch = Some(Arc::new(vec![Proposal::new(
            Transaction::with_size(ClientId(1), 4, 16),
            Digest::ZERO,
        )]));
        let requester = Actor::Server(ServerId(2));
        let effects = with_ctx(&mut server, |s, ctx| {
            s.handle_sync_req(requester, SyncKind::Ordered, 1, 10, ctx);
        });
        assert_eq!(
            served_ordered(&effects),
            Some(vec![1, 2, 3]),
            "exactly the certified instances are served"
        );
    }

    #[test]
    fn repeat_requests_are_rate_limited_per_peer_and_kind() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = certified_server(&registry, 1);
        let requester = Actor::Server(ServerId(2));
        // Two back-to-back Ordered requests at the same timestamp: the second
        // is throttled. A different kind from the same peer is not.
        let effects = with_ctx(&mut server, |s, ctx| {
            s.handle_sync_req(requester, SyncKind::Ordered, 1, 1, ctx);
            s.handle_sync_req(requester, SyncKind::Ordered, 1, 1, ctx);
            s.handle_sync_req(requester, SyncKind::Transaction, 1, 1, ctx);
        });
        let responses = effects
            .emissions
            .iter()
            .filter(|e| matches!(e, Emission::Send(_, Message::SyncResp { .. })))
            .count();
        assert_eq!(responses, 2, "one Ordered + one Transaction response");
        assert_eq!(server.stats().sync_throttled, 1);
    }

    #[test]
    fn responses_are_byte_budgeted() {
        // 600 instances of ~2 KiB batches: the 1 MiB budget (and the block
        // count cap) must bound the response instead of shipping the world.
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = certified_server(&registry, 1);
        let quorum = server.config.quorum();
        for n in 2..=600u64 {
            let batch = vec![Proposal::new(
                Transaction::with_size(ClientId(1), n, 2048),
                Digest::ZERO,
            )];
            let digest = PrestigeServer::batch_digest(View(1), SeqNum(n), &batch);
            let mut builder = QcBuilder::new(QcKind::Ordering, View(1), SeqNum(n), digest, quorum);
            for s in 0..quorum {
                let share = sign_share(
                    &registry,
                    ServerId(s),
                    QcKind::Ordering,
                    View(1),
                    SeqNum(n),
                    &digest,
                )
                .unwrap();
                builder.add_share(&registry, &share).unwrap();
            }
            let record = server.instances.entry(n).or_default();
            record.ord_qc = Some(builder.assemble().unwrap());
            record.batch = Some(Arc::new(batch));
        }
        let effects = with_ctx(&mut server, |s, ctx| {
            s.handle_sync_req(Actor::Server(ServerId(2)), SyncKind::Ordered, 1, 600, ctx);
        });
        let served = served_ordered(&effects).expect("a response is sent");
        assert!(
            !served.is_empty() && served.len() < 600,
            "the budget must bound the response: {} entries",
            served.len()
        );
        // The head of the range is served, so iterative re-requests converge.
        assert_eq!(served[0], 1);
    }
}

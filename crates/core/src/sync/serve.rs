//! The serve side of the sync subsystem: the one answer to a `SyncReq`,
//! under a per-peer rate limit and a per-response byte budget.

use super::{MAX_SYNC_BLOCKS, MAX_SYNC_RESP_BYTES, SERVE_MIN_INTERVAL_MS};
use crate::server::PrestigeServer;
use prestige_sim::Context;
use prestige_types::{Actor, Message, OrderedEntry, TxBlock, VcBlock, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether `peer` was last recorded in `last` less than
/// [`SERVE_MIN_INTERVAL_MS`] before `now`; otherwise records `now`.
pub(super) fn throttled(last: &mut BTreeMap<Actor, f64>, peer: Actor, now: f64) -> bool {
    if last
        .get(&peer)
        .is_some_and(|t| now - t < SERVE_MIN_INTERVAL_MS)
    {
        return true;
    }
    last.insert(peer, now);
    false
}

/// The shared response budget: the first item of each kind is always
/// served, then assembly stops once the byte budget is spent or the count
/// cap reached, so one response can never balloon past the frame bound.
struct ServeBudget {
    bytes: usize,
}

impl ServeBudget {
    fn fill<T>(&mut self, items: impl IntoIterator<Item = T>, size: fn(&T) -> usize) -> Vec<T> {
        let mut taken = Vec::new();
        for item in items {
            let size = size(&item);
            if !taken.is_empty() && (size > self.bytes || taken.len() >= MAX_SYNC_BLOCKS) {
                break;
            }
            self.bytes = self.bytes.saturating_sub(size);
            taken.push(item);
        }
        taken
    }
}

impl PrestigeServer {
    /// Answers `peer`, which holds view `view` and needs `[from, to]`: the
    /// vcBlocks above `view`, the committed blocks `[from, min(to, tip)]`,
    /// the instances above the tip up to `to` that this server can *prove*
    /// (ordering QC and batch — anything less is unverifiable at the
    /// receiver), and the stable checkpoint certificate when the block range
    /// is wider than one response. Rate-limited per peer and byte-budgeted:
    /// a peer asking for the world gets the bounded head and asks again. An
    /// empty answer is not sent.
    ///
    /// This serves `SyncReq`s, and the vote path pushes the same answer
    /// unsolicited — a voter refusing a candidate whose claim does not cover
    /// the voter's signed instances *is the proof-holder*, so it answers the
    /// question the candidate's retry will need answered. The payload is
    /// self-validating, so unsolicited answers are exactly as trustworthy.
    pub(crate) fn serve_sync(
        &mut self,
        peer: Actor,
        view: View,
        from: u64,
        to: u64,
        ctx: &mut Context<Message>,
    ) {
        if throttled(&mut self.sync_served_ms, peer, ctx.now().as_ms()) {
            self.stats.sync_throttled += 1;
            return;
        }
        let tip = self.store.latest_seq().0;
        let mut budget = ServeBudget {
            bytes: MAX_SYNC_RESP_BYTES,
        };
        let views = self
            .store
            .vc_blocks_in(view.0.saturating_add(1), self.current_view().0);
        let vc_blocks = budget.fill(views, VcBlock::wire_size);
        let tx_blocks = budget.fill(
            self.store.tx_blocks_in(from, to.min(tip)),
            TxBlock::wire_size,
        );
        // Iterate the (bounded, commit-pruned) instance records — never the
        // raw numeric range, which is attacker-controlled and may span 2^64.
        let provable = self.instances.range(from.max(tip + 1)..);
        let provable = provable.take_while(|(&n, _)| n <= to).filter_map(|(_, r)| {
            Some(OrderedEntry {
                batch: Arc::clone(r.batch.as_ref()?),
                qc: r.ord_qc.clone()?,
            })
        });
        let ordered = budget.fill(provable, OrderedEntry::wire_size);
        let far_behind = to.min(tip).saturating_sub(from) >= MAX_SYNC_BLOCKS as u64;
        let ckpt = self.stable_ckpt_cert.clone().filter(|_| far_behind);
        if vc_blocks.is_empty() && tx_blocks.is_empty() && ordered.is_empty() && ckpt.is_none() {
            return;
        }
        let answer = Message::SyncResp {
            vc_blocks,
            tx_blocks,
            ordered,
            ckpt,
        };
        ctx.send(peer, answer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::block_keys_digest;
    use prestige_crypto::{sign_share, KeyRegistry, QcBuilder};
    use prestige_sim::{Context, Effects, Emission, SimRng, SimTime};
    use prestige_types::{
        ClientId, ClusterConfig, Digest, Proposal, QcKind, QuorumCertificate, SeqNum, ServerId,
        Transaction,
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

    /// A server holding provable instances `1..=instances` of `size`-byte
    /// transactions above an empty chain.
    fn certified_server(registry: &KeyRegistry, instances: u64, size: usize) -> PrestigeServer {
        let mut server =
            PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry.clone(), 0);
        let quorum = server.config.quorum();
        for n in 1..=instances {
            let batch = vec![Proposal::new(
                Transaction::with_size(ClientId(1), n, size),
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

    /// A server that committed blocks `1..=blocks` in view 1, installed
    /// view 2, and holds a stable checkpoint certificate.
    fn committed_server(blocks: u64) -> PrestigeServer {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = PrestigeServer::new(ServerId(1), ClusterConfig::new(4), registry, 0);
        for n in 1..=blocks {
            let tx = Transaction::with_size(ClientId(1), n, 16);
            let block = TxBlock::new(View(1), SeqNum(n), vec![tx]);
            let keys = block_keys_digest(&block);
            assert!(server.store.insert_tx_block(block, keys));
        }
        let genesis = server.store.latest_vc_block();
        let view2 = genesis.successor(View(2), ServerId(2), 1, 0, None, None);
        assert!(server.store.insert_vc_block(view2));
        server.stable_ckpt_cert = Some(QuorumCertificate {
            kind: QcKind::Checkpoint,
            view: View(0),
            seq: SeqNum(blocks),
            digest: Digest::ZERO,
            signers: Vec::new(),
            aggregate: [0; 32],
        });
        server
    }

    /// One answer sent: (views, block heights, ordered heights, checkpoint?).
    type Answer = (Vec<u64>, Vec<u64>, Vec<u64>, bool);

    fn answers(effects: &Effects<Message>) -> Vec<Answer> {
        let answers = effects.emissions.iter().filter_map(|e| match e {
            Emission::Send(
                _,
                Message::SyncResp {
                    vc_blocks,
                    tx_blocks,
                    ordered,
                    ckpt,
                },
            ) => Some((
                vc_blocks.iter().map(|b| b.v.0).collect(),
                tx_blocks.iter().map(|b| b.n.0).collect(),
                ordered.iter().map(|e| e.seq().0).collect(),
                ckpt.is_some(),
            )),
            _ => None,
        });
        answers.collect()
    }

    fn ask(server: &mut PrestigeServer, view: u64, from: u64, to: u64) -> Effects<Message> {
        let requester = Actor::Server(ServerId(2));
        with_ctx(server, |s, ctx| {
            s.serve_sync(requester, View(view), from, to, ctx)
        })
    }

    #[test]
    fn a_far_behind_requester_gets_views_the_budgeted_head_and_the_checkpoint() {
        let mut server = committed_server(300);
        let sent = answers(&ask(&mut server, 1, 1, 300));
        let [(views, blocks, ordered, ckpt)] = &sent[..] else {
            panic!("one answer expected: {sent:?}");
        };
        assert_eq!(views, &[2]);
        assert_eq!(blocks[..], (1..=MAX_SYNC_BLOCKS as u64).collect::<Vec<_>>());
        assert!(ordered.is_empty() && *ckpt);
    }

    #[test]
    fn a_one_block_gap_gets_exactly_that_block() {
        let mut server = committed_server(300);
        let sent = answers(&ask(&mut server, 2, 5, 5));
        assert_eq!(sent, [(vec![], vec![5], vec![], false)]);
    }

    #[test]
    fn a_requester_at_the_tip_gets_only_provable_instances() {
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = certified_server(&registry, 3, 16);
        // Instance 4: batch without QC — must not be served.
        server.instances.entry(4).or_default().batch = Some(Arc::new(vec![Proposal::new(
            Transaction::with_size(ClientId(1), 4, 16),
            Digest::ZERO,
        )]));
        let sent = answers(&ask(&mut server, 1, 1, 10));
        assert_eq!(sent, [(vec![], vec![], vec![1, 2, 3], false)]);
    }

    #[test]
    fn one_peer_is_answered_once_per_serve_interval() {
        let mut server = committed_server(2);
        let (first, second) = (Actor::Server(ServerId(2)), Actor::Server(ServerId(3)));
        let effects = with_ctx(&mut server, |s, ctx| {
            s.serve_sync(first, View(2), 1, 1, ctx);
            s.serve_sync(first, View(2), 2, 2, ctx); // throttled
            s.serve_sync(second, View(2), 2, 2, ctx); // another peer
        });
        let to: Vec<Actor> = effects
            .emissions
            .iter()
            .filter_map(|e| match e {
                Emission::Send(peer, Message::SyncResp { .. }) => Some(*peer),
                _ => None,
            })
            .collect();
        assert_eq!(to, [first, second]);
        assert_eq!(server.stats().sync_throttled, 1);
    }

    #[test]
    fn responses_are_byte_budgeted() {
        // 600 instances of ~2 KiB batches: the 1 MiB budget (and the block
        // count cap) must bound the response instead of shipping the world.
        let registry = KeyRegistry::new(5, 4, 2);
        let mut server = certified_server(&registry, 600, 2048);
        let sent = answers(&ask(&mut server, 1, 1, 600));
        let served = &sent[0].2;
        assert!(
            !served.is_empty() && served.len() < 600,
            "the budget must bound the response: {} entries",
            served.len()
        );
        // The head of the range is served, so iterative re-requests converge.
        assert_eq!(served[0], 1);
    }
}

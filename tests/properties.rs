//! Property-based tests over the core data structures and invariants.

use prestigebft::crypto::{sign_share, QcBuilder, ThresholdVerifier};
use prestigebft::prelude::*;
use prestigebft::reputation::{delta_tx, delta_vc, PenaltyHistory};
use prestigebft::types::{Digest, QcKind, QuorumCertificate};
use proptest::prelude::*;

proptest! {
    /// SHA-256: incremental hashing equals one-shot hashing for any chunking.
    #[test]
    fn sha256_incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                          chunk in 1usize..97) {
        let one_shot = Sha256::digest(&data);
        let mut hasher = Sha256::new();
        for part in data.chunks(chunk) {
            hasher.update(part);
        }
        prop_assert_eq!(hasher.finalize(), one_shot);
    }

    /// SHA-256 is deterministic and (practically) injective on small inputs.
    #[test]
    fn sha256_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(Sha256::digest(&data), Sha256::digest(&data));
    }

    /// Replica-set arithmetic: n = 3f + 1 clusters tolerate exactly f faults
    /// and quorums always intersect in at least one correct server.
    #[test]
    fn quorum_intersection(n in 1u32..200) {
        let rs = ReplicaSet::new(n);
        let f = rs.f();
        prop_assert!(3 * f < n);
        // Two quorums of size 2f+1 out of n ≤ 3f+3 overlap in ≥ f+1 servers
        // when n = 3f+1; check the arithmetic identity the proofs rely on.
        if n == 3 * f + 1 {
            prop_assert!(2 * rs.quorum() > n + f);
        }
        prop_assert_eq!(rs.confirm_quorum(), f + 1);
    }

    /// Threshold QCs verify exactly when enough distinct shares were added.
    #[test]
    fn qc_roundtrip(n in 4u32..20, extra in 0u32..3, seed in any::<u64>()) {
        let rs = ReplicaSet::new(n);
        let threshold = rs.quorum();
        let registry = KeyRegistry::new(seed, n, 0);
        let digest = Digest(Sha256::digest(&seed.to_be_bytes()));
        let mut builder = QcBuilder::new(QcKind::Commit, View(3), SeqNum(9), digest, threshold);
        let signer_count = (threshold + extra).min(n);
        for i in 0..signer_count {
            let share = sign_share(&registry, ServerId(i), QcKind::Commit, View(3), SeqNum(9), &digest).unwrap();
            builder.add_share(&registry, &share).unwrap();
        }
        let qc = builder.assemble().unwrap();
        prop_assert!(ThresholdVerifier::new(&registry).verify(&qc, threshold).is_ok());
        // It must not verify against a larger threshold than it has signers.
        prop_assert!(ThresholdVerifier::new(&registry).verify(&qc, signer_count + 1).is_err());
    }

    /// Reputation: δtx and δvc stay within the paper's stated ranges for any
    /// inputs, so the deduction is always a strict fraction of rp_temp.
    #[test]
    fn compensation_factors_bounded(ti in 0u64..1_000_000, ci in 0u64..1_000_000,
                                    rp in -10i64..1000,
                                    history in proptest::collection::vec(1i64..1000, 1..50)) {
        let dtx = delta_tx(ti, ci);
        prop_assert!((0.0..=1.0).contains(&dtx));
        let dvc = delta_vc(rp, &PenaltyHistory::new(history));
        prop_assert!(dvc > 0.0 && dvc < 1.0);
    }

    /// Reputation engine invariants (Algorithm 1): the new penalty never drops
    /// below 1, never exceeds the penalized value, and unsuccessful histories
    /// (no replication progress) are never compensated.
    #[test]
    fn calc_rp_invariants(current_rp in 1i64..50,
                          view in 1u64..1000,
                          jump in 1u64..10,
                          ti in 0u64..100_000,
                          ci in 1u64..100_000,
                          history in proptest::collection::vec(1i64..50, 1..30)) {
        let engine = ReputationEngine;
        let out = engine.calc_rp(&CalcRpInput {
            current_view: View(view),
            new_view: View(view + jump),
            current_rp,
            current_ci: ci,
            latest_tx_seq: SeqNum(ti),
            penalty_history: history,
        });
        prop_assert!(out.new_rp >= 1);
        prop_assert!(out.new_rp <= out.rp_temp);
        prop_assert_eq!(out.rp_temp, current_rp + jump as i64);
        if ti <= ci {
            // No incremental replication progress → no compensation.
            prop_assert_eq!(out.new_rp, out.rp_temp);
            prop_assert_eq!(out.new_ci, ci);
        }
        // The compensation index never moves backwards.
        prop_assert!(out.new_ci >= ci);
    }

    /// The PoW puzzle solver/verifier round-trips for any block digest and
    /// small penalties, and a harder claim over the same solution is refused.
    #[test]
    fn pow_roundtrip(tag in any::<[u8; 32]>(), rp in 0i64..4, seed in any::<u64>()) {
        let solver = PowSolver::PAPER_MODEL;
        let puzzle = PowPuzzle::new(Digest(tag), rp);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (solution, attempts) = solver.solve(&puzzle, &mut rng);
        prop_assert!(attempts >= 1.0);
        prop_assert!(solver.verify(&puzzle, &solution).is_ok());
        let harder = PowPuzzle::new(Digest(tag), rp + 8);
        prop_assert!(solver.verify(&harder, &solution).is_err());
    }

    /// vcBlock successors only ever change the elected leader's reputation
    /// entry, which is what the §4.2.4 adoption check enforces.
    #[test]
    fn vcblock_successor_changes_only_leader(n in 4u32..20, leader in 0u32..20,
                                             rp in 1i64..20, ci in 1u64..1000) {
        let leader = ServerId(leader % n);
        let genesis = prestigebft::types::VcBlock::genesis(n);
        let next = genesis.successor(View(2), leader, rp, ci, None, None);
        prop_assert!(genesis.reputation_delta_only_for(&next, leader));
        for i in 0..n {
            if ServerId(i) != leader {
                prop_assert_eq!(next.rp_of(ServerId(i)), genesis.rp_of(ServerId(i)));
                prop_assert_eq!(next.ci_of(ServerId(i)), genesis.ci_of(ServerId(i)));
            }
        }
        prop_assert_eq!(next.rp_of(leader), rp);
    }
}

/// The batch-digest specification written out as owned byte lists: the keys
/// digest is SHA-256 over the 16-byte tag and one 16-byte
/// `(client BE ‖ number BE)` record per proposal, and the ordering and
/// chain digests are `hash_many` lists over it. The streaming
/// implementations must match it byte-for-byte.
fn spec_keys_digest(batch: &[prestigebft::types::Proposal]) -> Digest {
    let mut bytes = b"prestige-keys-v1".to_vec();
    for p in batch {
        bytes.extend_from_slice(&p.tx.client.0.to_be_bytes());
        bytes.extend_from_slice(&p.tx.timestamp.to_be_bytes());
    }
    Digest(Sha256::digest(&bytes))
}

fn spec_batch_digest(view: View, n: SeqNum, batch: &[prestigebft::types::Proposal]) -> Digest {
    let parts: Vec<Vec<u8>> = vec![
        b"batch".to_vec(),
        view.0.to_be_bytes().to_vec(),
        n.0.to_be_bytes().to_vec(),
        spec_keys_digest(batch).0.to_vec(),
    ];
    prestigebft::crypto::hash_many(parts.iter().map(|p| p.as_slice()))
}

fn spec_chain_digest(n: SeqNum, prev: Digest, batch: &[prestigebft::types::Proposal]) -> Digest {
    let parts: Vec<Vec<u8>> = vec![
        b"txblock".to_vec(),
        n.0.to_be_bytes().to_vec(),
        prev.0.to_vec(),
        spec_keys_digest(batch).0.to_vec(),
    ];
    prestigebft::crypto::hash_many(parts.iter().map(|p| p.as_slice()))
}

fn arbitrary_batch(ids: &[u64], payload: usize) -> Vec<prestigebft::types::Proposal> {
    ids.iter()
        .map(|&raw| {
            // Split one arbitrary word into a (client, timestamp) identity.
            let (client, ts) = (raw % 50, raw / 50);
            let tx = prestigebft::types::Transaction::with_size(ClientId(client), ts, payload);
            prestigebft::types::Proposal::new(tx, Digest::ZERO)
        })
        .collect()
}

fn hex(digest: Digest) -> String {
    digest.0.iter().map(|b| format!("{b:02x}")).collect()
}

/// Known-answer vector for the layered digests, computed independently of
/// this code base (Python `hashlib`) from the byte layout above.
#[test]
fn batch_digest_known_answer() {
    use prestigebft::core::storage::tx_block_digest;
    use prestigebft::crypto::{batch_digest, keys_digest};
    let keys = [(ClientId(1), 100), (ClientId(2), 200), (ClientId(1), 101)];
    let batch: Vec<_> = keys
        .iter()
        .map(|&(c, t)| {
            let tx = prestigebft::types::Transaction::with_size(c, t, 8);
            prestigebft::types::Proposal::new(tx, Digest::ZERO)
        })
        .collect();
    let k = keys_digest(keys);
    assert_eq!(
        hex(k),
        "bd9134b108a6bd0abe7c3a031853a23874832f36002ee150ba185bdc334747d4"
    );
    assert_eq!(
        hex(batch_digest(View(3), SeqNum(7), &batch)),
        "be81b9878409725aefd531a8b19a9ae9d6cd1ffbb232442f7f55c744760cee09"
    );
    assert_eq!(
        hex(tx_block_digest(SeqNum(7), Digest::ZERO, &k)),
        "84ff6cd376ab1285d3411248c08c6123d797305af8e323b323dc59a354ca0342"
    );
}

proptest! {
    /// Digest spec: the streaming ordering digest and chain digest equal the
    /// list-of-parts spec of the keys-digest layering, for any batch.
    #[test]
    fn streaming_batch_digest_matches_layered_spec(
        view in 1u64..1_000_000, n in 0u64..1_000_000,
        prev in any::<[u8; 32]>(),
        ids in proptest::collection::vec(any::<u64>(), 0..64),
        payload in 0usize..128)
    {
        let batch = arbitrary_batch(&ids, payload);
        prop_assert_eq!(
            prestigebft::core::batch_digest(View(view), SeqNum(n), &batch),
            spec_batch_digest(View(view), SeqNum(n), &batch)
        );
        let keys = prestigebft::crypto::keys_digest(batch.iter().map(|p| p.tx.key()));
        prop_assert_eq!(
            prestigebft::core::storage::tx_block_digest(SeqNum(n), Digest(prev), &keys),
            spec_chain_digest(SeqNum(n), Digest(prev), &batch)
        );
    }

    /// Order sensitivity survives the layering: swapping two distinct
    /// proposals changes the digest, exactly as the spec demands.
    #[test]
    fn streaming_batch_digest_is_order_sensitive(
        ids in proptest::collection::vec(any::<u64>(), 2..32),
        i in 0usize..32, j in 0usize..32)
    {
        let batch = arbitrary_batch(&ids, 0);
        let (i, j) = (i % batch.len(), j % batch.len());
        let mut swapped = batch.clone();
        swapped.swap(i, j);
        let a = prestigebft::core::batch_digest(View(1), SeqNum(1), &batch);
        let b = prestigebft::core::batch_digest(View(1), SeqNum(1), &swapped);
        let distinct = batch[i].tx.key() != batch[j].tx.key();
        prop_assert_eq!(a != b, distinct);
        // And both orderings agree with the spec.
        prop_assert_eq!(b, spec_batch_digest(View(1), SeqNum(1), &swapped));
    }

    /// The keys digest streams its records through a fixed stack buffer;
    /// for every batch length up to 200 keys (across the buffer boundary)
    /// it equals one SHA-256 over the same bytes.
    #[test]
    fn keys_digest_chunked_equals_one_shot(
        ids in proptest::collection::vec(any::<u64>(), 0..200))
    {
        let batch = arbitrary_batch(&ids, 0);
        prop_assert_eq!(
            prestigebft::crypto::keys_digest(batch.iter().map(|p| p.tx.key())),
            spec_keys_digest(&batch)
        );
    }

    /// Incremental (field-streamed) hashing equals the collected-parts hash
    /// for arbitrary part lists — the invariant every protocol digest relies
    /// on after the FramedHasher rewrite.
    #[test]
    fn framed_hasher_matches_hash_many(
        parts in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..32))
    {
        let mut h = prestigebft::crypto::FramedHasher::new();
        for p in &parts {
            h.field(p);
        }
        prop_assert_eq!(
            h.finish(),
            prestigebft::crypto::hash_many(parts.iter().map(|p| p.as_slice()))
        );
    }
}

// ---------------------------------------------------------------------------
// Pipelined replication: out-of-order delivery safety
// ---------------------------------------------------------------------------

mod pipeline_delivery {
    use prestigebft::crypto::{batch_digest, sign_share, KeyRegistry, QcBuilder};
    use prestigebft::prelude::*;
    use prestigebft::sim::{Context, Effects, Process, SimRng, SimTime};
    use prestigebft::types::{Digest, Proposal, QcKind, QuorumCertificate, Transaction, TxBlock};
    use std::sync::Arc;

    /// Builds a valid QC over `digest` signed by servers 0..quorum.
    fn build_qc(
        registry: &KeyRegistry,
        kind: QcKind,
        view: View,
        n: SeqNum,
        digest: Digest,
        quorum: u32,
    ) -> QuorumCertificate {
        let mut builder = QcBuilder::new(kind, view, n, digest, quorum);
        for s in 0..quorum {
            let share = sign_share(registry, ServerId(s), kind, view, n, &digest).unwrap();
            builder.add_share(registry, &share).unwrap();
        }
        builder.assemble().unwrap()
    }

    /// The leader-side messages of one fully certified consensus instance.
    pub(super) fn instance_messages(
        registry: &KeyRegistry,
        quorum: u32,
        n: u64,
    ) -> (Message, Message) {
        let view = View(1);
        let seq = SeqNum(n);
        let batch: Vec<Proposal> = (0..3)
            .map(|i| {
                let tx = Transaction::with_size(ClientId(1), n * 10 + i, 16);
                Proposal::new(tx, Digest::ZERO)
            })
            .collect();
        let digest = batch_digest(view, seq, &batch);
        let leader = Actor::Server(ServerId(0));
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        let ord = Message::Ord {
            view,
            n: seq,
            batch: Arc::new(batch.clone()),
            digest,
            sig,
        };
        let mut block = TxBlock::new(view, seq, batch.into_iter().map(|p| p.tx).collect());
        block.ordering_qc = Some(build_qc(
            registry,
            QcKind::Ordering,
            view,
            seq,
            digest,
            quorum,
        ));
        block.commit_qc = Some(build_qc(
            registry,
            QcKind::Commit,
            view,
            seq,
            digest,
            quorum,
        ));
        let commit = Message::CommitBlock {
            block: Arc::new(block),
            sig: [0u8; 32],
        };
        (ord, commit)
    }

    /// Delivers `messages` to a fresh follower in the given order and returns
    /// it for inspection.
    pub(super) fn deliver_all(messages: &[Message]) -> PrestigeServer {
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(41, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config, registry, 0);
        let mut rng = SimRng::new(5);
        let mut next_timer_id = 0u64;
        for message in messages {
            let mut effects: Effects<Message> = Effects::new();
            let mut ctx = Context::new(
                SimTime::from_ms(1.0),
                Actor::Server(ServerId(1)),
                &mut rng,
                &mut next_timer_id,
                &mut effects,
            );
            follower.on_message(Actor::Server(ServerId(0)), message.clone(), &mut ctx);
        }
        follower
    }
}

proptest! {
    /// Pipelined window safety: `Ord` and `CommitBlock` messages for a window
    /// of consecutive sequence numbers, delivered in a completely arbitrary
    /// order (including `CommitBlock` before the corresponding `Ord`, i.e.
    /// maximal delay), leave the follower's log gap-free and in sequence
    /// order, with every block chained to its predecessor.
    #[test]
    fn shuffled_pipelined_delivery_commits_gap_free(
        window in 2u64..9,
        priorities in proptest::collection::vec(any::<u64>(), 18..19),
        drop_ords in proptest::collection::vec(any::<bool>(), 9..10),
    ) {
        let registry = KeyRegistry::new(41, 4, 2);
        let quorum = 3;
        let mut messages = Vec::new();
        for n in 1..=window {
            let (ord, commit) = pipeline_delivery::instance_messages(&registry, quorum, n);
            // A dropped Ord models a delayed/lost ordering round: commits are
            // certified purely by their QCs and must still apply.
            if !drop_ords.get(n as usize).copied().unwrap_or(false) {
                messages.push(ord);
            }
            messages.push(commit);
        }
        // Deterministic shuffle: sort by the arbitrary priority vector.
        let mut keyed: Vec<(u64, Message)> = messages
            .into_iter()
            .enumerate()
            .map(|(i, m)| (priorities.get(i).copied().unwrap_or(i as u64), m))
            .collect();
        keyed.sort_by_key(|(k, _)| *k);
        let shuffled: Vec<Message> = keyed.into_iter().map(|(_, m)| m).collect();

        let follower = pipeline_delivery::deliver_all(&shuffled);

        // Gap-free, in order, fully caught up.
        prop_assert_eq!(follower.store().latest_seq(), SeqNum(window));
        prop_assert_eq!(follower.stats().committed_blocks, window);
        let mut prev_digest = None;
        for n in 1..=window {
            let block = follower.store().tx_block(SeqNum(n)).expect("block present");
            prop_assert_eq!(block.n, SeqNum(n));
            if let Some(prev) = prev_digest {
                prop_assert_eq!(block.header.prev_digest, prev, "chain broken at T{}", n);
            }
            prev_digest = Some(block.header.digest);
        }
    }

    /// Re-delivering the same certified blocks (duplicates, any order) is
    /// idempotent: the log does not change and nothing is double-committed.
    #[test]
    fn duplicate_commit_blocks_are_idempotent(
        window in 2u64..6,
        dup_priorities in proptest::collection::vec(any::<u64>(), 10..11),
    ) {
        let registry = KeyRegistry::new(41, 4, 2);
        let mut messages = Vec::new();
        for n in 1..=window {
            let (ord, commit) = pipeline_delivery::instance_messages(&registry, 3, n);
            messages.push(ord);
            messages.push(commit.clone());
            messages.push(commit); // duplicate
        }
        let mut keyed: Vec<(u64, Message)> = messages
            .into_iter()
            .enumerate()
            .map(|(i, m)| (dup_priorities.get(i).copied().unwrap_or(i as u64), m))
            .collect();
        keyed.sort_by_key(|(k, _)| *k);
        let shuffled: Vec<Message> = keyed.into_iter().map(|(_, m)| m).collect();
        let follower = pipeline_delivery::deliver_all(&shuffled);
        prop_assert_eq!(follower.store().latest_seq(), SeqNum(window));
        prop_assert_eq!(follower.stats().committed_blocks, window);
        prop_assert_eq!(follower.stats().committed_tx, window * 3);
    }
}

use rand::SeedableRng;

proptest! {
    /// Wire round trip: any `Ord` replication payload survives
    /// serialize → deserialize bit-exactly (the serde derives on
    /// `prestige-types` and the binary codec agree).
    #[test]
    fn message_ord_wire_round_trip(view in 1u64..1_000_000, n in 0u64..1_000_000,
                                   batch in proptest::collection::vec(any::<u64>(), 0..50),
                                   payload in proptest::collection::vec(any::<u8>(), 0..256),
                                   digest in any::<[u8; 32]>(), sig in any::<[u8; 32]>()) {
        let msg = Message::Ord {
            view: View(view),
            n: SeqNum(n),
            batch: std::sync::Arc::new(
                batch
                    .iter()
                    .map(|&ts| {
                        let tx =
                            prestigebft::types::Transaction::new(ClientId(ts % 7), ts, payload.clone());
                        prestigebft::types::Proposal::new(tx, Digest(digest))
                    })
                    .collect(),
            ),
            digest: Digest(digest),
            sig,
        };
        let bytes = bincode::serialize(&msg).unwrap();
        let back: Message = bincode::deserialize(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Wire (v3) round trip for view-change traffic: campaigns with and
    /// without a confirmation QC, and with certified tip claims of any span
    /// (the `commit_cert` / `tip_cert` fields added by the certified
    /// recovery plane).
    #[test]
    fn message_camp_wire_round_trip(view in 1u64..10_000, jump in 1u64..50,
                                    rp in 1i64..100, ci in 1u64..10_000,
                                    nonce in any::<u64>(), hash in any::<[u8; 32]>(),
                                    with_qc in any::<bool>(),
                                    latest in 0u64..50, span in 0u64..8) {
        let qc = |kind: QcKind, seq: u64| QuorumCertificate {
            kind,
            view: View(view),
            seq: SeqNum(seq),
            digest: Digest(hash),
            signers: vec![ServerId(0), ServerId(2)],
            aggregate: [3u8; 32],
        };
        let conf_qc = with_qc.then(|| qc(QcKind::Confirm, 0));
        let commit_cert = (latest > 0).then(|| qc(QcKind::Commit, latest));
        let tip_cert: Vec<QuorumCertificate> =
            (latest + 1..=latest + span).map(|n| qc(QcKind::Ordering, n)).collect();
        let msg = Message::Camp {
            conf_qc,
            view: View(view),
            new_view: View(view + jump),
            rp,
            ci,
            nonce,
            hash_result: Digest(hash),
            latest_seq: SeqNum(latest),
            latest_ord_seq: SeqNum(latest + span),
            commit_cert,
            tip_cert,
            latest_tx_digest: Digest(hash),
            sig: [1u8; 32],
        };
        let bytes = bincode::serialize(&msg).unwrap();
        let back: Message = bincode::deserialize(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Wire (v3) round trip for the recovery plane's certified sync
    /// payloads: `SyncResp.ordered` entries and state-transfer-carrying
    /// vcBlocks survive serialization bit-exactly.
    #[test]
    fn sync_resp_ordered_wire_round_trip(n_entries in 0usize..5, seq0 in 1u64..1000,
                                         batch in proptest::collection::vec(any::<u64>(), 0..20),
                                         hash in any::<[u8; 32]>(), view in 1u64..100) {
        let entries: Vec<prestigebft::types::OrderedEntry> = (0..n_entries)
            .map(|i| prestigebft::types::OrderedEntry {
                batch: std::sync::Arc::new(
                    batch
                        .iter()
                        .map(|&ts| {
                            let tx = prestigebft::types::Transaction::with_size(ClientId(ts % 5), ts, 16);
                            prestigebft::types::Proposal::new(tx, Digest(hash))
                        })
                        .collect(),
                ),
                qc: QuorumCertificate {
                    kind: QcKind::Ordering,
                    view: View(view),
                    seq: SeqNum(seq0 + i as u64),
                    digest: Digest(hash),
                    signers: vec![ServerId(0), ServerId(1), ServerId(2)],
                    aggregate: [7u8; 32],
                },
            })
            .collect();
        let mut vc = prestigebft::types::VcBlock::genesis(4);
        vc.committed_seq = SeqNum(seq0);
        vc.commit_cert = Some(QuorumCertificate {
            kind: QcKind::Commit,
            view: View(view),
            seq: SeqNum(seq0),
            digest: Digest(hash),
            signers: vec![ServerId(0), ServerId(1), ServerId(2)],
            aggregate: [9u8; 32],
        });
        vc.ord_tip = SeqNum(seq0 + n_entries as u64);
        vc.tip_cert = entries.iter().map(|e| e.qc.clone()).collect();
        let ckpt = (seq0 % 2 == 0).then(|| QuorumCertificate {
            kind: QcKind::Checkpoint,
            view: View(0),
            seq: SeqNum(seq0),
            digest: Digest(hash),
            signers: vec![ServerId(0), ServerId(1), ServerId(3)],
            aggregate: [11u8; 32],
        });
        let msg = Message::SyncResp {
            vc_blocks: vec![vc],
            tx_blocks: Vec::new(),
            ordered: entries,
            ckpt,
        };
        let bytes = bincode::serialize(&msg).unwrap();
        let back: Message = bincode::deserialize(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Wire round trip for the durable storage plane's checkpoint messages
    /// (v4): signed shares and assembled checkpoint certificates survive
    /// serialization bit-exactly, as does the catch-up request (v6) of a
    /// replica in view `view` whose tip is `n - 1`.
    #[test]
    fn checkpoint_messages_wire_round_trip(n in 1u64..10_000, hash in any::<[u8; 32]>(),
                                           view in 1u64..100, signer in 0u32..4) {
        let share = Message::CkptShare {
            n: SeqNum(n),
            view: View(view),
            digest: Digest(hash),
            share: prestigebft::types::PartialSig {
                signer: ServerId(signer),
                sig: [5u8; 32],
            },
        };
        let cert = Message::CkptCert {
            cert: QuorumCertificate {
                kind: QcKind::Checkpoint,
                view: View(0),
                seq: SeqNum(n),
                digest: Digest(hash),
                signers: vec![ServerId(0), ServerId(2), ServerId(3)],
                aggregate: [13u8; 32],
            },
        };
        let snap = Message::SyncReq {
            view: View(view),
            from: n,
            to: n + 500,
        };
        for msg in [share, cert, snap] {
            let bytes = bincode::serialize(&msg).unwrap();
            let back: Message = bincode::deserialize(&bytes).unwrap();
            prop_assert_eq!(back, msg);
        }
    }

    /// v5 → v6 compatibility: a frame encoded under an earlier wire
    /// version (v5's `SyncReq { kind, .. }`, v4 digests, or no checkpoint
    /// messages at all) is rejected *cleanly* by version negotiation — never
    /// decoded into a v6 message it does not describe, never a panic.
    #[test]
    fn old_frames_are_rejected_by_version_negotiation(body in proptest::collection::vec(any::<u8>(), 0..128),
                                                      old in 0u16..6) {
        use prestigebft::net::frame::{FrameCodec, FrameError, MAGIC, WIRE_VERSION};
        prop_assert_eq!(WIRE_VERSION, 6, "this test pins the v5→v6 bump");
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&old.to_le_bytes()); // an old version
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        let codec = FrameCodec::new();
        match codec.decode::<Message>(&frame) {
            Err(FrameError::VersionMismatch { got, want }) => {
                prop_assert_eq!(got, old);
                prop_assert_eq!(want, 6);
            }
            other => prop_assert!(false, "old frame must fail version negotiation, got {:?}", other.is_ok()),
        }
    }

    /// Corrupt wire input never panics or allocates absurdly: decoding random
    /// bytes either fails cleanly or yields a message that re-encodes.
    #[test]
    fn message_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(msg) = bincode::deserialize::<Message>(&bytes) {
            let _ = bincode::serialize(&msg).unwrap();
        }
    }

    /// Every strict prefix of a valid `Ord` or `CommitBlock` frame is
    /// incomplete as it stands (`Ok(None)`), and an error, never a panic or
    /// a message, once its length field claims just that prefix.
    #[test]
    fn truncated_frames_decode_to_none_or_error(ids in proptest::collection::vec(any::<u64>(), 0..8),
                                                payload in 0usize..64) {
        use prestigebft::net::frame::FrameCodec;
        let batch = arbitrary_batch(&ids, payload);
        let txs = batch.iter().map(|p| p.tx.clone()).collect();
        let mut block = prestigebft::types::TxBlock::new(View(2), SeqNum(9), txs);
        block.ordering_qc = Some(pinned::qc(QcKind::Ordering, 9));
        block.commit_qc = Some(pinned::qc(QcKind::Commit, 9));
        let ord = Message::Ord {
            view: View(2),
            n: SeqNum(9),
            batch: std::sync::Arc::new(batch),
            digest: Digest::ZERO,
            sig: [1; 32],
        };
        let commit = Message::CommitBlock { block: std::sync::Arc::new(block), sig: [2; 32] };
        let codec = FrameCodec::new();
        for msg in [ord, commit] {
            let frame = codec.encode(Actor::Server(ServerId(0)), &msg).unwrap();
            for cut in 0..frame.len() {
                prop_assert!(matches!(codec.decode::<Message>(&frame[..cut]), Ok(None)));
                if cut >= 10 {
                    let mut short = frame[..cut].to_vec();
                    short[6..10].copy_from_slice(&((cut - 10) as u32).to_le_bytes());
                    prop_assert!(codec.decode::<Message>(&short).is_err());
                }
            }
        }
    }
}

/// The stand-in serde's format for the payload-carrying types, written out
/// one element at a time without the stand-in: the reference its bulk
/// sequence paths must match byte for byte, and decode like.
mod reference {
    use prestigebft::prelude::*;
    use prestigebft::types::{
        BlockHeader, Digest, Proposal, QcKind, QuorumCertificate, Transaction, TxBlock,
    };

    /// `QcKind`'s variants in declaration order: the order of their tags.
    const QC_KINDS: [QcKind; 7] = [
        QcKind::Confirm,
        QcKind::ViewChange,
        QcKind::Ordering,
        QcKind::PreCommit,
        QcKind::Commit,
        QcKind::Refresh,
        QcKind::Checkpoint,
    ];

    fn len(out: &mut Vec<u8>, n: usize) {
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }

    pub(super) fn bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        len(out, bytes.len());
        for &b in bytes {
            out.push(b);
        }
    }

    pub(super) fn transaction(out: &mut Vec<u8>, tx: &Transaction) {
        out.extend_from_slice(&tx.client.0.to_le_bytes());
        out.extend_from_slice(&tx.timestamp.to_le_bytes());
        bytes(out, &tx.payload);
    }

    pub(super) fn proposals(out: &mut Vec<u8>, batch: &[Proposal]) {
        len(out, batch.len());
        for p in batch {
            transaction(out, &p.tx);
            out.extend_from_slice(&p.digest.0);
        }
    }

    fn qc(out: &mut Vec<u8>, qc: &Option<QuorumCertificate>) {
        let Some(qc) = qc else {
            out.push(0);
            return;
        };
        out.push(1);
        let tag = QC_KINDS.iter().position(|k| *k == qc.kind).unwrap() as u32;
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&qc.view.0.to_le_bytes());
        out.extend_from_slice(&qc.seq.0.to_le_bytes());
        out.extend_from_slice(&qc.digest.0);
        len(out, qc.signers.len());
        for s in &qc.signers {
            out.extend_from_slice(&s.0.to_le_bytes());
        }
        out.extend_from_slice(&qc.aggregate);
    }

    pub(super) fn tx_block(out: &mut Vec<u8>, block: &TxBlock) {
        out.extend_from_slice(&block.header.digest.0);
        out.extend_from_slice(&block.header.prev_digest.0);
        out.extend_from_slice(&block.view.0.to_le_bytes());
        out.extend_from_slice(&block.n.0.to_le_bytes());
        len(out, block.tx.len());
        for tx in &block.tx {
            transaction(out, tx);
        }
        len(out, block.status.len());
        for &s in &block.status {
            out.push(s as u8);
        }
        qc(out, &block.ordering_qc);
        qc(out, &block.commit_qc);
    }

    /// The decoding side: every read is `None` past the end of the input or
    /// on a value the format refuses.
    pub(super) struct Cursor<'a>(&'a [u8]);

    impl Cursor<'_> {
        /// `read` over all of `input`, which it must consume exactly.
        pub(super) fn decode<T>(
            input: &[u8],
            read: impl FnOnce(&mut Cursor<'_>) -> Option<T>,
        ) -> Option<T> {
            let mut cursor = Cursor(input);
            let value = read(&mut cursor)?;
            cursor.0.is_empty().then_some(value)
        }

        fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
            let (head, rest) = self.0.split_at_checked(N)?;
            self.0 = rest;
            head.try_into().ok()
        }

        fn u64(&mut self) -> Option<u64> {
            self.take().map(u64::from_le_bytes)
        }

        fn byte(&mut self) -> Option<u8> {
            self.take::<1>().map(|[b]| b)
        }

        /// A length prefix, then that many elements; a prefix beyond the
        /// remaining input is refused before any element is read.
        fn seq<T>(&mut self, mut each: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
            let n = usize::try_from(self.u64()?).ok()?;
            if n > self.0.len() {
                return None;
            }
            let mut items = Vec::new();
            for _ in 0..n {
                items.push(each(self)?);
            }
            Some(items)
        }

        pub(super) fn bytes(&mut self) -> Option<Vec<u8>> {
            self.seq(Self::byte)
        }

        pub(super) fn transaction(&mut self) -> Option<Transaction> {
            Some(Transaction {
                client: ClientId(self.u64()?),
                timestamp: self.u64()?,
                payload: self.bytes()?.into(),
            })
        }

        pub(super) fn proposals(&mut self) -> Option<Vec<Proposal>> {
            self.seq(|c| Some(Proposal::new(c.transaction()?, Digest(c.take()?))))
        }

        fn qc(&mut self) -> Option<Option<QuorumCertificate>> {
            match self.byte()? {
                0 => Some(None),
                1 => Some(Some(QuorumCertificate {
                    kind: *QC_KINDS.get(u32::from_le_bytes(self.take()?) as usize)?,
                    view: View(self.u64()?),
                    seq: SeqNum(self.u64()?),
                    digest: Digest(self.take()?),
                    signers: self.seq(|c| Some(ServerId(u32::from_le_bytes(c.take()?))))?,
                    aggregate: self.take()?,
                })),
                _ => None,
            }
        }

        pub(super) fn tx_block(&mut self) -> Option<TxBlock> {
            Some(TxBlock {
                header: BlockHeader {
                    digest: Digest(self.take()?),
                    prev_digest: Digest(self.take()?),
                },
                view: View(self.u64()?),
                n: SeqNum(self.u64()?),
                tx: self.seq(Self::transaction)?,
                status: self.seq(|c| match c.byte()? {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                })?,
                ordering_qc: self.qc()?,
                commit_qc: self.qc()?,
            })
        }
    }
}

proptest! {
    /// A byte run, alone or as a transaction's payload, encodes to the
    /// reference's bytes and decodes back on both sides.
    #[test]
    fn byte_runs_match_the_element_by_element_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        client in any::<u64>(), timestamp in any::<u64>())
    {
        use reference::Cursor;
        let mut want = Vec::new();
        reference::bytes(&mut want, &bytes);
        prop_assert_eq!(&bincode::serialize(&bytes).unwrap(), &want);
        prop_assert_eq!(&bincode::deserialize::<Vec<u8>>(&want).unwrap(), &bytes);
        prop_assert_eq!(Cursor::decode(&want, |c| c.bytes()).as_ref(), Some(&bytes));

        let tx = prestigebft::types::Transaction::new(ClientId(client), timestamp, bytes);
        let mut want = Vec::new();
        reference::transaction(&mut want, &tx);
        prop_assert_eq!(&bincode::serialize(&tx).unwrap(), &want);
        prop_assert_eq!(&bincode::deserialize::<prestigebft::types::Transaction>(&want).unwrap(), &tx);
        prop_assert_eq!(Cursor::decode(&want, |c| c.transaction()).as_ref(), Some(&tx));
    }

    /// Batches and blocks (payloads of mixed lengths, arbitrary statuses,
    /// either QC present or not) encode to the reference's bytes and decode
    /// back; a corrupted byte decodes to the same value, or to nothing, on
    /// both sides.
    #[test]
    fn batches_and_blocks_match_the_element_by_element_reference(
        ids in proptest::collection::vec(any::<u64>(), 0..40),
        payload in proptest::collection::vec(any::<u8>(), 0..160),
        status in proptest::collection::vec(any::<bool>(), 0..40),
        qcs in 0u8..4, at in any::<usize>(), to in any::<u8>())
    {
        use prestigebft::types::{Proposal, TxBlock};
        use reference::Cursor;
        let mut batch = arbitrary_batch(&ids, 0);
        for p in &mut batch {
            let cut = (p.tx.timestamp % (payload.len() as u64 + 1)) as usize;
            p.tx.payload = payload[..cut].into();
        }
        let mut want = Vec::new();
        reference::proposals(&mut want, &batch);
        prop_assert_eq!(&bincode::serialize(&batch).unwrap(), &want);
        prop_assert_eq!(&bincode::deserialize::<Vec<Proposal>>(&want).unwrap(), &batch);
        prop_assert_eq!(Cursor::decode(&want, |c| c.proposals()).as_ref(), Some(&batch));

        let txs = batch.into_iter().map(|p| p.tx).collect();
        let mut block = TxBlock::new(View(3), SeqNum(11), txs);
        block.status = status;
        block.ordering_qc = (qcs & 1 != 0).then(|| pinned::qc(QcKind::Ordering, 11));
        block.commit_qc = (qcs & 2 != 0).then(|| pinned::qc(QcKind::Commit, 11));
        let mut want = Vec::new();
        reference::tx_block(&mut want, &block);
        prop_assert_eq!(&bincode::serialize(&block).unwrap(), &want);
        prop_assert_eq!(&bincode::deserialize::<TxBlock>(&want).unwrap(), &block);
        prop_assert_eq!(Cursor::decode(&want, |c| c.tx_block()).as_ref(), Some(&block));

        // 64 corruption points spread over the whole encoding, so every
        // field's bytes (the status run too) are hit in most cases.
        for k in 0..64 {
            let mut bad = want.clone();
            let i = (at % bad.len() + k * bad.len() / 64) % bad.len();
            bad[i] = to;
            prop_assert_eq!(
                bincode::deserialize::<TxBlock>(&bad).ok(),
                Cursor::decode(&bad, |c| c.tx_block())
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned bytes: what goes on the wire and on disk
// ---------------------------------------------------------------------------

/// One fixed value of every wire and WAL type, payload-carrying ones at the
/// evaluation's two payload sizes.
mod pinned {
    use prestigebft::prelude::*;
    use prestigebft::types::{
        BlockHeader, Digest, OrderedEntry, PartialSig, Proposal, QcKind, QuorumCertificate,
        Transaction, TxBlock, VcBlock,
    };
    use std::sync::Arc;

    pub(super) fn qc(kind: QcKind, seq: u64) -> QuorumCertificate {
        QuorumCertificate {
            kind,
            view: View(2),
            seq: SeqNum(seq),
            digest: Digest([0x51; 32]),
            signers: vec![ServerId(0), ServerId(2), ServerId(3)],
            aggregate: [0xa9; 32],
        }
    }

    pub(super) fn share(signer: u32) -> PartialSig {
        PartialSig {
            signer: ServerId(signer),
            sig: [0x5e; 32],
        }
    }

    pub(super) fn batch(payload: usize) -> Vec<Proposal> {
        (0..3u8)
            .map(|i| {
                let tx = Transaction::with_size(ClientId(7), 100 + u64::from(i), payload);
                Proposal::new(tx, Digest([i + 1; 32]))
            })
            .collect()
    }

    pub(super) fn tx_block(payload: usize) -> TxBlock {
        let txs = batch(payload).into_iter().map(|p| p.tx).collect();
        let mut block = TxBlock::new(View(2), SeqNum(9), txs);
        block.status[1] = false;
        block.header = BlockHeader {
            digest: Digest([0xd1; 32]),
            prev_digest: Digest([0xd0; 32]),
        };
        block.ordering_qc = Some(qc(QcKind::Ordering, 9));
        block.commit_qc = Some(qc(QcKind::Commit, 9));
        block
    }

    pub(super) fn vc_block() -> VcBlock {
        VcBlock::genesis(4)
            .successor(
                View(3),
                ServerId(2),
                3,
                5,
                Some(qc(QcKind::Confirm, 0)),
                Some(qc(QcKind::ViewChange, 0)),
            )
            .with_state_transfer(
                SeqNum(9),
                Some(qc(QcKind::Commit, 9)),
                SeqNum(10),
                vec![qc(QcKind::Ordering, 10)],
            )
    }

    /// Every `Message` variant once, and the four that carry transaction
    /// payloads once per payload size.
    pub(super) fn every_message() -> Vec<Message> {
        let d = Digest([0x3c; 32]);
        let sig = [0x77; 32];
        let mut messages = Vec::new();
        for payload in [32, 64] {
            messages.extend([
                Message::Prop {
                    proposals: batch(payload),
                    client_sig: sig,
                },
                Message::Ord {
                    view: View(2),
                    n: SeqNum(9),
                    batch: Arc::new(batch(payload)),
                    digest: d,
                    sig,
                },
                Message::CommitBlock {
                    block: Arc::new(tx_block(payload)),
                    sig,
                },
                Message::SyncResp {
                    vc_blocks: vec![vc_block()],
                    tx_blocks: vec![tx_block(payload)],
                    ordered: vec![OrderedEntry {
                        batch: Arc::new(batch(payload)),
                        qc: qc(QcKind::Ordering, 10),
                    }],
                    ckpt: Some(qc(QcKind::Checkpoint, 8)),
                },
            ]);
        }
        messages.extend([
            Message::Notif {
                tx_keys: vec![(ClientId(7), 100), (ClientId(7), 101)],
                seq: SeqNum(9),
                view: View(2),
                sig,
            },
            Message::Compt {
                proposal: batch(32).remove(0),
                client_sig: sig,
            },
            Message::OrdReply {
                view: View(2),
                n: SeqNum(9),
                digest: d,
                share: share(1),
            },
            Message::Cmt {
                view: View(2),
                n: SeqNum(9),
                ordering_qc: qc(QcKind::Ordering, 9),
                sig,
            },
            Message::CmtReply {
                view: View(2),
                n: SeqNum(9),
                digest: d,
                share: share(3),
            },
            Message::ConfVC {
                view: View(2),
                tx_key: (ClientId(7), 100),
                sig,
            },
            Message::ReVC {
                view: View(2),
                tx_key: (ClientId(7), 100),
                share: share(2),
            },
            Message::Camp {
                conf_qc: Some(qc(QcKind::Confirm, 0)),
                view: View(2),
                new_view: View(3),
                rp: -4,
                ci: 5,
                nonce: 0x0123_4567_89ab_cdef,
                hash_result: d,
                latest_seq: SeqNum(9),
                latest_ord_seq: SeqNum(10),
                commit_cert: Some(qc(QcKind::Commit, 9)),
                tip_cert: vec![qc(QcKind::Ordering, 10)],
                latest_tx_digest: d,
                sig,
            },
            Message::VoteCP {
                new_view: View(3),
                candidate: ServerId(2),
                share: share(0),
            },
            Message::NewVcBlock {
                block: vc_block(),
                sig,
            },
            Message::VcYes {
                view: View(3),
                digest: d,
                share: share(1),
            },
            Message::PreCmt {
                view: View(2),
                n: SeqNum(9),
                prepare_qc: qc(QcKind::Ordering, 9),
                sig,
            },
            Message::PreCmtReply {
                view: View(2),
                n: SeqNum(9),
                digest: d,
                share: share(2),
            },
            Message::NewView {
                view: View(3),
                latest_seq: SeqNum(9),
                share: share(3),
            },
            Message::NewViewAnnounce {
                view: View(3),
                new_view_qc: qc(QcKind::ViewChange, 0),
                sig,
            },
            Message::Ref {
                view: View(3),
                server: ServerId(1),
                share: share(0),
            },
            Message::Rdone {
                view: View(3),
                server: ServerId(1),
                rs_qc: qc(QcKind::Refresh, 0),
                rp: 1,
                ci: 1,
                sig,
            },
            Message::CkptShare {
                n: SeqNum(8),
                view: View(2),
                digest: d,
                share: share(1),
            },
            Message::CkptCert {
                cert: qc(QcKind::Checkpoint, 8),
            },
            Message::SyncReq {
                view: View(2),
                from: 9,
                to: 12,
            },
        ]);
        messages
    }

    /// The position of `m`'s variant in declaration order. Exhaustive on
    /// purpose: a new variant does not compile until it joins the pinned set.
    pub(super) fn variant(m: &Message) -> usize {
        match m {
            Message::Prop { .. } => 0,
            Message::Notif { .. } => 1,
            Message::Compt { .. } => 2,
            Message::Ord { .. } => 3,
            Message::OrdReply { .. } => 4,
            Message::Cmt { .. } => 5,
            Message::CmtReply { .. } => 6,
            Message::CommitBlock { .. } => 7,
            Message::ConfVC { .. } => 8,
            Message::ReVC { .. } => 9,
            Message::Camp { .. } => 10,
            Message::VoteCP { .. } => 11,
            Message::NewVcBlock { .. } => 12,
            Message::VcYes { .. } => 13,
            Message::PreCmt { .. } => 14,
            Message::PreCmtReply { .. } => 15,
            Message::NewView { .. } => 16,
            Message::NewViewAnnounce { .. } => 17,
            Message::Ref { .. } => 18,
            Message::Rdone { .. } => 19,
            Message::CkptShare { .. } => 20,
            Message::CkptCert { .. } => 21,
            Message::SyncReq { .. } => 22,
            Message::SyncResp { .. } => 23,
        }
    }
}

/// The bytes themselves, not a round trip: one SHA-256 over the frame of
/// every `Message` variant. Both sides of a round trip move together when
/// the codec changes, so only a constant shows that the encoding did not;
/// when this constant must change, so must `WIRE_VERSION`.
#[test]
fn wire_bytes_are_pinned() {
    use prestigebft::net::frame::{FrameCodec, WIRE_VERSION};

    let messages = pinned::every_message();
    let variants: std::collections::BTreeSet<usize> =
        messages.iter().map(pinned::variant).collect();
    assert_eq!(variants.len(), 24, "every Message variant is pinned");

    let mut hasher = Sha256::new();
    let codec = FrameCodec::new();
    for msg in &messages {
        hasher.update(&codec.encode(Actor::Server(ServerId(1)), msg).unwrap());
    }

    assert_eq!(WIRE_VERSION, 6);
    assert_eq!(
        hex(Digest(hasher.finalize())),
        "93a99d1d470fc1c7c0826bf52ef357e8061c529584c909eee4edc9cf2ddc1844"
    );
}

/// The same for the WAL: one SHA-256 over the segment file a fresh WAL
/// writes for one record of each of the first four kinds (the fifth,
/// `Vote`, is pinned by `vote_record_bytes_are_pinned`, so this constant
/// also proves the four kept their bytes when it was added). When this
/// constant must change, the WAL format changed: ARCHITECTURE.md states
/// which directories it invalidates.
#[test]
fn wal_bytes_are_pinned() {
    use prestigebft::storage::{Storage, Wal, WalOptions, WalRecord};
    use prestigebft::types::QcKind;

    let dir = std::env::temp_dir().join(format!("prestige-pinned-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records = [
        WalRecord::Block(pinned::tx_block(32)),
        WalRecord::OrdQc(pinned::qc(QcKind::Ordering, 10)),
        WalRecord::ViewInstall(pinned::vc_block()),
        WalRecord::Checkpoint {
            cert: pinned::qc(QcKind::Checkpoint, 8),
            chain: Digest([0xc4; 32]),
        },
    ];
    {
        let (mut wal, replayed) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(replayed.is_empty());
        for record in &records {
            wal.append(record.as_ref()).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.stats().segments, 1);
    }
    let segment = std::fs::read(dir.join("wal-0000000000.seg")).unwrap();
    let (_, replayed) = Wal::open(&dir, WalOptions::default()).unwrap();
    assert_eq!(replayed, records);
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(
        hex(Digest(Sha256::digest(&segment))),
        "b17edc6032acbaacc25b25ab42a704248c303b2be52d094c5bc01cd814fbfdbb"
    );
}

/// The `Vote` record's payload, byte for byte, as a fresh WAL frames it:
/// tag 5, then the view (u64), the candidate (u32) and the share (signer
/// u32, 32 signature bytes), little-endian.
#[test]
fn vote_record_bytes_are_pinned() {
    use prestigebft::storage::{Storage, Wal, WalOptions, WalRecord};

    let record = WalRecord::Vote {
        view: View(7),
        candidate: ServerId(2),
        share: pinned::share(1),
    };
    let dir = std::env::temp_dir().join(format!("prestige-pinned-vote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(record.as_ref()).unwrap();
        wal.sync().unwrap();
    }
    let segment = std::fs::read(dir.join("wal-0000000000.seg")).unwrap();
    let (_, replayed) = Wal::open(&dir, WalOptions::default()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(replayed, [record]);

    // len: u32 LE ‖ link: u32 LE ‖ crc: u32 LE ‖ payload.
    let payload: String = segment[12..].iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(segment[..4], ((segment.len() - 4) as u32).to_le_bytes());
    let expected = concat!(
        "05",               // tag
        "0700000000000000", // view 7
        "02000000",         // candidate s2
        "01000000",         // share signer s1
        "5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e",
    );
    assert_eq!(payload, expected);
}

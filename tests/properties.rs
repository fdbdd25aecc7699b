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
    /// small penalties (real mode, scaled difficulty).
    #[test]
    fn pow_roundtrip(tag in any::<[u8; 32]>(), rp in 0i64..4, seed in any::<u64>()) {
        let solver = PowSolver::Real { bits_per_unit: 3 };
        let puzzle = PowPuzzle::new(Digest(tag), rp);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (solution, attempts) = solver.solve(&puzzle, &mut rng);
        prop_assert!(attempts >= 1.0);
        prop_assert!(solver.verify(&puzzle, &solution).is_ok());
        // A harder claim over the same solution must fail unless it happens to
        // exceed the bound.
        let harder = PowPuzzle::new(Digest(tag), rp + 8);
        if solution.hash_result.leading_zero_bits() < 3 * (rp as u32 + 8) {
            prop_assert!(solver.verify(&harder, &solution).is_err());
        }
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
}

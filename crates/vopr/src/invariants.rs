//! The invariant catalog: safety properties (and one bounded-state property)
//! checked after **every** simulator step.
//!
//! Checkers are incremental — each keeps per-replica scan cursors and global
//! first-seen maps, so a step costs O(state that changed), not O(history).
//! Only *correct* replicas are inspected: a Byzantine replica's books are
//! allowed to be garbage, the protocol's promise is about the honest ones.
//!
//! A crash-restart legitimately rewinds a replica (a torn WAL tail loses
//! recent state; a checkpoint-anchored replay forgets pruned history), so the
//! harness calls [`InvariantChecker::note_restart`], which resets that
//! replica's cursors and watermarks and lets the rescan re-validate the
//! replayed state against the global maps.

use prestige_core::PrestigeServer;
use prestige_sim::Simulation;
use prestige_types::{Actor, ClientId, Digest, Message, SeqNum, ServerId, View, REQUEST_WINDOW};
use std::collections::{BTreeMap, HashMap};

/// Names of the checked invariants, in the order they are evaluated.
pub const INVARIANT_NAMES: [&str; 7] = [
    "no_fork",
    "no_double_commit",
    "quorum_intersection",
    "tip_monotonicity",
    "reputation_bounds",
    "checkpoint_consistency",
    "bounded_dedup_state",
];

/// A falsified invariant: the minimal description a human (or the shrinker)
/// needs to understand what broke.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant (one of [`INVARIANT_NAMES`]).
    pub invariant: &'static str,
    /// The replica the violation was observed on.
    pub replica: u32,
    /// Simulated time of detection (ms).
    pub at_ms: f64,
    /// Human-readable specifics.
    pub detail: String,
}

/// Per-replica monotonic watermarks (reset on restart).
#[derive(Debug, Clone, Copy, Default)]
struct Watermarks {
    latest_seq: u64,
    current_view: u64,
    signed_commit_tip: u64,
    certified_tip: u64,
    stable_checkpoint: u64,
}

/// The incremental checker state for one run.
pub struct InvariantChecker {
    servers: u32,
    correct: Vec<bool>,
    /// The most bitmap words a replica's client table may hold: two full
    /// windows per client. Partitions and lost `Prop`s legitimately leave
    /// holes that keep a window long, so nothing tighter holds in a swarm.
    dedup_words_cap: usize,
    /// First-seen committed chain digest per sequence number, with the
    /// replica that contributed it.
    digest_at: BTreeMap<u64, (u32, Digest)>,
    /// First-seen checkpoint-statement digest per checkpoint height.
    ckpt_stmt_at: BTreeMap<u64, (u32, Digest)>,
    /// First-seen certified leader per view.
    leader_of_view: BTreeMap<u64, (u32, ServerId)>,
    /// Per-replica: highest chain seq already scanned.
    chain_cursor: Vec<u64>,
    /// Per-replica: highest view already scanned for vcBlocks.
    view_cursor: Vec<u64>,
    /// Per-replica: highest checkpoint already validated.
    ckpt_cursor: Vec<u64>,
    /// Per-replica: seq each committed (status = true) tx key landed at.
    committed_at: Vec<HashMap<(ClientId, u64), u64>>,
    watermarks: Vec<Watermarks>,
    /// Total invariant evaluations (one per invariant per replica per call).
    pub checks: u64,
    /// Violation tallies per invariant name (a run stops at the first, but
    /// the counts survive into the swarm report).
    pub violation_counts: BTreeMap<&'static str, u64>,
}

impl InvariantChecker {
    /// A checker for `servers` replicas, of which `correct[i]` marks the
    /// honest ones, serving `clients` clients.
    pub fn new(servers: u32, correct: Vec<bool>, clients: u64) -> Self {
        assert_eq!(correct.len(), servers as usize);
        InvariantChecker {
            servers,
            correct,
            dedup_words_cap: clients as usize * 2 * (REQUEST_WINDOW / 64) as usize,
            digest_at: BTreeMap::new(),
            ckpt_stmt_at: BTreeMap::new(),
            leader_of_view: BTreeMap::new(),
            chain_cursor: vec![0; servers as usize],
            view_cursor: vec![1; servers as usize],
            ckpt_cursor: vec![0; servers as usize],
            committed_at: vec![HashMap::new(); servers as usize],
            watermarks: vec![Watermarks::default(); servers as usize],
            checks: 0,
            violation_counts: BTreeMap::new(),
        }
    }

    /// Forgets replica `i`'s cursors and watermarks: its replayed state will
    /// be re-scanned (and re-validated against the global maps) from scratch.
    /// A torn tail or checkpoint-anchored replay may legitimately rewind the
    /// local tip; cross-replica agreement must still hold.
    pub fn note_restart(&mut self, i: u32) {
        let i = i as usize;
        self.chain_cursor[i] = 0;
        self.view_cursor[i] = 1;
        self.ckpt_cursor[i] = 0;
        self.committed_at[i].clear();
        self.watermarks[i] = Watermarks::default();
    }

    fn violation(
        &mut self,
        invariant: &'static str,
        replica: u32,
        at_ms: f64,
        detail: String,
    ) -> Violation {
        *self.violation_counts.entry(invariant).or_insert(0) += 1;
        Violation {
            invariant,
            replica,
            at_ms,
            detail,
        }
    }

    /// Runs every invariant against the current simulator state. Returns the
    /// first violation found, if any.
    pub fn check(&mut self, sim: &Simulation<Message>) -> Option<Violation> {
        let at_ms = sim.now().as_ms();
        for i in 0..self.servers {
            if !self.correct[i as usize] {
                continue;
            }
            let server: &PrestigeServer = sim
                .node_as(Actor::Server(ServerId(i)))
                .expect("server registered");
            self.checks += INVARIANT_NAMES.len() as u64;

            // --- no_fork + no_double_commit: scan new committed blocks ---
            let latest = server.store().latest_seq().0;
            let from = self.chain_cursor[i as usize] + 1;
            for n in from..=latest {
                let Some(block) = server.store().tx_block(SeqNum(n)) else {
                    // Pruned below a checkpoint anchor after replay: its
                    // fingerprint is covered by the anchor block above it.
                    continue;
                };
                let digest = block.header.digest;
                match self.digest_at.get(&n) {
                    Some(&(first, seen)) if seen != digest => {
                        return Some(self.violation(
                            "no_fork",
                            i,
                            at_ms,
                            format!(
                                "chain digest diverges at seq {n}: s{first} committed \
                                 {seen:02x?} but s{i} committed {digest:02x?}",
                            ),
                        ));
                    }
                    Some(_) => {}
                    None => {
                        self.digest_at.insert(n, (i, digest));
                    }
                }
                for (t, tx) in block.tx.iter().enumerate() {
                    if !block.status.get(t).copied().unwrap_or(false) {
                        continue; // Suppressed duplicate: dedup did its job.
                    }
                    let key = tx.key();
                    if let Some(&prev) = self.committed_at[i as usize].get(&key) {
                        if prev != n {
                            return Some(self.violation(
                                "no_double_commit",
                                i,
                                at_ms,
                                format!(
                                    "tx {key:?} committed with status=true at seq {prev} \
                                     and again at seq {n} on s{i}",
                                ),
                            ));
                        }
                    } else {
                        self.committed_at[i as usize].insert(key, n);
                    }
                }
            }
            self.chain_cursor[i as usize] = latest.max(self.chain_cursor[i as usize]);

            // --- quorum_intersection: unique certified leader per view ---
            let view = server.current_view().0;
            let vfrom = self.view_cursor[i as usize] + 1;
            for v in vfrom..=view {
                let Some(vc) = server.store().vc_block(View(v)) else {
                    continue;
                };
                match self.leader_of_view.get(&v) {
                    Some(&(first, leader)) if leader != vc.leader_id => {
                        return Some(self.violation(
                            "quorum_intersection",
                            i,
                            at_ms,
                            format!(
                                "two certified leaders for view {v}: s{first} installed \
                                 s{} but s{i} installed s{}",
                                leader.0, vc.leader_id.0,
                            ),
                        ));
                    }
                    Some(_) => {}
                    None => {
                        self.leader_of_view.insert(v, (i, vc.leader_id));
                    }
                }
            }
            self.view_cursor[i as usize] = view.max(self.view_cursor[i as usize]);

            // --- tip_monotonicity: watermarks never regress ---
            let w = &mut self.watermarks[i as usize];
            let signed = server.signed_commit_tip();
            let certified = server.certified_tip().0;
            let stable = server.stable_checkpoint();
            // The certified tip is only monotone *within* a view: an
            // election legally orphans certified instances beyond a
            // contiguity gap back to the proposal pool, so a view change
            // re-bases its watermark.
            let certified_floor = if view > w.current_view {
                certified
            } else {
                w.certified_tip
            };
            let regressed = [
                ("latest_seq", latest, w.latest_seq),
                ("current_view", view, w.current_view),
                ("signed_commit_tip", signed, w.signed_commit_tip),
                ("certified_tip", certified, certified_floor),
                ("stable_checkpoint", stable, w.stable_checkpoint),
            ]
            .into_iter()
            .find(|&(_, now, seen)| now < seen);
            if let Some((name, now, seen)) = regressed {
                return Some(self.violation(
                    "tip_monotonicity",
                    i,
                    at_ms,
                    format!("{name} regressed on s{i}: {seen} -> {now}"),
                ));
            }
            w.latest_seq = latest;
            w.current_view = view;
            w.signed_commit_tip = signed;
            w.certified_tip = certified;
            w.stable_checkpoint = stable;

            // --- reputation_bounds: rp >= 1 and ci >= 1 on honest books ---
            for j in 0..self.servers {
                let rp = server.store().current_rp(ServerId(j));
                let ci = server.store().current_ci(ServerId(j));
                if rp < 1 || ci < 1 {
                    return Some(self.violation(
                        "reputation_bounds",
                        i,
                        at_ms,
                        format!("s{i}'s books hold rp={rp} ci={ci} for s{j} (floor is 1)"),
                    ));
                }
            }

            // --- checkpoint_consistency: one statement per height, and the
            //     local chain carries the checkpointed digest ---
            if stable > self.ckpt_cursor[i as usize] {
                if let Some(cert) = server.stable_checkpoint_cert() {
                    let stmt = cert.digest;
                    match self.ckpt_stmt_at.get(&stable) {
                        Some(&(first, seen)) if seen != stmt => {
                            return Some(self.violation(
                                "checkpoint_consistency",
                                i,
                                at_ms,
                                format!(
                                    "conflicting stable checkpoint statements at seq \
                                     {stable}: s{first} holds {seen:02x?}, s{i} holds \
                                     {stmt:02x?}",
                                ),
                            ));
                        }
                        Some(_) => {}
                        None => {
                            self.ckpt_stmt_at.insert(stable, (i, stmt));
                        }
                    }
                    if let Some(block) = server.store().tx_block(SeqNum(stable)) {
                        let digest = block.header.digest;
                        match self.digest_at.get(&stable) {
                            Some(&(first, seen)) if seen != digest => {
                                return Some(self.violation(
                                    "checkpoint_consistency",
                                    i,
                                    at_ms,
                                    format!(
                                        "s{i}'s chain digest at its stable checkpoint \
                                         {stable} ({digest:02x?}) disagrees with s{first}'s \
                                         ({seen:02x?})",
                                    ),
                                ));
                            }
                            _ => {
                                self.digest_at.insert(stable, (i, digest));
                            }
                        }
                    }
                }
                self.ckpt_cursor[i as usize] = stable;
            }

            // --- bounded_dedup_state: the client table is O(clients) ---
            let words = server.dedup_words();
            if words > self.dedup_words_cap {
                return Some(self.violation(
                    "bounded_dedup_state",
                    i,
                    at_ms,
                    format!(
                        "s{i}'s client table holds {words} bitmap words, over the cap of {}",
                        self.dedup_words_cap
                    ),
                ));
            }
        }
        None
    }
}

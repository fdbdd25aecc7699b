//! The client table: everything a replica remembers about client requests.
//!
//! Viewstamped Replication Revisited (§4) keeps one entry per client instead
//! of one per request; here an entry is two [`SeqWindow`]s over the client's
//! consecutive request numbers — which it has *seen* (pooled, ordered or
//! committed: the proposal dedup) and which have *committed* (the
//! double-assign ledger). State is O(clients), not O(history): a window is a
//! word or two in steady state and at most [`REQUEST_WINDOW`] bits when
//! holes persist, and a lookup is a bit test, not a hash probe.
//!
//! A client sends its requests in order, so a bundle, batch or block splits
//! into a few [`KeyRun`]s (one client's consecutive numbers), and the table
//! takes them a run at a time: `note_seen_run`, `note_committed_run` and
//! `any_committed` touch one client entry per run and one bitmap word per 64
//! numbers. The per-key forms remain for single requests: a complaint, and
//! a pooled proposal checked after a commit.
//!
//! The third set per client is the *ordered-only* bits: requests this
//! replica first learned through an ordered batch, not a `Prop` — word index
//! (`number / 64`) → 64 bits. A commit clears them, and an elected leader
//! takes them back into its proposal pool when the batches holding them are
//! orphaned; so only requests that never committed return, each once. A
//! request whose batch was replaced at its number keeps its bit until it
//! commits. The bits are not part of [`ClientTable::words`].
//!
//! Client ids are not authenticated (ATTACKS.md), so any id named in a `Prop`
//! opens an entry — of at most 256 KiB.
//!
//! [`REQUEST_WINDOW`]: prestige_types::REQUEST_WINDOW

use prestige_types::{key_runs, word_masks, ClientId, KeyRun, Proposal, SeqWindow};
use std::collections::BTreeMap;

/// A transaction's identity: its client and the client's request number.
type TxKey = (ClientId, u64);

#[derive(Debug, Default)]
struct ClientEntry {
    seen: SeqWindow,
    committed: SeqWindow,
    /// Word index → bits of the requests known only through an ordering.
    ordered_only: BTreeMap<u64, u64>,
}

/// Per-client request-number windows; see the module documentation.
#[derive(Debug, Default)]
pub struct ClientTable {
    clients: BTreeMap<ClientId, ClientEntry>,
}

impl ClientTable {
    /// Marks a request seen; `true` iff this replica had not seen it before.
    pub fn note_seen(&mut self, (client, number): TxKey) -> bool {
        self.clients.entry(client).or_default().seen.insert(number)
    }

    /// Marks a run of requests seen, calling `fresh` with each number this
    /// replica had not seen before, in ascending order.
    pub fn note_seen_run(&mut self, run: &KeyRun, fresh: impl FnMut(u64)) {
        let entry = self.clients.entry(run.client).or_default();
        entry.seen.insert_run(run.first, run.count(), fresh);
    }

    /// Moves the proposals of `bundle` this replica has not seen before into
    /// `pool`, in bundle order, and marks them all seen: the one admission
    /// rule for client requests, in both protocols.
    pub fn pool_unseen(&mut self, bundle: Vec<Proposal>, pool: &mut Vec<Proposal>) {
        let mut unseen = Vec::with_capacity(bundle.len());
        for run in key_runs(&bundle, |p| p.tx.key()) {
            self.note_seen_run(&run, |number| unseen.push(run.index_of(number)));
        }
        if unseen.len() == bundle.len() {
            // All new, the usual case: the bundle moves whole.
            pool.extend(bundle);
            return;
        }
        let mut unseen = unseen.into_iter().peekable();
        let bundle = bundle.into_iter().enumerate();
        pool.extend(bundle.filter_map(|(i, proposal)| unseen.next_if_eq(&i).map(|_| proposal)));
    }

    /// Marks a run of requests seen through an ordered batch: the ones this
    /// replica had not seen before become ordered-only.
    pub fn note_ordered_run(&mut self, run: &KeyRun) {
        let entry = self.clients.entry(run.client).or_default();
        let ordered_only = &mut entry.ordered_only;
        // Fresh numbers arrive in ascending order: gather each word's bits
        // before touching the map.
        let mut pending: Option<(u64, u64)> = None;
        let mut flush = |word: Option<(u64, u64)>| {
            if let Some((index, bits)) = word {
                *ordered_only.entry(index).or_default() |= bits;
            }
        };
        entry.seen.insert_run(run.first, run.count(), |number| {
            let (index, bit) = (number / 64, 1u64 << (number % 64));
            match &mut pending {
                Some((at, bits)) if *at == index => *bits |= bit,
                _ => flush(pending.replace((index, bit))),
            }
        });
        flush(pending);
    }

    /// Marks a run of requests committed (and seen), calling `duplicate`
    /// with each number that had committed before, in ascending order — the
    /// apply-time duplicate verdict. `retired` grows by the request numbers
    /// this pushed below the client's committed floor: they no longer occupy
    /// a bit, and read as committed for ever.
    pub fn note_committed_run(
        &mut self,
        run: &KeyRun,
        retired: &mut u64,
        mut duplicate: impl FnMut(u64),
    ) {
        let entry = self.clients.entry(run.client).or_default();
        entry.seen.insert_run(run.first, run.count(), |_| {});
        let floor = entry.committed.floor();
        // The numbers around the fresh ones had committed already.
        let mut next = Some(run.first);
        entry.committed.insert_run(run.first, run.count(), |fresh| {
            (next.unwrap_or(fresh)..fresh).for_each(&mut duplicate);
            next = fresh.checked_add(1);
        });
        if let Some(next) = next {
            (next..=run.last()).for_each(duplicate);
        }
        *retired += entry.committed.floor() - floor;
    }

    /// Whether any request of a run has committed in some block.
    pub fn any_committed(&self, run: &KeyRun) -> bool {
        self.clients
            .get(&run.client)
            .is_some_and(|entry| entry.committed.any_in(run.first, run.count()))
    }

    /// Whether a request has committed in some block.
    pub fn is_committed(&self, (client, number): TxKey) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|entry| entry.committed.contains(number))
    }

    /// Clears the ordered-only bits of a run, calling `taken` with each
    /// number that had one, in ascending order.
    pub fn take_ordered_only(&mut self, run: &KeyRun, mut taken: impl FnMut(u64)) {
        let Some(entry) = self.clients.get_mut(&run.client) else {
            return;
        };
        if entry.ordered_only.is_empty() {
            return;
        }
        for (index, mask) in word_masks(run.first, run.count()) {
            let Some(bits) = entry.ordered_only.get_mut(&index) else {
                continue;
            };
            let mut got = *bits & mask;
            *bits &= !mask;
            if *bits == 0 {
                entry.ordered_only.remove(&index);
            }
            while got != 0 {
                taken(index * 64 + u64::from(got.trailing_zeros()));
                got &= got - 1;
            }
        }
    }

    /// Bitmap words held across all clients by the seen and committed
    /// windows.
    pub fn words(&self) -> usize {
        self.clients
            .values()
            .map(|entry| entry.seen.words() + entry.committed.words())
            .sum()
    }
}

/// The keys of `runs`, grouped by client in id order, each client's in run
/// order: what one `Notif` per client of a block lists.
pub fn keys_by_client(runs: &[KeyRun]) -> BTreeMap<ClientId, Vec<TxKey>> {
    let mut by_client: BTreeMap<ClientId, Vec<TxKey>> = BTreeMap::new();
    for run in runs {
        by_client.entry(run.client).or_default().extend(run.keys());
    }
    by_client
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::Transaction;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A single request as a run of one.
    fn run_of((client, first): TxKey) -> KeyRun {
        KeyRun {
            client,
            first,
            len: 1,
            at: 0,
        }
    }

    /// The per-key commit, through the run form: `true` iff fresh.
    fn note_committed(table: &mut ClientTable, key: TxKey, retired: &mut u64) -> bool {
        let mut duplicate = false;
        table.note_committed_run(&run_of(key), retired, |_| duplicate = true);
        !duplicate
    }

    #[test]
    fn two_clients_do_not_interfere() {
        let mut table = ClientTable::default();
        assert!(table.note_seen((ClientId(1), 7)));
        assert!(!table.note_seen((ClientId(1), 7)));
        assert!(
            table.note_seen((ClientId(2), 7)),
            "same number, other client"
        );
        assert!(note_committed(&mut table, (ClientId(2), 9), &mut 0));
        assert!(table.is_committed((ClientId(2), 9)));
        assert!(!table.is_committed((ClientId(1), 9)));
        assert!(
            !table.is_committed((ClientId(3), 9)) && table.clients.len() == 2,
            "a lookup opens no entry"
        );
    }

    #[test]
    fn committed_implies_seen_and_is_fresh_only_once() {
        let mut table = ClientTable::default();
        let key = (ClientId(1), 5);
        assert!(!table.is_committed(key));
        assert!(note_committed(&mut table, key, &mut 0));
        assert!(
            !note_committed(&mut table, key, &mut 0),
            "the duplicate verdict"
        );
        assert!(!table.note_seen(key), "a committed request was seen");
        assert!(table.is_committed(key));
    }

    #[test]
    fn retired_counts_numbers_that_left_the_committed_window() {
        let mut table = ClientTable::default();
        let mut retired = 0;
        for number in 1..=200 {
            note_committed(&mut table, (ClientId(1), number), &mut retired);
        }
        // Words 0..=2 (numbers 0..=191) filled and were dropped.
        assert_eq!(retired, 192);
        assert_eq!(table.words(), 2, "one word each of seen and committed");
        assert!(table.is_committed((ClientId(1), 3)), "below the floor");
    }

    /// The table as it was kept one request at a time: a window per client
    /// for seen and committed, and one set entry per ordered-only request.
    #[derive(Default)]
    struct PerKey {
        seen: BTreeMap<ClientId, SeqWindow>,
        committed: BTreeMap<ClientId, SeqWindow>,
        ordered_only: BTreeSet<TxKey>,
    }

    impl PerKey {
        /// Opens both of a client's windows, as the table's entry does.
        fn note_seen(&mut self, (client, number): TxKey) -> bool {
            self.committed.entry(client).or_default();
            self.seen.entry(client).or_default().insert(number)
        }

        fn note_committed(&mut self, key: TxKey, retired: &mut u64) -> bool {
            self.note_seen(key);
            let window = self.committed.entry(key.0).or_default();
            let floor = window.floor();
            let fresh = window.insert(key.1);
            *retired += window.floor() - floor;
            fresh
        }

        fn is_committed(&self, (client, number): TxKey) -> bool {
            self.committed
                .get(&client)
                .is_some_and(|window| window.contains(number))
        }
    }

    fn proposal((client, number): TxKey) -> Proposal {
        Proposal::new(
            Transaction::with_size(client, number, 0),
            prestige_types::Digest::ZERO,
        )
    }

    proptest! {
        #[test]
        fn run_forms_match_the_per_key_forms(
            picks in proptest::collection::vec(any::<u64>(), 1..40),
        ) {
            let mut table = ClientTable::default();
            let mut model = PerKey::default();
            let (mut retired, mut model_retired) = (0, 0);
            let mut next = [1u64; 3];
            for pick in picks {
                // A batch over two or three clients: each client's requests
                // mostly consecutive, with gaps, rewinds and repeats, and the
                // clients interleaved in stretches.
                let clients = 2 + pick % 2;
                let len = (pick >> 8) % 150;
                let mut keys = Vec::new();
                let mut bits = pick.rotate_left(17) | 1;
                for _ in 0..len {
                    bits ^= bits << 13;
                    bits ^= bits >> 7;
                    bits ^= bits << 17;
                    let c = (bits % clients) as usize;
                    match bits >> 32 & 15 {
                        0 => next[c] += bits >> 40 & 7,
                        1 => next[c] = next[c].saturating_sub(bits >> 40 & 15).max(1),
                        _ => {}
                    }
                    keys.push((ClientId(c as u64), next[c]));
                    if bits >> 36 & 3 != 0 {
                        next[c] += 1;
                    }
                }
                let runs: Vec<KeyRun> = key_runs(&keys, |k| *k).collect();
                match pick >> 4 & 7 {
                    0 | 1 => {
                        let bundle: Vec<Proposal> = keys.iter().copied().map(proposal).collect();
                        let mut pool = vec![proposal((ClientId(9), 1))];
                        table.pool_unseen(bundle, &mut pool);
                        let mut expected = vec![(ClientId(9), 1)];
                        expected.extend(keys.iter().copied().filter(|&k| model.note_seen(k)));
                        let pooled: Vec<TxKey> = pool.iter().map(|p| p.tx.key()).collect();
                        prop_assert_eq!(pooled, expected);
                    }
                    2 | 3 => {
                        for run in &runs {
                            table.note_ordered_run(run);
                        }
                        for &key in &keys {
                            if model.note_seen(key) {
                                model.ordered_only.insert(key);
                            }
                        }
                    }
                    4 | 5 => {
                        let mut duplicates = Vec::new();
                        for run in &runs {
                            table.note_committed_run(run, &mut retired, |k| {
                                duplicates.push(run.index_of(k))
                            });
                            table.take_ordered_only(run, |_| {});
                        }
                        let expected: Vec<usize> = (0..keys.len())
                            .filter(|&i| !model.note_committed(keys[i], &mut model_retired))
                            .collect();
                        for key in &keys {
                            model.ordered_only.remove(key);
                        }
                        prop_assert_eq!(duplicates, expected);
                        prop_assert_eq!(retired, model_retired);
                    }
                    6 => {
                        let mut taken = Vec::new();
                        for run in &runs {
                            table.take_ordered_only(run, |k| taken.push(run.index_of(k)));
                        }
                        let expected: Vec<usize> = (0..keys.len())
                            .filter(|&i| model.ordered_only.remove(&keys[i]))
                            .collect();
                        prop_assert_eq!(taken, expected);
                    }
                    _ => {
                        let seen: Vec<bool> = keys.iter().map(|&k| table.note_seen(k)).collect();
                        let expected: Vec<bool> = keys.iter().map(|&k| model.note_seen(k)).collect();
                        prop_assert_eq!(seen, expected);
                    }
                }
                for run in &runs {
                    let expected = run.keys().any(|k| model.is_committed(k));
                    prop_assert_eq!(table.any_committed(run), expected);
                    for k in run.first.saturating_sub(2)..=run.last() + 2 {
                        let key = (run.client, k);
                        prop_assert_eq!(table.is_committed(key), model.is_committed(key));
                    }
                }
            }
            let words: usize = model.seen.values().chain(model.committed.values()).map(SeqWindow::words).sum();
            prop_assert_eq!(table.words(), words);
            // Every ordered-only request reads the same: take them all.
            for c in 0..3 {
                let everything = KeyRun { client: ClientId(c), first: 0, len: 1 << 12, at: 0 };
                let mut taken = Vec::new();
                table.take_ordered_only(&everything, |k| taken.push((ClientId(c), k)));
                let expected: Vec<TxKey> =
                    model.ordered_only.iter().copied().filter(|k| k.0 == ClientId(c)).collect();
                prop_assert_eq!(taken, expected);
            }
        }
    }

    #[test]
    fn keys_by_client_groups_in_client_order_keeping_run_order() {
        let (a, b) = (ClientId(1), ClientId(2));
        let keys = [(b, 5), (b, 6), (a, 1), (b, 9), (a, 2), (a, 3)];
        let runs: Vec<KeyRun> = key_runs(&keys, |k| *k).collect();
        let grouped: Vec<(ClientId, Vec<TxKey>)> = keys_by_client(&runs).into_iter().collect();
        assert_eq!(
            grouped,
            [
                (a, vec![(a, 1), (a, 2), (a, 3)]),
                (b, vec![(b, 5), (b, 6), (b, 9)])
            ]
        );
    }
}

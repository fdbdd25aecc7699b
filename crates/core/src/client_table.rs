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
//! Client ids are not authenticated (ATTACKS.md), so any id named in a `Prop`
//! opens an entry — of at most 256 KiB.
//!
//! [`REQUEST_WINDOW`]: prestige_types::REQUEST_WINDOW

use prestige_types::{ClientId, SeqWindow};
use std::collections::BTreeMap;

/// A transaction's identity: its client and the client's request number.
type TxKey = (ClientId, u64);

#[derive(Debug, Default)]
struct ClientEntry {
    seen: SeqWindow,
    committed: SeqWindow,
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

    /// Marks a request committed (and seen); `true` iff it had not committed
    /// before — `false` *is* the apply-time duplicate verdict. `retired`
    /// grows by the request numbers this pushed below the client's committed
    /// floor: they no longer occupy a bit, and read as committed for ever.
    pub fn note_committed(&mut self, (client, number): TxKey, retired: &mut u64) -> bool {
        let entry = self.clients.entry(client).or_default();
        entry.seen.insert(number);
        let floor = entry.committed.floor();
        let fresh = entry.committed.insert(number);
        *retired += entry.committed.floor() - floor;
        fresh
    }

    /// Whether a request has committed in some block.
    pub fn is_committed(&self, (client, number): TxKey) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|entry| entry.committed.contains(number))
    }

    /// Bitmap words held across all clients.
    pub fn words(&self) -> usize {
        self.clients
            .values()
            .map(|entry| entry.seen.words() + entry.committed.words())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_clients_do_not_interfere() {
        let mut table = ClientTable::default();
        assert!(table.note_seen((ClientId(1), 7)));
        assert!(!table.note_seen((ClientId(1), 7)));
        assert!(
            table.note_seen((ClientId(2), 7)),
            "same number, other client"
        );
        assert!(table.note_committed((ClientId(2), 9), &mut 0));
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
        assert!(table.note_committed(key, &mut 0));
        assert!(!table.note_committed(key, &mut 0), "the duplicate verdict");
        assert!(!table.note_seen(key), "a committed request was seen");
        assert!(table.is_committed(key));
    }

    #[test]
    fn retired_counts_numbers_that_left_the_committed_window() {
        let mut table = ClientTable::default();
        let mut retired = 0;
        for number in 1..=200 {
            table.note_committed((ClientId(1), number), &mut retired);
        }
        // Words 0..=2 (numbers 0..=191) filled and were dropped.
        assert_eq!(retired, 192);
        assert_eq!(table.words(), 2, "one word each of seen and committed");
        assert!(table.is_committed((ClientId(1), 3)), "below the floor");
    }
}

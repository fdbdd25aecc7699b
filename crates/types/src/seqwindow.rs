//! A bounded set of request numbers: the building block of the *client
//! table* (Viewstamped Replication Revisited §4), bounded the way PBFT
//! bounds its log with watermarks.
//!
//! Clients number their requests consecutively from 1, so "have I seen
//! request `k` of this client" is one bit in a short sliding bitmap, not a
//! probe into a table of every transaction ever seen. Everything below
//! `floor` is a member; above it one bit per number. Two rules keep the
//! bitmap short:
//!
//! * front words that are all ones are dropped and the floor moves up — in
//!   steady state the window is one or two words;
//! * an insert [`REQUEST_WINDOW`] or more above the floor slides the floor up
//!   so the bitmap never spans more than the window (128 KiB). Whatever a
//!   slide passes over reads as a member from then on.
//!
//! The second rule loses nothing for a client that keeps its outstanding
//! requests within the window (`PrestigeClient` does): what falls below a
//! replica's floor was already confirmed to that client by `f + 1` replicas.
//!
//! A client's requests travel in order, so a bundle, batch or block is mostly
//! a few [`KeyRun`]s — one client's consecutive numbers — and
//! [`SeqWindow::insert_run`] records a run with one mask per bitmap word.

use crate::ClientId;
use std::collections::VecDeque;

/// How far above its lowest unconfirmed request number a client may issue
/// new ones, and so how many numbers per client a replica must tell apart.
/// The floor is word-aligned, so a slide may pass up to 63 numbers more than
/// strictly needed: the last `REQUEST_WINDOW - 63` numbers up to the highest
/// member are always told apart.
pub const REQUEST_WINDOW: u64 = 1 << 20;

const WORD: u64 = 64;

/// The bitmap words `first..first + count` covers, in ascending order: each
/// word's index (`number / 64`) and the mask of the run's bits in it. Numbers
/// past `u64::MAX` do not exist, so a run is cut there.
pub fn word_masks(first: u64, count: u64) -> impl Iterator<Item = (u64, u64)> {
    let last = first.saturating_add(count.saturating_sub(1));
    let words = match count {
        0 => 0..0,
        _ => first / WORD..last / WORD + 1,
    };
    words.map(move |index| {
        let base = index * WORD;
        let (lo, hi) = (first.max(base) - base, last.min(base + (WORD - 1)) - base);
        (index, (u64::MAX >> (WORD - 1 - (hi - lo))) << lo)
    })
}

/// A maximal stretch of one client's consecutive request numbers within a
/// slice of requests: the items `at..at + len` carry the numbers
/// `first..first + len`, in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRun {
    /// The client whose requests these are.
    pub client: ClientId,
    /// The run's first request number.
    pub first: u64,
    /// How many requests the run holds (at least one).
    pub len: usize,
    /// The position of the run's first item in the slice.
    pub at: usize,
}

impl KeyRun {
    /// How many request numbers the run spans.
    pub fn count(&self) -> u64 {
        self.len as u64
    }

    /// The run's last request number.
    pub fn last(&self) -> u64 {
        self.first + (self.count() - 1)
    }

    /// The position in the slice of the run's request number `number`.
    pub fn index_of(&self, number: u64) -> usize {
        self.at + (number - self.first) as usize
    }

    /// The run's `(client, number)` keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = (ClientId, u64)> {
        let client = self.client;
        (self.first..=self.last()).map(move |number| (client, number))
    }
}

/// Splits `items` into maximal [`KeyRun`]s, in slice order: a run ends where
/// the client changes or the next number is not one more than the last.
pub fn key_runs<T, F>(items: &[T], key: F) -> impl Iterator<Item = KeyRun> + use<'_, T, F>
where
    F: Fn(&T) -> (ClientId, u64),
{
    let mut at = 0;
    std::iter::from_fn(move || {
        let (client, first) = key(items.get(at)?);
        let next = |step| first.checked_add(step).map(|number| (client, number));
        let len = 1
            + (items[at + 1..].iter().zip(1u64..))
                .take_while(|(item, step)| Some(key(item)) == next(*step))
                .count();
        let run = KeyRun {
            client,
            first,
            len,
            at,
        };
        at += len;
        Some(run)
    })
}

/// A set of `u64` request numbers that forgets *downwards*: see the module
/// documentation. A fresh window already contains 0 — clients number from 1,
/// and without that the first word would never fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqWindow {
    /// A multiple of 64; every number below it is a member.
    floor: u64,
    /// Bit `i` of word `j` stands for `floor + 64 j + i`.
    words: VecDeque<u64>,
}

impl Default for SeqWindow {
    fn default() -> Self {
        SeqWindow {
            floor: 0,
            words: VecDeque::from([1]),
        }
    }
}

impl SeqWindow {
    /// Whether `k` is a member (inserted, or below the floor).
    #[inline]
    pub fn contains(&self, k: u64) -> bool {
        if k < self.floor {
            return true;
        }
        let offset = k - self.floor;
        self.words
            .get((offset / WORD) as usize)
            .is_some_and(|w| w >> (offset % WORD) & 1 == 1)
    }

    /// Adds `k`; `true` iff it was not a member before.
    #[inline]
    pub fn insert(&mut self, k: u64) -> bool {
        if k < self.floor {
            return false;
        }
        if k - self.floor >= REQUEST_WINDOW {
            self.slide_for(k);
        }
        let offset = k - self.floor;
        let (index, bit) = ((offset / WORD) as usize, 1u64 << (offset % WORD));
        if index >= self.words.len() {
            self.words.resize(index + 1, 0);
        }
        let word = &mut self.words[index];
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.drop_full_front();
        true
    }

    /// Adds `first..first + count` with one mask operation per word, calling
    /// `fresh` with each number that was not a member, in ascending order:
    /// exactly what inserting the numbers one by one would do and yield. A
    /// run that would pass the [`REQUEST_WINDOW`] slide is inserted so.
    pub fn insert_run(&mut self, first: u64, count: u64, mut fresh: impl FnMut(u64)) {
        let Some(last) = count.checked_sub(1).map(|c| first.saturating_add(c)) else {
            return;
        };
        if last < self.floor {
            return;
        }
        if last - self.floor >= REQUEST_WINDOW {
            for k in first..=last {
                if self.insert(k) {
                    fresh(k);
                }
            }
            return;
        }
        let start = first.max(self.floor);
        let floor_word = self.floor / WORD;
        let top = (last / WORD - floor_word) as usize;
        if top >= self.words.len() {
            self.words.resize(top + 1, 0);
        }
        for (index, mask) in word_masks(start, last - start + 1) {
            let word = &mut self.words[(index - floor_word) as usize];
            let mut new = mask & !*word;
            *word |= mask;
            while new != 0 {
                fresh(index * WORD + u64::from(new.trailing_zeros()));
                new &= new - 1;
            }
        }
        self.drop_full_front();
    }

    /// Whether any number of `first..first + count` is a member.
    pub fn any_in(&self, first: u64, count: u64) -> bool {
        if count == 0 {
            return false;
        }
        if first < self.floor {
            return true;
        }
        let floor_word = self.floor / WORD;
        word_masks(first, count)
            .map_while(|(index, mask)| {
                let word = self.words.get((index - floor_word) as usize)?;
                Some(word & mask)
            })
            .any(|hit| hit != 0)
    }

    /// Drops front words that are all ones, moving the floor up past them.
    fn drop_full_front(&mut self) {
        while self.words.front() == Some(&u64::MAX) {
            // The top word of the number space stays: there is no floor
            // above it.
            let Some(floor) = self.floor.checked_add(WORD) else {
                break;
            };
            self.floor = floor;
            self.words.pop_front();
        }
    }

    /// Moves the floor up so that `k`'s word is the last of the window.
    #[cold]
    fn slide_for(&mut self, k: u64) {
        let floor = (k & !(WORD - 1)) - (REQUEST_WINDOW - WORD);
        let passed = ((floor - self.floor) / WORD) as usize;
        self.words.drain(..passed.min(self.words.len()));
        self.floor = floor;
    }

    /// Every number below this is a member; a multiple of 64.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Bitmap words held: at most `REQUEST_WINDOW / 64`.
    pub fn words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The window against a plain set, with the one licensed difference:
    /// below the floor everything reads as a member.
    fn check_against_model(numbers: &[u64]) {
        let mut window = SeqWindow::default();
        let mut model = BTreeSet::from([0u64]);
        for &k in numbers {
            let below_floor = k < window.floor();
            let fresh = window.insert(k);
            assert_eq!(fresh, !below_floor && model.insert(k), "insert({k})");
            assert!(window.contains(k));
            assert!(window.floor().is_multiple_of(WORD));
            assert!(window.words() as u64 <= REQUEST_WINDOW / WORD);
        }
        let floor = window.floor();
        let top = numbers.iter().copied().max().unwrap_or(0);
        for k in numbers
            .iter()
            .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
        {
            assert_eq!(
                window.contains(k),
                k < floor || model.contains(&k),
                "contains({k}) with floor {floor}"
            );
            // Only a slide passes over a number never inserted, and a slide
            // keeps the last `REQUEST_WINDOW - 63` numbers up to its cause.
            if k < floor && !model.contains(&k) {
                assert!(
                    k + (REQUEST_WINDOW - 63) <= top,
                    "{k} forgotten under {top}"
                );
            }
        }
    }

    #[test]
    fn a_fresh_window_holds_zero_and_nothing_else() {
        let mut w = SeqWindow::default();
        assert!(w.contains(0));
        assert!(!w.insert(0), "0 is already present");
        assert!(!w.contains(1));
        assert_eq!((w.floor(), w.words()), (0, 1));
    }

    #[test]
    fn sequential_use_holds_at_most_two_words() {
        let mut w = SeqWindow::default();
        for k in 1..=10_000u64 {
            assert!(w.insert(k), "first insert of {k}");
            assert!(!w.insert(k), "second insert of {k}");
            assert!(w.words() <= 2, "{} words at {k}", w.words());
        }
        assert_eq!(w.floor(), 10_000 / WORD * WORD);
        assert!(w.contains(3) && w.contains(10_000) && !w.contains(10_001));
    }

    #[test]
    fn sparse_numbers_leave_holes_that_read_absent() {
        let mut w = SeqWindow::default();
        for k in [100, 200, 300] {
            assert!(w.insert(k));
        }
        assert_eq!(w.floor(), 0, "holes keep the floor down");
        for k in [100, 200, 300] {
            assert!(w.contains(k) && !w.insert(k));
        }
        for k in [1, 99, 101, 199, 299, 301] {
            assert!(!w.contains(k), "{k} was never inserted");
        }
    }

    #[test]
    fn a_jump_past_the_window_slides_the_floor() {
        let mut w = SeqWindow::default();
        for k in [5, 70, 1000] {
            w.insert(k);
        }
        let far = 3 * REQUEST_WINDOW + 17;
        assert!(w.insert(far));
        assert_eq!(w.floor(), (far & !(WORD - 1)) - (REQUEST_WINDOW - WORD));
        assert_eq!(w.words() as u64, REQUEST_WINDOW / WORD);
        // Below the new floor everything reads as present and stays so.
        for k in [1, 6, 71, 999, REQUEST_WINDOW, w.floor() - 1] {
            assert!(w.contains(k) && !w.insert(k), "{k} is below the floor");
        }
        assert!(!w.contains(w.floor()) && !w.contains(far - 1));
        assert!(w.insert(far - 1) && w.insert(w.floor()));
    }

    #[test]
    fn the_top_of_the_number_space_does_not_overflow() {
        let mut w = SeqWindow::default();
        assert!(w.insert(u64::MAX));
        for k in w.floor()..u64::MAX {
            assert!(w.insert(k));
        }
        assert!(w.contains(u64::MAX) && !w.insert(u64::MAX));
        assert_eq!(
            (w.floor(), w.words()),
            (u64::MAX - 63, 1),
            "the last word is full and kept"
        );
    }

    /// `insert_run` against inserting the same numbers one by one: the
    /// same fresh numbers in the same order and the same window after.
    fn check_run_against_inserts(window: &mut SeqWindow, first: u64, count: u64) {
        let mut reference = window.clone();
        let last = first.saturating_add(count.saturating_sub(1));
        let expected: Vec<u64> = (first..=last)
            .take(count as usize)
            .filter(|&k| reference.insert(k))
            .collect();
        let mut fresh = Vec::new();
        window.insert_run(first, count, |k| fresh.push(k));
        assert_eq!(fresh, expected, "insert_run({first}, {count})");
        assert_eq!(*window, reference, "insert_run({first}, {count})");
        assert_eq!(
            (window.floor(), window.words()),
            (reference.floor(), reference.words())
        );
        for k in (first.saturating_sub(65)..=last.saturating_add(65)).take(count as usize + 131) {
            assert_eq!(window.contains(k), reference.contains(k), "contains({k})");
        }
    }

    /// `any_in` against asking `contains` number by number.
    fn check_any_in(window: &SeqWindow, first: u64, count: u64) {
        let last = first.saturating_add(count.saturating_sub(1));
        let expected = (first..=last)
            .take(count as usize)
            .any(|k| window.contains(k));
        assert_eq!(
            window.any_in(first, count),
            expected,
            "any_in({first}, {count})"
        );
    }

    #[test]
    fn runs_at_the_edges_match_one_by_one_inserts() {
        let mut w = SeqWindow::default();
        check_run_against_inserts(&mut w, 5, 0);
        check_run_against_inserts(&mut w, 0, 1);
        check_run_against_inserts(&mut w, 1, 63);
        assert_eq!((w.floor(), w.words()), (64, 0), "the full word went");
        check_run_against_inserts(&mut w, 10, 100);
        check_run_against_inserts(&mut w, 200, 1000);
        check_run_against_inserts(&mut w, 64, 200);
        // Across the slide, and at the top of the number space.
        check_run_against_inserts(&mut w, REQUEST_WINDOW - 10, 100);
        check_run_against_inserts(&mut w, 5 * REQUEST_WINDOW, 3);
        check_run_against_inserts(&mut w, u64::MAX - 300, 100);
        check_run_against_inserts(&mut w, u64::MAX - 130, 131);
        assert!(w.contains(u64::MAX));
        check_run_against_inserts(&mut w, u64::MAX, 5);
        for (first, count) in [(0, 0), (0, 1), (u64::MAX - 300, 1), (u64::MAX - 299, 2)] {
            check_any_in(&w, first, count);
        }
    }

    #[test]
    fn key_runs_split_at_every_break() {
        let (a, b) = (ClientId(1), ClientId(2));
        let keys = [
            (a, 1),
            (a, 2),
            (a, 3), // a run
            (b, 4), // another client
            (a, 4),
            (a, 5), // a again, continuing its numbers
            (a, 7), // a gap
            (a, 6), // descending
            (a, 6), // repeated
            (a, u64::MAX),
            (a, 0), // no wrap-around
        ];
        let runs: Vec<(ClientId, u64, usize, usize)> = key_runs(&keys, |k| *k)
            .map(|r| (r.client, r.first, r.len, r.at))
            .collect();
        assert_eq!(
            runs,
            [
                (a, 1, 3, 0),
                (b, 4, 1, 3),
                (a, 4, 2, 4),
                (a, 7, 1, 6),
                (a, 6, 1, 7),
                (a, 6, 1, 8),
                (a, u64::MAX, 1, 9),
                (a, 0, 1, 10),
            ]
        );
        assert_eq!(key_runs(&[] as &[(ClientId, u64)], |k| *k).count(), 0);
    }

    proptest! {
        #[test]
        fn insert_run_matches_one_by_one_inserts(
            prefix in proptest::collection::vec(0u64..3_000, 0..300),
            runs in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            let mut window = SeqWindow::default();
            for k in prefix {
                window.insert(k);
            }
            for pick in runs {
                // Below or straddling the floor, inside the window, past the
                // slide or straddling it: every start relative to the floor.
                let (count, offset) = ((pick >> 48) % 300, (pick >> 4) % (1 << 40));
                let floor = window.floor();
                let first = match pick % 5 {
                    0 => floor.saturating_sub(offset % 200),
                    1 | 2 => floor + offset % 5_000,
                    3 => floor + REQUEST_WINDOW - offset % 400,
                    _ => floor + offset % (3 * REQUEST_WINDOW),
                };
                check_any_in(&window, first, count);
                check_run_against_inserts(&mut window, first, count);
                check_any_in(&window, first, count);
                check_any_in(&window, first.saturating_sub(count / 2), count);
            }
        }

        #[test]
        fn key_runs_cover_the_slice_with_maximal_runs(
            picks in proptest::collection::vec(0u64..120, 0..200),
        ) {
            // Few clients and small numbers: interleavings, gaps, descents
            // and repeats all occur.
            let keys: Vec<(ClientId, u64)> = picks
                .into_iter()
                .map(|pick| (ClientId(pick % 3), pick / 3))
                .collect();
            let runs: Vec<KeyRun> = key_runs(&keys, |k| *k).collect();
            let mut at = 0;
            for run in &runs {
                prop_assert_eq!(run.at, at);
                prop_assert!(run.len >= 1);
                let covered: Vec<(ClientId, u64)> = run.keys().collect();
                prop_assert_eq!(&covered[..], &keys[at..at + run.len]);
                for (i, key) in covered.iter().enumerate() {
                    prop_assert_eq!(run.index_of(key.1), at + i);
                }
                at += run.len;
                // Maximal: the next item does not continue the run.
                if let Some(next) = keys.get(at) {
                    prop_assert_ne!(*next, (run.client, run.last() + 1));
                }
            }
            prop_assert_eq!(at, keys.len());
        }

        #[test]
        fn in_order_and_shuffled_within_a_window_match_the_model(
            start in 1u64..5_000_000,
            len in 1usize..600,
            swaps in proptest::collection::vec(any::<u64>(), 0..600),
        ) {
            let mut numbers: Vec<u64> = (start..start + len as u64).collect();
            for (i, s) in swaps.iter().enumerate() {
                let (a, b) = (i % numbers.len(), (*s % numbers.len() as u64) as usize);
                numbers.swap(a, b);
            }
            // Duplicates of a random third ride along.
            let dups: Vec<u64> = numbers.iter().copied().filter(|k| k % 3 == 0).collect();
            numbers.extend(dups);
            check_against_model(&numbers);
        }

        #[test]
        fn arbitrary_numbers_with_jumps_match_the_model(
            near in proptest::collection::vec(0u64..4_096, 0..200),
            far in proptest::collection::vec(0u64..(4 * REQUEST_WINDOW), 0..40),
            mix in any::<u64>(),
        ) {
            // Interleave small numbers (0 included), window-sized jumps and
            // their neighbours, in an order the seed picks.
            let mut numbers: Vec<u64> = near;
            for f in far {
                numbers.extend([f, f + 1, f.saturating_sub(1)]);
            }
            let len = numbers.len().max(1) as u64;
            for i in 0..numbers.len() {
                let j = (mix.wrapping_mul(i as u64 + 1) % len) as usize;
                numbers.swap(i, j);
            }
            check_against_model(&numbers);
        }
    }
}

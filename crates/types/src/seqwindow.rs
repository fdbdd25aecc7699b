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

use std::collections::VecDeque;

/// How far above its lowest unconfirmed request number a client may issue
/// new ones, and so how many numbers per client a replica must tell apart.
/// The floor is word-aligned, so a slide may pass up to 63 numbers more than
/// strictly needed: the last `REQUEST_WINDOW - 63` numbers up to the highest
/// member are always told apart.
pub const REQUEST_WINDOW: u64 = 1 << 20;

const WORD: u64 = 64;

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
        while self.words.front() == Some(&u64::MAX) {
            // The top word of the number space stays: there is no floor
            // above it.
            let Some(floor) = self.floor.checked_add(WORD) else {
                break;
            };
            self.floor = floor;
            self.words.pop_front();
        }
        true
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

    proptest! {
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

//! Log-bucketed latency histogram: the one latency record.
//!
//! Every confirmation a client sees lands here
//! ([`ClientStats::latency_hist`](crate::ClientStats::latency_hist)), and
//! every latency the repo reports is read from it: the experiment tables,
//! `prestige-node`'s client report, the examples and the benchmark. It
//! records *every* observation in constant memory: 496 log-linear buckets
//! over microseconds, eight sub-buckets per octave, which bounds the relative
//! error of a reported percentile at 6.25 % across the full range a commit
//! latency can take. The count, the maximum and the mean (from an exact
//! microsecond sum) are exact.

use serde::{Deserialize, Serialize};

/// Values below `2^LINEAR_BITS` µs get one bucket per microsecond.
const LINEAR_BITS: u32 = 3;
/// Sub-buckets per power-of-two octave above the linear range.
const SUBBUCKETS: u64 = 8;
/// Total bucket count: linear range + 8 sub-buckets for every octave a u64
/// microsecond count can occupy (the top octaves are unreachable for real
/// latencies; they cost 8 bytes each).
const BUCKETS: usize = (1 << LINEAR_BITS) + ((64 - LINEAR_BITS as usize) * SUBBUCKETS as usize);

/// A fixed-size log-linear histogram of latencies, recorded in microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

/// Bucket index for a microsecond value.
fn bucket_of(us: u64) -> usize {
    if us < (1 << LINEAR_BITS) {
        us as usize
    } else {
        let exp = 63 - us.leading_zeros(); // floor(log2(us)), >= LINEAR_BITS
        let shift = exp - LINEAR_BITS;
        let sub = (us >> shift) & (SUBBUCKETS - 1);
        (1 << LINEAR_BITS) + (shift as usize * SUBBUCKETS as usize) + sub as usize
    }
}

/// Midpoint (µs) of the bucket at `idx` — the value reported for
/// percentiles landing in it.
fn bucket_midpoint_us(idx: usize) -> f64 {
    let linear = 1usize << LINEAR_BITS;
    if idx < linear {
        idx as f64
    } else {
        let shift = ((idx - linear) / SUBBUCKETS as usize) as u32;
        let sub = ((idx - linear) % SUBBUCKETS as usize) as u64;
        let lo = (SUBBUCKETS + sub) << shift;
        let width = 1u64 << shift;
        lo as f64 + width as f64 / 2.0
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation given in milliseconds.
    pub fn record_ms(&mut self, ms: f64) {
        let us = if ms <= 0.0 {
            0
        } else {
            (ms * 1000.0).round() as u64
        };
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded observation in milliseconds (exact, not bucketed).
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1000.0
    }

    /// Mean of the recorded observations in milliseconds (exact over their
    /// microsecond values, not bucketed). Returns 0 for an empty histogram.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.count as f64 / 1000.0
    }

    /// The p-th percentile (0–100) in milliseconds, from bucket midpoints.
    /// Returns 0 for an empty histogram.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_midpoint_us(idx) / 1000.0;
            }
        }
        self.max_ms()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Resets the histogram to empty.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum_us = 0;
        self.max_us = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_in_range() {
        let mut last = 0usize;
        for us in 0..100_000u64 {
            let b = bucket_of(us);
            assert!(b < BUCKETS);
            assert!(b >= last, "bucket index must be monotone in the value");
            last = b;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn midpoint_stays_within_relative_error() {
        // Above the linear range every bucket spans [lo, lo + lo/8), so the
        // midpoint is within ~6.25% of any value that falls in the bucket.
        for us in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000, 7_777_777] {
            let mid = bucket_midpoint_us(bucket_of(us));
            let err = (mid - us as f64).abs() / us as f64;
            assert!(err < 0.0625, "us={us} mid={mid} err={err}");
        }
    }

    #[test]
    fn percentiles_track_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 ms, one observation each.
        for ms in 1..=1000 {
            h.record_ms(ms as f64);
        }
        assert_eq!(h.count(), 1000);
        for (p, expect) in [(50.0, 500.0), (90.0, 900.0), (99.0, 990.0)] {
            let got = h.percentile_ms(p);
            let err = (got - expect).abs() / expect;
            assert!(err < 0.0625, "p{p}: got {got}, expected ~{expect}");
        }
        assert!((h.max_ms() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500 {
            let ms = 0.1 * i as f64;
            if i % 2 == 0 {
                a.record_ms(ms);
            } else {
                b.record_ms(ms);
            }
            whole.record_ms(ms);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.percentile_ms(99.0), 0.0);
    }

    #[test]
    fn mean_is_exact_over_microseconds_and_survives_merge_and_clear() {
        // 1.0004 and 2.0006 ms round to 1 000 and 2 001 µs; a non-positive
        // latency records as 0.
        let mut a = LatencyHistogram::new();
        assert_eq!(a.mean_ms(), 0.0);
        for ms in [1.0004, 2.0006, -1.0] {
            a.record_ms(ms);
        }
        assert_eq!(a.mean_ms(), 3001.0 / 3.0 / 1000.0);
        let mut b = LatencyHistogram::new();
        b.record_ms(7.0);
        a.merge(&b);
        assert_eq!(a.mean_ms(), 10_001.0 / 4.0 / 1000.0);
        a.clear();
        assert_eq!(a.mean_ms(), 0.0);
        a.record_ms(0.5);
        assert_eq!(a.mean_ms(), 0.5);
    }
}

//! The arithmetic behind every reported number: medians, quartiles, the
//! spread of a set, the verdict of a comparison, and the share of a latency
//! histogram that lies beyond a limit.

use prestige_core::LatencyHistogram;

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method), which is what the driver
/// uses. Needs at least two values; with fewer both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the driver compares against a metric's bound.
pub fn spread_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

/// Outcome of comparing two sets of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// The spread of one set is wider than the bound, so the medians cannot
    /// be told apart at this bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much B's median is worse than A's, as a share of A's median
/// (negative when B is better).
pub fn worsening(a_median: f64, b_median: f64, better: Better) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    let change = (b_median - a_median) / a_median.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Classifies set B's value against set A's with the metric's own bound,
/// given each set's run-to-run spread.
pub fn classify(
    a: f64,
    b: f64,
    spread_a: f64,
    spread_b: f64,
    better: Better,
    bound: f64,
) -> Verdict {
    if spread_a > bound || spread_b > bound {
        return Verdict::Unresolved;
    }
    let worse_by = worsening(a, b, better);
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Largest `q` in `[lo, hi]` with `holds(q)`, for a predicate that holds up to
/// some point and not beyond; `lo` when it holds nowhere above `lo`.
fn last_where(mut lo: f64, mut hi: f64, holds: impl Fn(f64) -> bool) -> f64 {
    if holds(hi) {
        return hi;
    }
    for _ in 0..50 {
        let mid = (lo + hi) / 2.0;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A bucket midpoint is within this share of every value in its bucket (the
/// histogram's documented quantization), which bounds how far an
/// interpolated value may move from it.
const BUCKET_HALF_WIDTH: f64 = 0.0625;

/// The `p`-th percentile of `hist`, interpolated inside the bucket it falls
/// in. `LatencyHistogram::percentile_ms` answers with bucket midpoints, which
/// step by up to 12 % from one bucket to the next: a median near a bucket
/// edge would flip by more than a metric's bound between two runs. The
/// histogram exposes no counts, but the range of percentiles that map to one
/// midpoint is the bucket's share of the observations, and the neighbouring
/// midpoints place its edges; interpolating across that range gives a value
/// that moves smoothly with the data.
pub fn percentile_ms(hist: &LatencyHistogram, p: f64) -> f64 {
    if hist.is_empty() {
        return 0.0;
    }
    let mid = hist.percentile_ms(p);
    let below = last_where(0.0, p, |q| hist.percentile_ms(q) < mid);
    let upto = last_where(p, 100.0, |q| hist.percentile_ms(q) <= mid);
    let first_bucket = hist.percentile_ms(0.0) >= mid;
    let lower = if first_bucket {
        mid * (1.0 - BUCKET_HALF_WIDTH)
    } else {
        ((hist.percentile_ms(below) + mid) / 2.0).max(mid * (1.0 - BUCKET_HALF_WIDTH))
    };
    let upper = if upto >= 100.0 {
        mid * (1.0 + BUCKET_HALF_WIDTH)
    } else {
        let next = hist.percentile_ms((upto + 1e-9).min(100.0));
        ((mid + next) / 2.0).min(mid * (1.0 + BUCKET_HALF_WIDTH))
    };
    let from = if first_bucket { 0.0 } else { below };
    if upto <= from {
        return mid;
    }
    lower + (p - from) / (upto - from) * (upper - lower)
}

/// Share of the histogram's observations above `limit_ms`, found by bisecting
/// `percentile_ms` (the histogram exposes no bucket counts): the largest
/// percentile still at or under the limit separates the two sides.
pub fn share_over_limit(hist: &LatencyHistogram, limit_ms: f64) -> f64 {
    if hist.is_empty() || hist.percentile_ms(100.0) <= limit_ms {
        return 0.0;
    }
    if hist.percentile_ms(0.0) > limit_ms {
        return 1.0;
    }
    1.0 - last_where(0.0, 100.0, |q| hist.percentile_ms(q) <= limit_ms) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_the_interquartile_distance_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread_share(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn classification_uses_direction_and_bound() {
        let verdict = |a: &[f64], b: &[f64], better| {
            classify(
                median(a),
                median(b),
                spread_share(a),
                spread_share(b),
                better,
                0.1,
            )
        };
        let a = [100.0, 101.0, 99.0];
        let up = [120.0, 121.0, 119.0];
        let same = [104.0, 105.0, 103.0];
        assert_eq!(verdict(&a, &up, Better::Lower), Verdict::Worse);
        assert_eq!(verdict(&a, &up, Better::Higher), Verdict::Better);
        assert_eq!(verdict(&a, &same, Better::Lower), Verdict::Within);
        assert_eq!(verdict(&a, &same, Better::Higher), Verdict::Within);
        // A set whose own spread exceeds the bound resolves nothing.
        let noisy = [80.0, 100.0, 130.0];
        assert_eq!(verdict(&a, &noisy, Better::Lower), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, Better::Lower), Verdict::Unresolved);
    }

    #[test]
    fn interpolated_percentiles_track_a_known_distribution_closely() {
        let mut hist = LatencyHistogram::new();
        for tenth_ms in 1..=10_000 {
            hist.record_ms(f64::from(tenth_ms) / 10.0);
        }
        for (p, expect) in [(10.0, 100.0), (50.0, 500.0), (90.0, 900.0), (95.0, 950.0)] {
            let got = percentile_ms(&hist, p);
            assert!(
                (got - expect).abs() / expect < 0.01,
                "p{p}: {got} vs {expect}"
            );
        }
        // Moving a few observations moves the answer a little, not a bucket.
        let before = percentile_ms(&hist, 50.0);
        for _ in 0..20 {
            hist.record_ms(900.0);
        }
        let after = percentile_ms(&hist, 50.0);
        assert!(after >= before && (after - before) / before < 0.005);
        // A single bucket and an empty histogram stay well defined.
        let mut one = LatencyHistogram::new();
        one.record_ms(3.0);
        assert!((percentile_ms(&one, 50.0) - 3.0).abs() / 3.0 <= BUCKET_HALF_WIDTH);
        assert_eq!(percentile_ms(&LatencyHistogram::new(), 50.0), 0.0);
    }

    #[test]
    fn over_limit_share_of_a_hand_built_histogram() {
        let mut hist = LatencyHistogram::new();
        for _ in 0..990 {
            hist.record_ms(1.0);
        }
        for _ in 0..10 {
            hist.record_ms(2000.0);
        }
        let share = share_over_limit(&hist, 1000.0);
        assert!((share - 0.01).abs() < 1e-6, "got {share}");
        assert_eq!(share_over_limit(&hist, 5000.0), 0.0);
        assert_eq!(share_over_limit(&hist, 0.5), 1.0);
        assert_eq!(share_over_limit(&LatencyHistogram::new(), 1.0), 0.0);
    }
}

//! Throughput computation from a cumulative commit series.
//!
//! The figure runner samples a server's committed-transaction count between
//! simulator events, as `(instant in ms, transactions committed before it)`
//! in increasing instant order. These helpers difference that series into
//! the numbers the paper reports: transactions per second over an interval,
//! and TPS per window (the recovery and availability figures), so it must
//! hold a sample at every instant they read.

/// Transactions committed within `[from_ms, to_ms)`: the difference of the
/// counts the series holds at the two instants, each that of its latest
/// sample at or before the instant (0 before the first).
fn committed_in(commits: &[(f64, u64)], from_ms: f64, to_ms: f64) -> u64 {
    let at = |t: f64| match commits.partition_point(|(s, _)| *s <= t) {
        0 => 0,
        taken => commits[taken - 1].1,
    };
    at(to_ms).saturating_sub(at(from_ms))
}

/// Total transactions per second committed within `[start_ms, end_ms)`.
pub fn total_tps(commits: &[(f64, u64)], start_ms: f64, end_ms: f64) -> f64 {
    if end_ms <= start_ms {
        return 0.0;
    }
    committed_in(commits, start_ms, end_ms) as f64 / ((end_ms - start_ms) / 1000.0)
}

/// TPS per `window_ms` window across `[0, end_ms)`. Returns one
/// `(window start in ms, tps)` pair per window; a last, partial window ends
/// at `end_ms` but still divides by `window_ms`.
pub fn throughput_series(commits: &[(f64, u64)], end_ms: f64, window_ms: f64) -> Vec<(f64, f64)> {
    let tps = |w: &[f64]| committed_in(commits, w[0], w[1]) as f64 / (window_ms / 1000.0);
    let instants = window_instants(end_ms, window_ms);
    instants.windows(2).map(|w| (w[0], tps(w))).collect()
}

/// The instants at which [`throughput_series`] reads the series, in
/// increasing order: `i × window_ms` for each window `i` that starts before
/// `end_ms`, then `end_ms`. Empty when either argument is not positive.
pub fn window_instants(end_ms: f64, window_ms: f64) -> Vec<f64> {
    if window_ms <= 0.0 || end_ms <= 0.0 {
        return Vec::new();
    }
    let windows = (end_ms / window_ms).ceil() as usize;
    let starts = (0..windows).map(|i| i as f64 * window_ms);
    starts.chain([end_ms]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Commits of 50, 50, 100 and 100 transactions at 100, 600, 1 100 and
    /// 1 900 ms, sampled at every whole second.
    fn series() -> Vec<(f64, u64)> {
        vec![(0.0, 0), (1000.0, 100), (2000.0, 300)]
    }

    #[test]
    fn total_tps_over_interval() {
        // 300 transactions over 2 seconds.
        assert!((total_tps(&series(), 0.0, 2000.0) - 150.0).abs() < 1e-9);
        // Only the first second.
        assert!((total_tps(&series(), 0.0, 1000.0) - 100.0).abs() < 1e-9);
        // Empty / degenerate intervals.
        assert_eq!(total_tps(&series(), 2000.0, 2000.0), 0.0);
        assert_eq!(total_tps(&[], 0.0, 1000.0), 0.0);
    }

    #[test]
    fn series_buckets_by_window() {
        let series = throughput_series(&series(), 2000.0, 1000.0);
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 100.0).abs() < 1e-9);
        assert!((series[1].1 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn series_ignores_out_of_range_entries() {
        let late = throughput_series(&[(5000.0, 10)], 2000.0, 1000.0);
        assert!(late.iter().all(|(_, tps)| *tps == 0.0));
        assert!(throughput_series(&series(), 0.0, 1000.0).is_empty());
        assert!(throughput_series(&series(), 1000.0, 0.0).is_empty());
    }

    #[test]
    fn window_instants_cover_every_window_and_the_end() {
        assert_eq!(window_instants(2000.0, 1000.0), [0.0, 1000.0, 2000.0]);
        assert_eq!(
            window_instants(2500.0, 1000.0),
            [0.0, 1000.0, 2000.0, 2500.0]
        );
        assert!(window_instants(0.0, 1000.0).is_empty());
        assert!(window_instants(1000.0, 0.0).is_empty());
    }
}

//! Availability over time (Figure 14).
//!
//! The paper reports availability as the fraction of time the system makes
//! progress. Here a window counts as available if at least one transaction
//! committed within it; the series reports the cumulative availability up to
//! each window, which is what the paper's Figure 14 plots over `10^4` seconds.

use crate::throughput_series;

/// Cumulative availability per window: for each `window_ms` window up to
/// `end_ms`, the fraction of windows so far in which at least one commit
/// landed, read from a cumulative commit series (see [`crate::throughput`]).
/// Returns `(window end in ms, cumulative availability in [0, 1])`.
pub fn availability_series(commits: &[(f64, u64)], end_ms: f64, window_ms: f64) -> Vec<(f64, f64)> {
    let mut up = 0usize;
    throughput_series(commits, end_ms, window_ms)
        .into_iter()
        .enumerate()
        .map(|(i, (_, tps))| {
            up += usize::from(tps > 0.0);
            ((i + 1) as f64 * window_ms, up as f64 / (i + 1) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_available_system() {
        // Five commits 10 ms into every second, sampled at each whole second.
        let commits: Vec<(f64, u64)> = (0..=10).map(|k| (k as f64 * 1000.0, 5 * k)).collect();
        let series = availability_series(&commits, 10_000.0, 1000.0);
        assert_eq!(series.len(), 10);
        assert!(series.iter().all(|(_, a)| (*a - 1.0).abs() < 1e-9));
    }

    #[test]
    fn outage_reduces_cumulative_availability() {
        // Commits only in the second half.
        let commits: Vec<(f64, u64)> = (0..=10u64)
            .map(|k| (k as f64 * 1000.0, 5 * k.saturating_sub(5)))
            .collect();
        let series = availability_series(&commits, 10_000.0, 1000.0);
        assert!((series[4].1 - 0.0).abs() < 1e-9);
        assert!((series[9].1 - 0.5).abs() < 1e-9);
        // Availability recovers (increases) over time once commits resume.
        assert!(series[9].1 > series[5].1);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(availability_series(&[], 0.0, 1000.0).is_empty());
        assert!(availability_series(&[(1.0, 1)], 1000.0, 0.0).is_empty());
        let empty_log = availability_series(&[], 3000.0, 1000.0);
        assert!(empty_log.iter().all(|(_, a)| *a == 0.0));
    }
}

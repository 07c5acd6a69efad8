//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at rank `ceil(q·n)`. A tail percentile is
//! only trusted when at least [`MIN_BEYOND`] samples lie beyond that rank.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based) of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `q`-quantile of already sorted samples (0 for none).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Whether `n` samples support reporting the `q`-quantile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median and p99 of one latency population, with its sample count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Whether `n` supports the p99 (at least [`MIN_BEYOND`] beyond it).
    pub p99_supported: bool,
}

/// Stretches a run is cut into by completion time (a quarter of a second
/// each in a 20-second run).
pub const WINDOWS: usize = 80;

/// Which quantile over a run's stretches is reported for a time: the
/// quiet end (see [`Summary::windowed`]); rates use `1 - QUIET`.
pub const QUIET: f64 = 0.1;

/// Merges consecutive windows into groups of at least `min` samples (a
/// short remainder joins the last group) and returns each group's
/// `q`-quantile.
fn grouped_quantiles(windows: &[Vec<f32>], min: usize, q: f64) -> Vec<f64> {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for window in windows {
        open.extend(window.iter().map(|&v| f64::from(v)));
        if open.len() >= min {
            groups.push(std::mem::take(&mut open));
        }
    }
    match groups.last_mut() {
        Some(last) => last.extend(open),
        None if !open.is_empty() => groups.push(open),
        None => {}
    }
    groups
        .into_iter()
        .map(|mut group| {
            group.sort_by(f64::total_cmp);
            percentile(&group, q)
        })
        .collect()
}

/// The nearest-rank `q`-quantile of unsorted values (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

impl Summary {
    /// Summarises a run cut into consecutive windows. Interference from
    /// outside the program (other tenants of the machine taking CPU time)
    /// only ever adds latency and comes in bursts lasting seconds, often
    /// most of a run, so each percentile is taken per group of
    /// consecutive windows and the [`QUIET`] quantile over the groups is
    /// reported: the run's quiet stretches set the figure, while a change
    /// in the program's own speed moves every group alike. A p50 group
    /// holds at least 20 samples and a p99 group at least 1000, so each
    /// keeps [`MIN_BEYOND`] samples beyond its percentile.
    pub fn windowed(windows: &[Vec<f32>]) -> Summary {
        let n = windows.iter().map(Vec::len).sum();
        let p50s = grouped_quantiles(windows, 2 * MIN_BEYOND, 0.5);
        let p99s = grouped_quantiles(windows, 100 * MIN_BEYOND, 0.99);
        Summary {
            n,
            p50: quantile(&p50s, QUIET),
            p99: quantile(&p99s, QUIET),
            p99_supported: tail_supported(n, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, so exactly 10 lie beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        // 999 samples: rank ceil(989.01) = 990, 9 beyond.
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.99));
        // The median needs only 20 samples.
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_group_until_each_keeps_ten_beyond_its_p99() {
        // 600 + 600 samples form one p99 group; 1500 a second; the short
        // 300 tail joins the second.
        let windows = vec![
            vec![1.0; 600],
            vec![1.0; 600],
            vec![2.0; 1500],
            vec![3.0; 300],
        ];
        assert_eq!(grouped_quantiles(&windows, 1000, 0.99), vec![1.0, 3.0]);
        // Too few samples for one full group: everything in one.
        assert_eq!(grouped_quantiles(&[vec![5.0; 10]], 1000, 0.99), vec![5.0]);
        assert!(grouped_quantiles(&[], 1000, 0.99).is_empty());
        let s = Summary::windowed(&windows);
        assert_eq!(s.n, 3000);
        assert!(s.p99_supported);
        assert!(!Summary::windowed(&[vec![1.0; 999]]).p99_supported);
        assert_eq!(Summary::windowed(&[]).n, 0);
    }

    #[test]
    fn quiet_windows_set_the_figure() {
        // Twelve quiet windows and three disturbed ones (a tenfold slower
        // tail): the quiet end over groups ignores the disturbance,
        // and a uniform slowdown of the program moves the result with it.
        let quiet: Vec<f32> = (0..2000).map(|i| (i % 100) as f32).collect();
        let noisy: Vec<f32> = quiet.iter().map(|v| v * 10.0).collect();
        let mut windows = vec![noisy; 3];
        windows.extend(vec![quiet; 12]);
        let s = Summary::windowed(&windows);
        assert_eq!(s.p99, 98.0);
        assert_eq!(s.p50, 49.0);
        let slower: Vec<Vec<f32>> = windows
            .iter()
            .map(|w| w.iter().map(|v| v * 2.0).collect())
            .collect();
        assert_eq!(Summary::windowed(&slower).p99, 196.0);
    }

    #[test]
    fn one_window_is_the_plain_percentile() {
        let values: Vec<f32> = (0..500).rev().map(|i| i as f32).collect();
        let s = Summary::windowed(&[values]);
        assert_eq!(s.n, 500);
        assert_eq!(s.p50, 249.0);
        assert!(!s.p99_supported);
        let values: Vec<f32> = (0..2000).rev().map(|i| i as f32).collect();
        let s = Summary::windowed(&[values]);
        assert_eq!(s.p99, 1979.0);
        assert!(s.p99_supported);
    }
}

//! Order statistics for run sets and latency samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), because that is what the acceptance
//! driver computes over the same numbers.

/// Median, quartiles and sample count of one metric over a run set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (q1, median, q3) = quartiles(values)?;
        Some(Summary {
            median,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` by the exclusive method: cut point `i` of 4 sits
/// at rank `i·(n+1)/4` (1-based), interpolated linearly and clamped to
/// the sample range. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((v[0], v[0], v[0]));
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile_nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99
/// that still has at least ten samples beyond it in a sample of `n`.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Each percentile with the whole number of samples per sample
    // beyond it, so the test is exact.
    const LADDER: [(f64, usize); 5] = [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ];
    LADDER
        .into_iter()
        .find(|(_, one_in)| n >= 10 * one_in)
        .map_or(50.0, |(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let median = |v: &[f64]| Summary::of(v).map(|s| s.median);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("non-empty");
        assert_eq!(s.n, 5);
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&v, 50.0), Some(50));
        assert_eq!(percentile_nearest_rank(&v, 99.0), Some(99));
        assert_eq!(percentile_nearest_rank(&v, 100.0), Some(100));
        assert_eq!(percentile_nearest_rank(&[7], 99.0), Some(7));
        assert_eq!(percentile_nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(800_000), 99.99);
    }
}

//! Single-writer measurement accumulators: [`Summary`] and
//! [`BucketHistogram`].
//!
//! Unlike the atomic instruments in [`crate::metrics`], these are plain
//! values for code that already owns its data single-threaded — the
//! discrete-event simulator, experiment reducers — where atomics would
//! buy nothing. `greenps-simnet`'s public `Summary`/`Histogram` types
//! are thin adapters over these, so the bookkeeping logic lives in
//! exactly one place.

/// Online count/sum/min/max accumulator over `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Fixed-bucket histogram over explicit ascending upper bounds, with an
/// implicit overflow bucket above the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketHistogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    summary: Summary,
}

impl BucketHistogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| matches!(w, &[a, b] if a < b)),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            summary: Summary::new(),
        }
    }

    /// Records an observation.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.summary.record(value as f64);
    }

    /// The aggregate summary of all recorded values.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Approximate value at a quantile in `[0, 1]`, using bucket upper
    /// bounds. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.summary.count();
        if total == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "quantile rank is in [1, count] by construction; ceil of a clamped product cannot overflow"
        )]
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Past the last bound is the overflow bucket: report
                // the observed max instead of a bound.
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "the summary max is a recorded u64 observation held as f64, so it converts back in range"
                )]
                return Some(
                    self.bounds
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| self.summary.max().unwrap_or_default() as u64),
                );
            }
        }
        None
    }

    /// Per-bucket `(upper_bound, count)` pairs; the final entry uses
    /// `u64::MAX` as the overflow bound.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for v in [2.0, 4.0, 6.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(6.0));

        let mut t = Summary::new();
        t.record(10.0);
        s.merge(&t);
        assert_eq!(s.count(), 4);
        assert_eq!(s.max(), Some(10.0));
    }

    #[test]
    fn bucket_histogram_quantiles() {
        let mut h = BucketHistogram::new(vec![10, 100, 1000]);
        for v in [5, 9, 50, 500, 5000] {
            h.record(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(10, 2), (100, 1), (1000, 1), (u64::MAX, 1)]);
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(1.0), Some(5000)); // overflow reports max
        assert_eq!(h.summary().count(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bucket_histogram_rejects_unsorted_bounds() {
        let _ = BucketHistogram::new(vec![10, 10]);
    }
}

//! Lock-free metric instruments: counters, gauges and log-bucketed
//! histograms.
//!
//! Every record path is a handful of atomic read-modify-write
//! operations on `Arc`-shared cells — no locks are taken while
//! recording, so instruments can be hammered from simulator loops,
//! broker threads and CRAM shard workers alike. Handles obtained from a
//! disabled [`crate::Registry`] carry no cell at all and every
//! operation is a no-op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
///
/// Cheap to clone; clones share the same underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op counter (what disabled registries hand out).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// True when increments actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op counters).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge with a monotone-max variant.
///
/// Values are unsigned; callers that need signed readings should offset
/// them at the call site (none of the greenps gauges do).
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A detached no-op gauge.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// True when updates actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Sets the gauge to `v` rounded to the nearest integer.
    ///
    /// This is the one blessed float→integer conversion for metric
    /// readings: `as` saturates (NaN → 0, out-of-range clamps), so any
    /// finite or non-finite reading maps to a representable gauge value.
    pub fn set_f64(&self, v: f64) {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "Gauge::set_f64 is the designated rounding point: gauges store u64, saturation is the intended clamp"
        )]
        self.set(v.round() as u64);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn observe_max(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op gauges).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets a histogram holds: one per possible
/// `u64` bit width plus the zero bucket.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// Shared storage behind [`Histogram`] handles.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if let Some(bucket) = self.buckets.get(bucket_index(v)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then_some((bucket_bound(i), c))
                })
                .collect(),
        }
    }
}

/// Log-bucket index of a value: 0 for 0, otherwise its bit width, so
/// bucket `i` covers `[2^(i-1), 2^i - 1]`.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A histogram with power-of-two buckets, lock-free on the record path.
///
/// The value domain is the caller's choice; greenps uses microseconds
/// for every duration histogram (suffix `_us` in the metric name).
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A detached no-op histogram.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// True when observations actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Records a wall-clock duration in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Starts a wall-clock timer gated on this histogram being enabled.
    ///
    /// Disabled histograms never read the clock, so deterministic code
    /// can time itself without mentioning `Instant` directly: the only
    /// wall-clock read lives here, behind the registry's enabled state.
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            started: self.is_enabled().then(std::time::Instant::now),
            hist: self.clone(),
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |core| core.count.load(Ordering::Relaxed))
    }
}

/// A running wall-clock timer from [`Histogram::start_timer`].
///
/// Holds `None` when the histogram is disabled, in which case both the
/// start and the stop are free of clock reads.
#[derive(Debug)]
pub struct HistogramTimer {
    hist: Histogram,
    started: Option<std::time::Instant>,
}

impl HistogramTimer {
    /// Stops the timer, recording the elapsed wall time in microseconds
    /// (a no-op for disabled histograms).
    pub fn stop(self) {
        if let Some(started) = self.started {
            self.hist.record_duration(started.elapsed());
        }
    }

    /// True when a clock was actually started.
    pub fn is_running(&self) -> bool {
        self.started.is_some()
    }
}

/// Point-in-time view of one histogram, as exported in snapshots.
///
/// `buckets` lists only non-empty buckets as `(inclusive upper bound,
/// count)` pairs, in ascending bound order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (wrapping on overflow).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty `(upper_bound, count)` buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter(Some(Arc::new(AtomicU64::new(0))));
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(c.is_enabled());

        let g = Gauge(Some(Arc::new(AtomicU64::new(0))));
        g.set(7);
        g.observe_max(3);
        assert_eq!(g.get(), 7);
        g.observe_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
        let g = Gauge::noop();
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = Histogram::noop();
        h.record(9);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_log_buckets() {
        let core = Arc::new(HistogramCore::new());
        let h = Histogram(Some(core));
        for v in [0, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.0.as_ref().unwrap().snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        // 0 -> bound 0; 1 -> bound 1; 2,3 -> bound 3; 1000 -> bound 1023;
        // u64::MAX -> bound u64::MAX.
        assert_eq!(
            snap.buckets,
            vec![(0, 1), (1, 1), (3, 2), (1023, 1), (u64::MAX, 1)]
        );
    }

    #[test]
    fn bucket_bounds_are_inclusive_powers() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_bound(10), 1023);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn gauge_set_f64_rounds_and_saturates() {
        let g = Gauge(Some(Arc::new(AtomicU64::new(0))));
        g.set_f64(41.6);
        assert_eq!(g.get(), 42);
        g.set_f64(-3.0);
        assert_eq!(g.get(), 0);
        g.set_f64(f64::NAN);
        assert_eq!(g.get(), 0);
        g.set_f64(f64::INFINITY);
        assert_eq!(g.get(), u64::MAX);
    }

    #[test]
    fn histogram_timer_records_only_when_enabled() {
        let h = Histogram::noop();
        let t = h.start_timer();
        assert!(!t.is_running());
        t.stop();
        assert_eq!(h.count(), 0);

        let h = Histogram(Some(Arc::new(HistogramCore::new())));
        let t = h.start_timer();
        assert!(t.is_running());
        t.stop();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let core = HistogramCore::new();
        let snap = core.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.mean(), 0.0);
    }
}

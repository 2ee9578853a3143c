//! Statistics utilities for simulation runs.

use vmp_types::Nanos;

/// Tracks the total time a single-server resource (the VMEbus, a block
/// copier) spends busy, for utilization reports.
///
/// # Examples
///
/// ```
/// use vmp_sim::BusyTracker;
/// use vmp_types::Nanos;
///
/// let mut bus = BusyTracker::new();
/// bus.add_busy(Nanos::from_ns(300));
/// bus.add_busy(Nanos::from_ns(700));
/// assert_eq!(bus.busy(), Nanos::from_us(1));
/// assert!((bus.utilization(Nanos::from_us(10)) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyTracker {
    busy: Nanos,
    intervals: u64,
}

impl BusyTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one busy interval of the given length.
    pub fn add_busy(&mut self, duration: Nanos) {
        self.busy += duration;
        self.intervals += 1;
    }

    /// Total accumulated busy time.
    pub fn busy(&self) -> Nanos {
        self.busy
    }

    /// Number of busy intervals recorded.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Fraction of `elapsed` the resource was busy (0 when `elapsed` is 0).
    pub fn utilization(&self, elapsed: Nanos) -> f64 {
        if elapsed == Nanos::ZERO {
            0.0
        } else {
            self.busy.as_ns() as f64 / elapsed.as_ns() as f64
        }
    }

    /// Rebuilds a tracker from captured [`BusyTracker::busy`] and
    /// [`BusyTracker::intervals`] values, for checkpoint restore.
    pub fn restore(busy: Nanos, intervals: u64) -> Self {
        BusyTracker { busy, intervals }
    }
}

/// A log2-bucketed histogram of nanosecond durations, for latency
/// distributions that span several orders of magnitude (miss service
/// times, interrupt latencies, bus arbitration waits).
///
/// Bucket 0 holds the exact value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`. Values at or beyond `2^(buckets-1)` land in an
/// overflow bucket that is still included in `count`, `mean`, `max`
/// and `percentile`, so no sample is silently lost.
///
/// # Examples
///
/// ```
/// use vmp_sim::Log2Histogram;
/// use vmp_types::Nanos;
///
/// let mut h = Log2Histogram::new(16);
/// h.record(Nanos::ZERO);
/// h.record(Nanos::from_ns(5));
/// h.record(Nanos::from_ns(1_000_000)); // past 2^15 ns: overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.bucket_bounds(3), (Nanos::from_ns(4), Nanos::from_ns(8)));
/// ```
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    max: Nanos,
}

impl Log2Histogram {
    /// Creates a histogram with `buckets` log2 buckets (plus the
    /// overflow bucket). Bucket `buckets - 1` tops out at
    /// `2^(buckets-1)` ns, so 40 buckets cover up to ~9 minutes.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or exceeds 65 (bucket 64 would top
    /// out beyond the range of `u64` nanoseconds).
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "bucket count must be non-zero");
        assert!(buckets <= 65, "at most 65 log2 buckets are meaningful for u64 ns");
        Log2Histogram { counts: vec![0; buckets], overflow: 0, total: 0, sum: 0, max: Nanos::ZERO }
    }

    /// Index of the bucket a value falls into: 0 for the value 0,
    /// otherwise `floor(log2(ns)) + 1`.
    fn bucket_index(value: Nanos) -> usize {
        let ns = value.as_ns();
        if ns == 0 {
            0
        } else {
            64 - ns.leading_zeros() as usize
        }
    }

    /// Half-open range `[lo, hi)` covered by bucket `index` (bucket 0
    /// covers exactly `[0, 1)`). `hi` saturates at `u64::MAX` ns for
    /// bucket 64.
    pub fn bucket_bounds(&self, index: usize) -> (Nanos, Nanos) {
        if index == 0 {
            (Nanos::ZERO, Nanos::from_ns(1))
        } else {
            let lo = 1u64 << (index - 1);
            let hi = if index >= 64 { u64::MAX } else { 1u64 << index };
            (Nanos::from_ns(lo), Nanos::from_ns(hi))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: Nanos) {
        let idx = Self::bucket_index(value);
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += value.as_ns() as u128;
        self.max = self.max.max(value);
    }

    /// Number of configured buckets (not counting the overflow bucket).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Samples in bucket `index`.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (zero when empty, saturating on overflow).
    pub fn mean(&self) -> Nanos {
        if self.total == 0 {
            Nanos::ZERO
        } else {
            Nanos::from_ns(u64::try_from(self.sum / self.total as u128).unwrap_or(u64::MAX))
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> Nanos {
        self.max
    }

    /// Samples that landed past the last configured bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate p-th percentile (0.0–1.0): the upper edge of the
    /// bucket containing the percentile, clamped to the maximum sample;
    /// overflow samples report the maximum. Returns zero when empty.
    pub fn percentile(&self, p: f64) -> Nanos {
        if self.total == 0 {
            return Nanos::ZERO;
        }
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target && c > 0 {
                return self.bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_accumulates() {
        let mut t = BusyTracker::new();
        assert_eq!(t.utilization(Nanos::from_us(1)), 0.0);
        t.add_busy(Nanos::from_ns(250));
        t.add_busy(Nanos::from_ns(250));
        assert_eq!(t.busy(), Nanos::from_ns(500));
        assert_eq!(t.intervals(), 2);
        assert!((t.utilization(Nanos::from_us(1)) - 0.5).abs() < 1e-12);
        assert_eq!(t.utilization(Nanos::ZERO), 0.0);
    }

    #[test]
    fn log2_histogram_bucketing_edges() {
        let mut h = Log2Histogram::new(65);
        h.record(Nanos::ZERO);
        h.record(Nanos::from_ns(1));
        h.record(Nanos::from_ns(2));
        h.record(Nanos::from_ns(3));
        h.record(Nanos::from_ns(u64::MAX));
        assert_eq!(h.bucket_count(0), 1); // exactly 0
        assert_eq!(h.bucket_count(1), 1); // [1, 2)
        assert_eq!(h.bucket_count(2), 2); // [2, 4)
        assert_eq!(h.bucket_count(64), 1); // u64::MAX in the top bucket
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Nanos::from_ns(u64::MAX));
        // The u128 sum keeps the mean exact even with a u64::MAX sample.
        assert_eq!(h.mean(), Nanos::from_ns(((u64::MAX as u128 + 6) / 5) as u64));
        assert_eq!(h.bucket_bounds(0), (Nanos::ZERO, Nanos::from_ns(1)));
        assert_eq!(h.bucket_bounds(64).1, Nanos::from_ns(u64::MAX));
    }

    #[test]
    fn log2_histogram_overflow_and_percentiles() {
        let mut h = Log2Histogram::new(4); // buckets cover [0, 8)
        for ns in [0, 1, 2, 4, 7, 8, 1_000] {
            h.record(Nanos::from_ns(ns));
        }
        assert_eq!(h.overflow(), 2); // 8 and 1000 are past 2^3
        assert_eq!(h.count(), 7);
        assert_eq!(h.percentile(1.0), Nanos::from_ns(1_000));
        // p50 lands in bucket 3 ([4, 8)): upper edge 8, clamped to max.
        assert_eq!(h.percentile(0.5), Nanos::from_ns(8));
        assert_eq!(Log2Histogram::new(4).percentile(0.5), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn log2_histogram_rejects_zero_buckets() {
        let _ = Log2Histogram::new(0);
    }
}

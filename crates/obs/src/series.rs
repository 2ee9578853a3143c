//! Windowed time-series of busy time over whole-machine quantities (bus
//! utilization, per-processor useful/stall fractions).

use vmp_types::Nanos;

/// Hard cap on the number of windows a series will materialize; beyond
/// it, amounts accumulate into [`TimeSeries::clipped`] instead of
/// growing the vector without bound.
pub const MAX_WINDOWS: usize = 1 << 20;

/// Accumulates nanoseconds of some activity into fixed-width windows of
/// simulated time.
///
/// Amounts are attributed to the window containing the timestamp they
/// are reported at; a contribution spanning a window boundary is not
/// split (callers report deltas at event-delivery times, so the error
/// is bounded by one event's span — see DESIGN.md §9).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    width: Nanos,
    totals: Vec<Nanos>,
    clipped: Nanos,
}

impl TimeSeries {
    /// Creates an empty series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: Nanos) -> Self {
        assert!(width > Nanos::ZERO, "window width must be non-zero");
        TimeSeries { width, totals: Vec::new(), clipped: Nanos::ZERO }
    }

    /// Adds `amount` of activity to the window containing `at`.
    pub fn add(&mut self, at: Nanos, amount: Nanos) {
        if amount == Nanos::ZERO {
            return;
        }
        let idx = (at.as_ns() / self.width.as_ns()) as usize;
        if idx >= MAX_WINDOWS {
            self.clipped += amount;
            return;
        }
        if idx >= self.totals.len() {
            self.totals.resize(idx + 1, Nanos::ZERO);
        }
        self.totals[idx] += amount;
    }

    /// Window width.
    pub fn width(&self) -> Nanos {
        self.width
    }

    /// Number of materialized windows (up to the last one touched).
    pub fn windows(&self) -> usize {
        self.totals.len()
    }

    /// Total activity attributed to window `i` (zero past the end).
    pub fn total(&self, i: usize) -> Nanos {
        self.totals.get(i).copied().unwrap_or(Nanos::ZERO)
    }

    /// Activity attributed past [`MAX_WINDOWS`] (not silently lost).
    pub fn clipped(&self) -> Nanos {
        self.clipped
    }

    /// Activity in window `i` as a fraction of the window width. May
    /// exceed 1.0 when boundary smearing attributes a span that started
    /// in the previous window.
    pub fn fraction(&self, i: usize) -> f64 {
        self.total(i).as_ns() as f64 / self.width.as_ns() as f64
    }

    /// All window fractions.
    pub fn fractions(&self) -> Vec<f64> {
        (0..self.totals.len()).map(|i| self.fraction(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_by_window() {
        let mut s = TimeSeries::new(Nanos::from_us(1));
        s.add(Nanos::from_ns(100), Nanos::from_ns(500));
        s.add(Nanos::from_ns(900), Nanos::from_ns(250));
        s.add(Nanos::from_us(2), Nanos::from_ns(100));
        assert_eq!(s.windows(), 3);
        assert_eq!(s.total(0), Nanos::from_ns(750));
        assert_eq!(s.total(1), Nanos::ZERO);
        assert_eq!(s.total(2), Nanos::from_ns(100));
        assert_eq!(s.total(99), Nanos::ZERO);
        assert!((s.fraction(0) - 0.75).abs() < 1e-12);
        assert_eq!(s.fractions().len(), 3);
        assert_eq!(s.clipped(), Nanos::ZERO);
    }

    #[test]
    fn zero_amounts_do_not_materialize_windows() {
        let mut s = TimeSeries::new(Nanos::from_us(1));
        s.add(Nanos::from_ms(500), Nanos::ZERO);
        assert_eq!(s.windows(), 0);
    }

    #[test]
    fn far_future_clips_instead_of_allocating() {
        let mut s = TimeSeries::new(Nanos::from_ns(1));
        s.add(Nanos::from_ms(100), Nanos::from_ns(42)); // window 10^8 > MAX_WINDOWS
        assert_eq!(s.windows(), 0);
        assert_eq!(s.clipped(), Nanos::from_ns(42));
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn rejects_zero_width() {
        let _ = TimeSeries::new(Nanos::ZERO);
    }
}

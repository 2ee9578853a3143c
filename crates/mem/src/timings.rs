//! Sequential-access memory timing.

use vmp_types::{Nanos, PageSize};

/// Block-transfer timing parameters of the main memory boards and bus.
///
/// The paper's prototype numbers: the first access to a memory board
/// takes 300 ns, each subsequent sequential longword less than 100 ns
/// (§2, "Sequential Memory Access"), and the VMEbus block-transfer mode
/// strobes successive words without re-arbitrating. These constants give
/// the bus times of Table 1 directly: 3.4/6.6/13.0 µs per page of
/// 128/256/512 bytes.
///
/// # Examples
///
/// ```
/// use vmp_mem::MemTimings;
/// use vmp_types::PageSize;
///
/// let t = MemTimings::default();
/// assert_eq!(t.page_transfer(PageSize::S512).as_micros_f64(), 13.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemTimings {
    /// Latency of the first longword of a transfer.
    pub first_word: Nanos,
    /// Latency of each subsequent sequential longword.
    pub next_word: Nanos,
}

impl Default for MemTimings {
    /// The paper's prototype values: 300 ns first word, 100 ns thereafter.
    fn default() -> Self {
        MemTimings { first_word: Nanos::from_ns(300), next_word: Nanos::from_ns(100) }
    }
}

impl MemTimings {
    /// Time to transfer `longwords` sequential 32-bit words.
    ///
    /// Returns zero for a zero-length transfer.
    pub fn block_transfer(&self, longwords: u64) -> Nanos {
        if longwords == 0 {
            Nanos::ZERO
        } else {
            self.first_word + self.next_word * (longwords - 1)
        }
    }

    /// Time to transfer one full cache page.
    pub fn page_transfer(&self, page: PageSize) -> Nanos {
        self.block_transfer(page.longwords())
    }

    /// Time of a page transfer whose copier failed `failures` times
    /// before succeeding: each failed attempt occupies a full transfer
    /// slot (the copier detects the error only at the end of the block).
    /// `failures` is clamped to [`MAX_TRANSFER_RETRIES`] — the bounded
    /// retry budget of the copier path — so a transfer can never stretch
    /// without limit.
    pub fn page_transfer_with_retries(&self, page: PageSize, failures: u32) -> Nanos {
        let attempts = 1 + failures.min(MAX_TRANSFER_RETRIES);
        self.page_transfer(page) * u64::from(attempts)
    }
}

/// Hard bound on failed copier attempts absorbed per block transfer.
pub const MAX_TRANSFER_RETRIES: u32 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table1_bus_times() {
        let t = MemTimings::default();
        assert_eq!(t.page_transfer(PageSize::S128).as_micros_f64(), 3.4);
        assert_eq!(t.page_transfer(PageSize::S256).as_micros_f64(), 6.6);
        assert_eq!(t.page_transfer(PageSize::S512).as_micros_f64(), 13.0);
    }

    #[test]
    fn zero_transfer_is_free() {
        assert_eq!(MemTimings::default().block_transfer(0), Nanos::ZERO);
        assert_eq!(MemTimings::default().block_transfer(1), Nanos::from_ns(300));
    }

    #[test]
    fn retried_transfers_scale_and_clamp() {
        let t = MemTimings::default();
        let one = t.page_transfer(PageSize::S256);
        assert_eq!(t.page_transfer_with_retries(PageSize::S256, 0), one);
        assert_eq!(t.page_transfer_with_retries(PageSize::S256, 2), one * 3);
        assert_eq!(
            t.page_transfer_with_retries(PageSize::S256, 1_000),
            one * u64::from(MAX_TRANSFER_RETRIES + 1),
            "runaway failure counts clamp to the retry budget"
        );
    }
}

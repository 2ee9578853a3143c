//! Physical frame allocation.

use std::collections::BTreeMap;

use vmp_types::FrameNum;

/// A free-list allocator over the physical cache-page frames of main
/// memory.
///
/// Frames are handed out lowest-first for determinism. The kernel uses
/// this for demand-zero page faults and for page-table backing frames.
///
/// Free frames are kept as runs of consecutive frames (start → length),
/// so a fresh allocator over all of memory is one run, and a checkpoint
/// of the free list is as long as memory is fragmented, not as memory is
/// large.
///
/// # Examples
///
/// ```
/// use vmp_vm::FrameAllocator;
/// use vmp_types::FrameNum;
///
/// let mut a = FrameAllocator::new(4);
/// let f0 = a.alloc().unwrap();
/// assert_eq!(f0, FrameNum::new(0));
/// a.free(f0).unwrap();
/// assert_eq!(a.free_frames(), 4);
/// assert_eq!(a.free_runs().collect::<Vec<_>>(), [(FrameNum::new(0), 4)]);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// Disjoint, non-adjacent, non-empty runs: first frame → length.
    runs: BTreeMap<u64, u64>,
    /// Frames in all runs.
    free: u64,
    total: u64,
}

/// Errors from [`FrameAllocator::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The frame was not allocated (double free or never handed out).
    NotAllocated(FrameNum),
    /// The frame is outside the allocator's range.
    OutOfRange(FrameNum),
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreeError::NotAllocated(fr) => write!(f, "double free of {fr}"),
            FreeError::OutOfRange(fr) => write!(f, "{fr} outside allocator range"),
        }
    }
}

impl std::error::Error for FreeError {}

impl FrameAllocator {
    /// Creates an allocator over frames `0..total`.
    pub fn new(total: u64) -> Self {
        Self::with_reserved(total, 0)
    }

    /// Creates an allocator over frames `first..total`, reserving the
    /// low frames (boot code, device buffers).
    pub fn with_reserved(total: u64, reserved: u64) -> Self {
        let free = total.saturating_sub(reserved);
        let runs = (free > 0).then_some((reserved, free)).into_iter().collect();
        FrameAllocator { runs, free, total }
    }

    /// Allocates the lowest free frame, or `None` when memory is full.
    pub fn alloc(&mut self) -> Option<FrameNum> {
        let (start, len) = self.runs.pop_first()?;
        if len > 1 {
            self.runs.insert(start + 1, len - 1);
        }
        self.free -= 1;
        Some(FrameNum::new(start))
    }

    /// Returns a frame to the free list, merging it with the runs on
    /// either side.
    ///
    /// # Errors
    ///
    /// Returns [`FreeError`] on double free or out-of-range frames.
    pub fn free(&mut self, frame: FrameNum) -> Result<(), FreeError> {
        let f = frame.raw();
        if f >= self.total {
            return Err(FreeError::OutOfRange(frame));
        }
        if self.is_free(frame) {
            return Err(FreeError::NotAllocated(frame));
        }
        let above = self.runs.remove(&(f + 1)).unwrap_or(0);
        let below = self.runs.range(..f).next_back().map(|(&s, &l)| (s, l));
        match below.filter(|&(s, l)| s + l == f) {
            Some((s, l)) => self.runs.insert(s, l + 1 + above),
            None => self.runs.insert(f, 1 + above),
        };
        self.free += 1;
        Ok(())
    }

    /// Number of frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free
    }

    /// Total frames managed (including reserved ones never handed out).
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Whether `frame` is in a free run.
    pub fn is_free(&self, frame: FrameNum) -> bool {
        let f = frame.raw();
        self.runs.range(..=f).next_back().is_some_and(|(&s, &l)| f - s < l)
    }

    /// The free runs as `(first frame, length)`, ascending, for
    /// checkpointing.
    pub fn free_runs(&self) -> impl Iterator<Item = (FrameNum, u64)> + '_ {
        self.runs.iter().map(|(&s, &l)| (FrameNum::new(s), l))
    }

    /// Replaces the free list with captured [`FrameAllocator::free_runs`]
    /// so the lowest-first allocation sequence continues identically.
    /// `total` is unchanged.
    ///
    /// # Errors
    ///
    /// Describes the first run that is empty, ends past the last frame,
    /// or does not start strictly after the previous run's end plus one
    /// (runs must be ascending, disjoint and non-adjacent, as
    /// [`FrameAllocator::free_runs`] yields them). The free list is left
    /// unchanged on error.
    pub fn restore_free_runs(
        &mut self,
        runs: impl IntoIterator<Item = (FrameNum, u64)>,
    ) -> Result<(), String> {
        let (mut restored, mut free, mut next) = (BTreeMap::new(), 0, 0);
        for (i, (start, len)) in runs.into_iter().enumerate() {
            let s = start.raw();
            let end = s.checked_add(len).filter(|&e| e <= self.total);
            let Some(end) = end.filter(|_| len > 0) else {
                return Err(format!(
                    "run {i} ({s}+{len}) is empty or ends past frame {}",
                    self.total
                ));
            };
            if s < next {
                return Err(format!(
                    "run {i} ({s}+{len}) overlaps, touches or precedes the run before it"
                ));
            }
            restored.insert(s, len);
            (free, next) = (free + len, end.saturating_add(1));
        }
        (self.runs, self.free) = (restored, free);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(a: &FrameAllocator) -> Vec<(u64, u64)> {
        a.free_runs().map(|(s, l)| (s.raw(), l)).collect()
    }

    #[test]
    fn allocates_lowest_first() {
        let mut a = FrameAllocator::new(3);
        assert_eq!(a.alloc(), Some(FrameNum::new(0)));
        assert_eq!(a.alloc(), Some(FrameNum::new(1)));
        assert_eq!(a.alloc(), Some(FrameNum::new(2)));
        assert_eq!(a.alloc(), None);
        assert_eq!(runs(&a), []);
    }

    #[test]
    fn free_and_realloc() {
        let mut a = FrameAllocator::new(2);
        let f0 = a.alloc().unwrap();
        let _f1 = a.alloc().unwrap();
        a.free(f0).unwrap();
        assert_eq!(a.alloc(), Some(f0));
    }

    #[test]
    fn double_free_rejected() {
        let mut a = FrameAllocator::new(2);
        let f = a.alloc().unwrap();
        a.free(f).unwrap();
        assert_eq!(a.free(f), Err(FreeError::NotAllocated(f)));
        assert_eq!(a.free(FrameNum::new(1)), Err(FreeError::NotAllocated(FrameNum::new(1))));
        assert_eq!(a.free(FrameNum::new(99)), Err(FreeError::OutOfRange(FrameNum::new(99))));
    }

    #[test]
    fn reserved_frames_not_allocated() {
        let mut a = FrameAllocator::with_reserved(8, 4);
        assert_eq!(a.alloc(), Some(FrameNum::new(4)));
        assert_eq!(a.free_frames(), 3);
        assert_eq!(a.total_frames(), 8);
        // Reserved frames can still be explicitly freed into the pool.
        a.free(FrameNum::new(0)).unwrap();
        assert_eq!(a.alloc(), Some(FrameNum::new(0)));
        assert_eq!(FrameAllocator::with_reserved(4, 9).free_frames(), 0);
    }

    #[test]
    fn frees_merge_with_their_neighbours() {
        let mut a = FrameAllocator::new(8);
        (0..8).for_each(|_| _ = a.alloc());
        for f in [1, 5, 3, 2, 6, 7, 4] {
            a.free(FrameNum::new(f)).unwrap();
        }
        assert_eq!(runs(&a), [(1, 7)]);
        a.free(FrameNum::new(0)).unwrap();
        assert_eq!(runs(&a), [(0, 8)]);
        assert_eq!(a.free_frames(), 8);
    }

    #[test]
    fn restore_checks_every_run() {
        let mut a = FrameAllocator::new(16);
        let r = |list: &[(u64, u64)]| {
            list.iter().map(|&(s, l)| (FrameNum::new(s), l)).collect::<Vec<_>>()
        };
        a.restore_free_runs(r(&[(0, 2), (4, 3), (15, 1)])).unwrap();
        assert_eq!(a.free_frames(), 6);
        assert_eq!(a.alloc(), Some(FrameNum::new(0)));
        for bad in [
            &[(0, 0)][..],
            &[(15, 2)],
            &[(1, u64::MAX)],
            &[(4, 2), (0, 1)],
            &[(0, 4), (2, 1)],
            &[(0, 4), (4, 1)],
        ] {
            assert!(a.restore_free_runs(r(bad)).is_err(), "{bad:?}");
        }
        assert_eq!(runs(&a), [(1, 1), (4, 3), (15, 1)], "a rejected restore changes nothing");
    }

    #[test]
    fn error_display() {
        assert!(FreeError::NotAllocated(FrameNum::new(1)).to_string().contains("double free"));
        assert!(FreeError::OutOfRange(FrameNum::new(1)).to_string().contains("range"));
    }
}

//! Host settings that keep one run comparable with the next.
//!
//! glibc's allocator moves its mmap and trim thresholds as a process
//! frees large blocks, so two runs of the same work can hold 10 or 13 MB
//! resident depending on the order of frees. Fixed thresholds make the
//! peak resident set a property of the work alone.

use std::os::raw::c_int;

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// Keeps freed memory in the heap: every block below 1 GiB comes from
/// the heap, and the heap is never trimmed. Call before allocating.
pub fn fix_allocator() {
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    for param in [M_TRIM_THRESHOLD, M_MMAP_THRESHOLD] {
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own tuning state; it is called before any thread
        // is spawned.
        unsafe {
            mallopt(param, 1 << 30);
        }
    }
}

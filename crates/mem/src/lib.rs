//! Memory subsystems of the VMP machine: shared main memory and the
//! block copier's transfer timing.
//!
//! The paper's main memory is optimized for sequential access with
//! static-column RAM: the first access costs 300 ns, each subsequent
//! sequential longword under 100 ns, giving the block copier its
//! 40 MB/s transfer rate (§2, §4). Local memory holds the cache-miss
//! handler's code and data so the handler itself can never miss (§2);
//! the machine charges handler time directly instead of modelling it.
//!
//! # Examples
//!
//! ```
//! use vmp_mem::{MainMemory, MemTimings};
//! use vmp_types::{FrameNum, PageSize};
//!
//! let mut mem = MainMemory::new(PageSize::S256, 64 * 1024);
//! mem.write(FrameNum::new(2), 8, &[1, 2, 3, 4]);
//! assert_eq!(mem.read(FrameNum::new(2), 8, 4), &[1, 2, 3, 4]);
//! // One 256-byte page = 64 longwords: 300 + 63·100 ns = 6.6 µs.
//! assert_eq!(MemTimings::default().block_transfer(64).as_micros_f64(), 6.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod main_memory;
mod timings;

pub use main_memory::MainMemory;
pub use timings::{MemTimings, MAX_TRANSFER_RETRIES};

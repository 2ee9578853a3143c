//! The VMP per-processor cache: virtually addressed, N-way set
//! associative, with unusually large cache pages.
//!
//! The cache matches on ⟨ASID, virtual address⟩ so it never needs flushing
//! on context switch, uses LRU replacement with a hardware-*suggested*
//! victim slot, and keeps per-slot flags — valid, modified,
//! exclusive-ownership, supervisor-writable, user-readable, user-writable
//! (paper §4). The prototype's configuration space is 128/256/512-byte
//! pages, 1–4 ways, 16–256 pages per set; the simulator accepts any
//! power-of-two geometry.
//!
//! Two cache front-ends share the tag machinery:
//!
//! * [`TagCache`] — tags only, for fast trace-driven miss-ratio studies
//!   (Figure 4 of the paper);
//! * [`DataCache`] — byte-accurate contents, for the full machine model in
//!   `vmp-core`, where cached data must flow through block transfers and
//!   the consistency protocol.
//!
//! # Examples
//!
//! ```
//! use vmp_cache::{CacheConfig, TagCache};
//! use vmp_trace::MemRef;
//! use vmp_types::{Asid, PageSize, VirtAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CacheConfig::new(PageSize::S256, 4, 128 * 1024)?;
//! let mut cache = TagCache::new(config);
//! let r = MemRef::read(Asid::new(1), VirtAddr::new(0x1000));
//! assert!(!cache.access(r).is_hit()); // cold miss
//! assert!(cache.access(r).is_hit()); // now resident
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod config;
mod data_cache;
mod flags;
mod sim_stats;
mod tag_array;
mod tag_cache;

pub use classify::{classify_misses, ThreeC};
pub use config::CacheConfig;
pub use data_cache::DataCache;
pub use flags::SlotFlags;
pub use sim_stats::CacheSimStats;
pub use tag_array::{SlotId, Tag, TagArray, Victim};
pub use tag_cache::{AccessOutcome, TagCache};

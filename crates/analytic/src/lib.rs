//! Closed-form performance models from §5 of the VMP paper.
//!
//! Every constant is taken from the paper: a 16 MHz 68020 at 2.4 MIPS
//! (per MacGregor), ≈1.2 memory references per instruction, 300 ns +
//! 100 ns/longword block transfers, and a software miss handler of
//! ≈13.6 µs split into phases that partially overlap the block copier.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 — per-miss elapsed/bus time | [`MissCostModel::elapsed`], [`MissCostModel::bus_time`] |
//! | Table 2 — average miss cost (75 % clean) | [`MissCostModel::average`] |
//! | Figure 3 — performance vs. miss ratio | [`processor_performance`] |
//! | Figure 5 — bus utilization vs. miss ratio | [`bus_utilization`] |
//! | §5.3 — how many processors fit on one bus | [`mva`] |
//!
//! # Examples
//!
//! ```
//! use vmp_analytic::{MissCostModel, ProcessorModel, processor_performance};
//! use vmp_types::PageSize;
//!
//! let model = MissCostModel::paper(PageSize::S256);
//! let avg = model.average(0.75);
//! // Paper's running example: 0.24 % miss ratio → ≈87 % performance.
//! let perf = processor_performance(0.0024, avg.elapsed, &ProcessorModel::default());
//! assert!((perf - 0.87).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus_util;
mod miss_cost;
mod performance;
mod queueing;
mod sharing;
mod table;

pub use bus_util::bus_utilization;
pub use miss_cost::{AverageMissCost, MissCostModel};
pub use performance::{processor_performance, ProcessorModel};
pub use queueing::{max_processors, mva, MvaResult};
pub use sharing::{MigrationCost, MigratorySharing};
pub use table::render_table;

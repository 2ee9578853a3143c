//! The full VMP machine model — the paper's primary contribution.
//!
//! A [`Machine`] is a set of processor boards (68020-class CPU +
//! virtually-addressed [`vmp_cache::DataCache`] + local memory + block
//! copier + [`vmp_bus::BusMonitor`]) on one shared VMEbus with common
//! main memory. Cache misses are handled in *software*: the processor
//! traps, saves state in local memory, walks the page tables (possibly
//! missing recursively on PTE pages), writes back the victim, directs the
//! block copier, and retries — with the phase timings of §5.1. The
//! two-state shared/private ownership protocol of §3 is enforced entirely
//! by the bus monitors' action tables plus the consistency-interrupt
//! service routine modelled here.
//!
//! Programs drive the processors through the [`Program`] trait: trace
//! playback ([`TraceProgram`]), scripted operation lists
//! ([`ScriptProgram`]), or the synchronization workloads of §5.4
//! ([`workloads`]); [`scenarios`] names the small machines the tests and
//! tools build from them. DMA devices ([`DmaDevice`]) transfer through plain
//! bus transactions under assert-ownership protection, exactly as §3.3
//! prescribes.
//!
//! # Examples
//!
//! ```
//! use vmp_core::{Machine, MachineConfig, Op, ScriptProgram};
//! use vmp_types::VirtAddr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::build(MachineConfig::small())?;
//! machine.set_program(
//!     0,
//!     ScriptProgram::new(vec![
//!         Op::Write(VirtAddr::new(0x1000), 42),
//!         Op::Read(VirtAddr::new(0x1000)),
//!         Op::Halt,
//!     ]),
//! )?;
//! let report = machine.run()?;
//! assert_eq!(report.processors[0].misses(), 1); // one page fetch
//! machine.validate().expect("protocol invariants hold");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod codec;
mod config;
mod dma;
mod error;
mod kernel;
mod machine;
mod phys_index;
mod program;
pub mod scenarios;
mod snapshot;
mod stats;
mod validate;
pub mod workloads;

pub use config::{CpuTimings, MachineBuilder, MachineConfig, WatchdogConfig};
pub use dma::{DmaDevice, DmaDirection, DmaRequest};
pub use error::{MachineError, WatchdogViolation};
pub use kernel::Kernel;
pub use machine::Machine;
pub use phys_index::PhysIndex;
pub use program::{sweep_refs, Op, OpResult, Program, ScriptProgram, TraceProgram};
pub use snapshot::MachineSnapshot;
pub use stats::{FaultStats, MachineReport, ProcessorStats};
pub use vmp_obs::{MachineObs, ObsConfig};

//! Structured event tracing, latency histograms and timeline export
//! for the VMP machine model.
//!
//! The paper's evaluation (§5) is entirely about *where time goes* —
//! miss-handling stalls, consistency interrupts, bus contention. This
//! crate records those moments as structured events with [`Nanos`]
//! timestamps and derives the distributions the §5 cost model prices:
//!
//! * [`MachineObs`] — one bounded [`EventRing`] per processor plus one
//!   for the bus, three [`vmp_sim::Log2Histogram`]s (miss service time,
//!   interrupt service latency, bus arbitration wait), and windowed
//!   [`TimeSeries`] of bus utilization and per-processor efficiency;
//! * [`chrome_trace`] — a Chrome trace-event document (Perfetto-viewable
//!   timeline, one track per processor + one for the bus);
//! * [`metrics_json`] — a machine-readable metrics report;
//! * [`AttribTable`] — per-⟨ASID, page⟩ contention attribution: who
//!   generates the ownership traffic, with ping-pong episode detection
//!   and a true- vs. false-sharing verdict per page (the §5.4 failure
//!   mode, made visible);
//! * [`compare`] — a cross-run metrics diff with relative thresholds,
//!   the gate behind `vmp-trace-tool compare`;
//! * [`json`] — the std-only JSON writer/parser the exporters use.
//!
//! **One entry point.** The machine reports each of its chokepoints
//! (bus transaction, miss, interrupt service, fault, word touch, ...)
//! as one [`Probe`]; [`MachineObs::record`] alone decides which ring,
//! histogram and attribution counter a report feeds.
//!
//! **Overhead guarantee.** The recorder is allocated only when
//! [`ObsConfig::enabled`] is set; the machine's one probe helper
//! reduces to a branch on an `Option` otherwise, and recording never
//! feeds back into simulation state, so enabled and disabled runs are
//! bit-identical in everything but the recording.
//!
//! [`Nanos`]: vmp_types::Nanos
//! [`ObsConfig::enabled`]: crate::ObsConfig#structfield.enabled
//!
//! # Examples
//!
//! ```
//! use vmp_obs::{EventKind, MachineObs, MissCause, ObsConfig, Probe};
//! use vmp_types::{Asid, Nanos, VirtPageNum};
//!
//! let mut obs = MachineObs::new(&ObsConfig::on(), 1);
//! let cause = MissCause::Read;
//! obs.record(Probe::Cpu(0, Nanos::from_us(10), EventKind::MissBegin { cause }));
//! obs.record(Probe::Served {
//!     cpu: 0,
//!     at: Nanos::from_us(27),
//!     cause,
//!     asid: Asid::new(1),
//!     vpn: VirtPageNum::new(4),
//!     dur: Nanos::from_us(17),
//! });
//!
//! let trace = vmp_obs::chrome_trace(&obs).to_string();
//! assert!(trace.contains("\"traceEvents\""));
//! let metrics = vmp_obs::metrics_json(&obs, Nanos::from_us(30)).to_string();
//! let doc = vmp_obs::json::parse(&metrics).unwrap();
//! assert_eq!(
//!     doc.get("histograms").unwrap().get("miss_service_ns").unwrap().get("count").unwrap().as_u64(),
//!     Some(1),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrib;
mod chrome;
pub mod compare;
mod event;
pub mod json;
mod metrics;
mod recorder;
mod series;

pub use attrib::{
    attrib_json, AttribSummary, AttribTable, PageKey, PageStats, SharingVerdict, Transfer, TxClass,
    GRANULES,
};
pub use chrome::chrome_trace;
pub use compare::{compare_metrics, CompareOutcome, CompareThresholds};
pub use event::{CpuClocks, Event, EventKind, MissCause, Probe};
pub use metrics::{histogram_json, metrics_json};
pub use recorder::{EventRing, MachineObs, ObsConfig};
pub use series::{TimeSeries, MAX_WINDOWS};

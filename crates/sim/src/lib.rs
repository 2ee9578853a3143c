//! Deterministic discrete-event simulation engine for the VMP machine model.
//!
//! The engine is deliberately minimal: a time-ordered, insertion-stable
//! [`EventQueue`] plus statistics utilities ([`BusyTracker`], [`Log2Histogram`]).
//! The machine model in `vmp-core` defines its own event enum and owns all
//! component state, which keeps the borrow structure simple and the
//! simulation perfectly reproducible: identical inputs and seeds produce
//! identical event orders.
//!
//! # Examples
//!
//! ```
//! use vmp_sim::EventQueue;
//! use vmp_types::Nanos;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Nanos::from_ns(30), "late");
//! q.schedule(Nanos::from_ns(10), "early");
//! q.schedule(Nanos::from_ns(10), "early-second"); // FIFO among equal times
//!
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_ns(), e), (10, "early"));
//! let (_, e) = q.pop().unwrap();
//! assert_eq!(e, "early-second");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod queue;
mod stats;

pub use attention::AttentionClock;
pub use queue::EventQueue;
pub use stats::{BusyTracker, Log2Histogram};

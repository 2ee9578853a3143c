//! The structured event taxonomy recorded by the machine.
//!
//! Events are small, `Copy`, and carry only what the timeline and the
//! derived metrics need: recording one is a ring-buffer push, never an
//! allocation. Per-processor tracks hold the software side of the
//! protocol (miss handling, interrupt service, recovery); the bus track
//! holds every transaction that won arbitration, plus DMA copier
//! transfers and injected faults. The machine reports them as
//! [`Probe`]s.

use vmp_bus::{BusTxKind, FaultClass};
use vmp_types::{Asid, FrameNum, Nanos, PageSize, ProcessorId, VirtAddr, VirtPageNum};

/// Why a processor entered the miss path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissCause {
    /// Read miss: the page was absent from the cache.
    Read,
    /// Write miss: the page was absent and is needed private.
    Write,
    /// Write to a shared page: ownership upgrade, no transfer.
    Upgrade,
    /// Nested miss on a page-table page during translation.
    Pte,
    /// Kernel-initiated fetch (mapping changes, sweeps, reclamation).
    Kernel,
}

impl MissCause {
    /// Stable lower-case label for trace names and JSON keys.
    pub const fn label(self) -> &'static str {
        match self {
            MissCause::Read => "read",
            MissCause::Write => "write",
            MissCause::Upgrade => "upgrade",
            MissCause::Pte => "pte",
            MissCause::Kernel => "kernel",
        }
    }
}

/// One kind of recorded event.
///
/// `MissBegin`/`MissEnd` and `IrqBegin`/`IrqEnd` are span delimiters:
/// on any single track they nest like brackets (a nested `Pte` miss
/// sits wholly inside its enclosing miss). Everything else is either
/// an instant or carries its own duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A processor entered the software miss handler.
    MissBegin {
        /// Why the handler was entered.
        cause: MissCause,
    },
    /// The handler returned — successfully, or giving up this attempt
    /// because the bus transaction was aborted (`completed == false`;
    /// a retry follows).
    MissEnd {
        /// The cause of the matching [`EventKind::MissBegin`].
        cause: MissCause,
        /// Whether the page was actually loaded/upgraded.
        completed: bool,
    },
    /// A dirty victim page was written back to memory.
    WriteBack {
        /// The frame written back.
        frame: FrameNum,
    },
    /// An aborted transaction was rescheduled after backoff.
    Retry {
        /// Consecutive aborts seen by this processor so far.
        streak: u32,
    },
    /// The consistency-interrupt handler started draining the FIFO.
    IrqBegin {
        /// Words pending when service began.
        pending: u32,
        /// How long the oldest unserviced word had waited, if the
        /// board's attention clock was running (kept for the
        /// interrupt-latency histogram; the timeline does not show it).
        waited: Option<Nanos>,
    },
    /// The consistency-interrupt handler finished.
    IrqEnd {
        /// Words actually serviced (stale words are discarded unread).
        serviced: u32,
    },
    /// The monitor's FIFO overflowed (a word was lost; sticky flag set).
    FifoOverflow,
    /// Software ran the §3.3 overflow-recovery scan.
    FifoRecovery {
        /// Time the scan took.
        dur: Nanos,
        /// Cache slots scanned.
        scanned: u32,
    },
    /// A transaction occupied the bus (or aborted in its address phase).
    BusTx {
        /// Transaction kind.
        kind: BusTxKind,
        /// Frame addressed.
        frame: FrameNum,
        /// Issuing processor or DMA pseudo-processor.
        issuer: ProcessorId,
        /// Ready-to-grant wait (arbitration plus queueing).
        wait: Nanos,
        /// Bus occupancy.
        dur: Nanos,
        /// Whether a monitor (or fault hook) aborted it.
        aborted: bool,
    },
    /// A DMA block-copier transfer occupied the bus.
    Copier {
        /// Frame transferred.
        frame: FrameNum,
        /// The DMA engine's pseudo-processor id.
        issuer: ProcessorId,
        /// Ready-to-grant wait (kept for the arbitration-wait histogram;
        /// the timeline does not show it).
        wait: Nanos,
        /// Bus occupancy of the transfer.
        dur: Nanos,
        /// Direction: `true` when writing into memory.
        write: bool,
    },
    /// A fault hook perturbed the machine here.
    Fault {
        /// Which injection point fired.
        class: FaultClass,
    },
}

/// One recorded event: a timestamp plus its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time the event happened (span begins use the span's
    /// start; `BusTx`/`Copier` use the granted bus slot's start).
    pub at: Nanos,
    /// What happened.
    pub kind: EventKind,
}

/// What the machine reports at one of its chokepoints.
///
/// The machine only says what happened;
/// [`MachineObs::record`](crate::MachineObs::record) decides which ring,
/// histogram and attribution counter each report feeds. Most reports
/// are a ring [`EventKind`] on a track, because the event already
/// carries what the derived metrics read: a `BusTx` has the wait the
/// arbitration histogram records and the frame, issuer and end
/// (`at + dur`) attribution accounts. The other variants carry context
/// the ring does not keep.
#[derive(Debug, Clone, Copy)]
pub enum Probe<'a> {
    /// `Cpu(cpu, at, kind)`: event `kind` at `at` on processor `cpu`'s
    /// track.
    Cpu(usize, Nanos, EventKind),
    /// `Bus(at, kind)`: event `kind` at `at` on the bus track.
    Bus(Nanos, EventKind),
    /// A miss or upgrade of ⟨`asid`, `vpn`⟩ completed: a completed
    /// [`EventKind::MissEnd`] plus the page and the service time.
    Served {
        /// The processor.
        cpu: usize,
        /// When the handler returned.
        at: Nanos,
        /// Why the handler was entered.
        cause: MissCause,
        /// Address space of the page served.
        asid: Asid,
        /// Virtual page served.
        vpn: VirtPageNum,
        /// Time since the handler was entered.
        dur: Nanos,
    },
    /// Processor `cpu` read or wrote the word at `va` in address space
    /// `asid`, on `page`-sized cache pages.
    Touch {
        /// The processor.
        cpu: usize,
        /// Address space of the access.
        asid: Asid,
        /// Address accessed.
        va: VirtAddr,
        /// The cache-page size.
        page: PageSize,
        /// Whether the access wrote the word.
        write: bool,
    },
    /// `Mapped(frame, asid, vpn)`: `frame` now backs ⟨`asid`, `vpn`⟩.
    Mapped(FrameNum, Asid, VirtPageNum),
    /// The sample after every delivered event: the bus's and every
    /// processor's cumulative time so far.
    Sample {
        /// Simulated time of the sample.
        now: Nanos,
        /// The bus's cumulative busy time.
        bus_busy: Nanos,
        /// Every processor's cumulative useful and stall time.
        cpus: &'a dyn CpuClocks,
    },
}

/// Every processor's cumulative useful and stall time, which
/// [`Probe::Sample`] reads.
pub trait CpuClocks {
    /// Processor `cpu`'s cumulative `(useful, stall)` time.
    fn clocks(&self, cpu: usize) -> (Nanos, Nanos);
}

impl std::fmt::Debug for dyn CpuClocks + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CpuClocks")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed clocks for tests that feed samples by hand.
    impl<const N: usize> CpuClocks for [(Nanos, Nanos); N] {
        fn clocks(&self, cpu: usize) -> (Nanos, Nanos) {
            self[cpu]
        }
    }

    #[test]
    fn cause_labels_are_distinct() {
        let all = [
            MissCause::Read,
            MissCause::Write,
            MissCause::Upgrade,
            MissCause::Pte,
            MissCause::Kernel,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn events_are_small() {
        // Recording must stay a cheap ring push; keep the event compact.
        assert_eq!(std::mem::size_of::<Event>(), 48);
    }
}

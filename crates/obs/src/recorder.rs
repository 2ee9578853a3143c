//! The event recorder: per-track ring buffers plus derived metrics.

use std::collections::VecDeque;

use vmp_bus::FaultClass;
use vmp_sim::Log2Histogram;
use vmp_types::Nanos;

use crate::attrib::AttribTable;
use crate::event::{CpuClocks, Event, EventKind, MissCause, Probe};
use crate::series::TimeSeries;

/// Observability configuration, carried inside the machine config.
///
/// With `enabled == false` (the default) the machine allocates no
/// recorder at all and its one probe helper reduces to a branch on a
/// `None` option — runs are bit-identical to a build without the
/// observability layer, because recording only ever *reads* simulator
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether to record events and derived metrics at all.
    pub enabled: bool,
    /// Capacity of each track's event ring (one ring per processor plus
    /// one for the bus). When a ring is full the *oldest* event is
    /// overwritten and the track's drop counter increments — a wrapped
    /// ring keeps the newest events, which is what a failing run's
    /// timeline needs.
    pub ring_capacity: usize,
    /// Number of log2 buckets in each latency histogram (1..=65;
    /// 40 covers up to ~9 simulated minutes).
    pub histogram_buckets: usize,
    /// Window width for the bus-utilization and per-processor
    /// efficiency time-series.
    pub window: Nanos,
    /// Whether to also build the per-page contention attribution table
    /// ([`AttribTable`]). Off by default: attribution costs a map
    /// lookup per tracked bus transaction and per word access.
    pub attrib: bool,
    /// Ping-pong window: consecutive ownership transfers of a page at
    /// most this far apart chain into one episode.
    pub attrib_window: Nanos,
    /// Per-page ownership-transfer history ring capacity.
    pub attrib_ring: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 65_536,
            histogram_buckets: 40,
            window: Nanos::from_ms(1),
            attrib: false,
            attrib_window: Nanos::from_us(250),
            attrib_ring: 16,
        }
    }
}

impl ObsConfig {
    /// The default configuration with recording switched on.
    pub fn on() -> Self {
        ObsConfig { enabled: true, ..ObsConfig::default() }
    }

    /// Recording *and* contention attribution switched on.
    pub fn with_attrib() -> Self {
        ObsConfig { attrib: true, ..ObsConfig::on() }
    }

    /// Validates the parameters (used by the machine config's `check`).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.ring_capacity == 0 {
            return Err("obs ring capacity must be non-zero".into());
        }
        if self.histogram_buckets == 0 || self.histogram_buckets > 65 {
            return Err("obs histogram buckets must be in 1..=65".into());
        }
        if self.window == Nanos::ZERO {
            return Err("obs window must be non-zero".into());
        }
        if self.attrib && self.attrib_window == Nanos::ZERO {
            return Err("obs attribution window must be non-zero".into());
        }
        Ok(())
    }
}

/// A bounded event ring that keeps the newest `capacity` events and
/// counts — never hides — what it had to discard.
#[derive(Debug, Clone)]
pub struct EventRing {
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        EventRing { cap: capacity, events: VecDeque::with_capacity(capacity.min(1024)), dropped: 0 }
    }

    /// Appends an event, evicting the oldest one when full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring wrapped. The total ever
    /// recorded is `len() + dropped()`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[derive(Debug, Clone)]
struct CpuTrack {
    ring: EventRing,
    useful: TimeSeries,
    stall: TimeSeries,
    last_useful: Nanos,
    last_stall: Nanos,
}

/// All observability state for one machine: a ring per processor, a
/// ring for the bus, three latency histograms, and the windowed series.
///
/// The machine owns one of these (boxed, behind an `Option` so the
/// disabled path is a single branch) and feeds it [`Probe`]s through
/// [`MachineObs::record`]; exporters read it.
#[derive(Debug, Clone)]
pub struct MachineObs {
    /// Service time of completed top-level misses and upgrades (the
    /// stall the paper's §5 cost model prices at 17–36 µs).
    pub miss_service: Log2Histogram,
    /// Latency from an interrupt word being queued to its service
    /// beginning (the "prompt service" the consistency protocol needs).
    pub irq_latency: Log2Histogram,
    /// Ready-to-grant bus waits (arbitration plus queueing), per
    /// reservation.
    pub arb_wait: Log2Histogram,
    cpus: Vec<CpuTrack>,
    bus_ring: EventRing,
    bus_busy: TimeSeries,
    last_bus_busy: Nanos,
    window: Nanos,
    attrib: Option<Box<AttribTable>>,
}

impl MachineObs {
    /// Creates the recorder for `processors` CPU tracks.
    pub fn new(config: &ObsConfig, processors: usize) -> Self {
        let track = || CpuTrack {
            ring: EventRing::new(config.ring_capacity),
            useful: TimeSeries::new(config.window),
            stall: TimeSeries::new(config.window),
            last_useful: Nanos::ZERO,
            last_stall: Nanos::ZERO,
        };
        MachineObs {
            miss_service: Log2Histogram::new(config.histogram_buckets),
            irq_latency: Log2Histogram::new(config.histogram_buckets),
            arb_wait: Log2Histogram::new(config.histogram_buckets),
            cpus: (0..processors).map(|_| track()).collect(),
            bus_ring: EventRing::new(config.ring_capacity),
            bus_busy: TimeSeries::new(config.window),
            last_bus_busy: Nanos::ZERO,
            window: config.window,
            attrib: config.attrib.then(|| {
                Box::new(AttribTable::new(config.attrib_window, config.attrib_ring, processors))
            }),
        }
    }

    /// The contention attribution table, when enabled.
    pub fn attrib(&self) -> Option<&AttribTable> {
        self.attrib.as_deref()
    }

    /// Number of processor tracks.
    pub fn processors(&self) -> usize {
        self.cpus.len()
    }

    /// Window width of the time-series.
    pub fn window(&self) -> Nanos {
        self.window
    }

    /// Records one report from the machine: pushes its ring events and
    /// feeds every derived metric it implies.
    ///
    /// Always inlined: each call site reports one known variant, so the
    /// match folds to the one arm that site feeds.
    #[inline(always)]
    pub fn record(&mut self, probe: Probe<'_>) {
        match probe {
            Probe::Cpu(cpu, at, kind) => {
                self.cpus[cpu].ring.push(Event { at, kind });
                match kind {
                    EventKind::IrqBegin { waited: Some(waited), .. } => {
                        self.irq_latency.record(waited);
                    }
                    // An injected drop or forced overflow raises the
                    // sticky flag exactly as a real overflow does.
                    EventKind::Fault {
                        class: FaultClass::DroppedWord | FaultClass::ForcedOverflow,
                    } => self.cpus[cpu].ring.push(Event { at, kind: EventKind::FifoOverflow }),
                    _ => {}
                }
            }
            Probe::Bus(at, kind) => {
                self.bus_ring.push(Event { at, kind });
                match kind {
                    EventKind::BusTx { kind, frame, issuer, wait, dur, aborted } => {
                        // An aborted transaction never waited for a slot.
                        if !aborted {
                            self.arb_wait.record(wait);
                        }
                        // Every tracked kind flows through here, so the
                        // table's per-class totals match the bus's own.
                        if let Some(a) = self.attrib.as_deref_mut() {
                            a.record_tx(frame, issuer.index(), kind, aborted, at + dur);
                        }
                    }
                    EventKind::Copier { wait, .. } => self.arb_wait.record(wait),
                    _ => {}
                }
            }
            Probe::Served { cpu, at, cause, asid, vpn, dur } => {
                let kind = EventKind::MissEnd { cause, completed: true };
                self.cpus[cpu].ring.push(Event { at, kind });
                // A nested PTE miss is part of its enclosing miss's
                // service, which is timed (and attributed) once.
                if cause != MissCause::Pte {
                    self.miss_service.record(dur);
                    if let Some(a) = self.attrib.as_deref_mut() {
                        a.record_service(asid, vpn, dur);
                    }
                }
            }
            Probe::Touch { cpu, asid, va, page, write } => {
                if let Some(a) = self.attrib.as_deref_mut() {
                    let offset = (page.offset_of(va.raw()) & !3) as u32;
                    a.record_touch(asid, page.vpn_of(va), cpu, offset, page.bytes() as u32, write);
                }
            }
            Probe::Mapped(frame, asid, vpn) => {
                if let Some(a) = self.attrib.as_deref_mut() {
                    a.map_frame(frame, asid, vpn);
                }
            }
            // Deltas since the last sample land in the window containing
            // `now`.
            Probe::Sample { now, bus_busy, cpus } => {
                self.bus_busy.add(now, bus_busy.saturating_sub(self.last_bus_busy));
                self.last_bus_busy = bus_busy;
                for (cpu, t) in self.cpus.iter_mut().enumerate() {
                    let (useful, stall) = cpus.clocks(cpu);
                    t.useful.add(now, useful.saturating_sub(t.last_useful));
                    t.stall.add(now, stall.saturating_sub(t.last_stall));
                    t.last_useful = useful;
                    t.last_stall = stall;
                }
            }
        }
    }

    /// Takes the bus's busy time and every processor's clocks as the
    /// baseline the next [`Probe::Sample`] measures its deltas from. A
    /// recorder attached to a machine that has already run (a resumed
    /// snapshot) needs it: the time before the cut belongs to windows
    /// this recorder never saw, not to its first one.
    pub fn baseline(&mut self, bus_busy: Nanos, cpus: &dyn CpuClocks) {
        self.last_bus_busy = bus_busy;
        for (cpu, t) in self.cpus.iter_mut().enumerate() {
            (t.last_useful, t.last_stall) = cpus.clocks(cpu);
        }
    }

    /// Events held on a processor track, oldest first.
    pub fn cpu_events(&self, cpu: usize) -> impl Iterator<Item = &Event> + '_ {
        self.cpus[cpu].ring.iter()
    }

    /// Events held on the bus track, oldest first.
    pub fn bus_events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.bus_ring.iter()
    }

    /// Events currently held on a processor track.
    pub fn cpu_recorded(&self, cpu: usize) -> u64 {
        self.cpus[cpu].ring.len() as u64
    }

    /// Events overwritten on a processor track's ring.
    pub fn cpu_dropped(&self, cpu: usize) -> u64 {
        self.cpus[cpu].ring.dropped()
    }

    /// Events currently held on the bus track.
    pub fn bus_recorded(&self) -> u64 {
        self.bus_ring.len() as u64
    }

    /// Events overwritten on the bus track's ring.
    pub fn bus_dropped(&self) -> u64 {
        self.bus_ring.dropped()
    }

    /// Total events overwritten across all rings (0 means the timeline
    /// is complete).
    pub fn total_dropped(&self) -> u64 {
        self.bus_ring.dropped() + self.cpus.iter().map(|t| t.ring.dropped()).sum::<u64>()
    }

    /// Per-window bus utilization (busy fraction of each window).
    pub fn bus_utilization(&self) -> &TimeSeries {
        &self.bus_busy
    }

    /// Per-window useful time of one processor.
    pub fn cpu_useful(&self, cpu: usize) -> &TimeSeries {
        &self.cpus[cpu].useful
    }

    /// Per-window stall time of one processor.
    pub fn cpu_stall(&self, cpu: usize) -> &TimeSeries {
        &self.cpus[cpu].stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled_but_valid() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert!(c.validate().is_ok());
        assert!(ObsConfig::on().enabled);
        assert!(ObsConfig::on().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let mut c = ObsConfig::on();
        c.ring_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = ObsConfig::on();
        c.histogram_buckets = 66;
        assert!(c.validate().is_err());
        let mut c = ObsConfig::on();
        c.window = Nanos::ZERO;
        assert!(c.validate().is_err());
        // A disabled config never rejects: the parameters are unused.
        c.enabled = false;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for i in 0..5u64 {
            r.push(Event {
                at: Nanos::from_ns(i),
                kind: EventKind::MissBegin { cause: MissCause::Read },
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.iter().map(|e| e.at.as_ns()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events are evicted first");
        assert!(!r.is_empty());
    }

    #[test]
    fn sampling_accumulates_deltas() {
        let mut obs = MachineObs::new(&ObsConfig::on(), 2);
        let us = Nanos::from_us;
        let idle = (Nanos::ZERO, Nanos::ZERO);
        obs.record(Probe::Sample {
            now: us(100),
            bus_busy: Nanos::ZERO,
            cpus: &[(us(40), us(10)), idle],
        });
        obs.record(Probe::Sample {
            now: us(200),
            bus_busy: Nanos::ZERO,
            cpus: &[(us(90), us(30)), idle],
        });
        // Deltas land in the window containing the sample time (1 ms
        // windows: both samples fall in window 0).
        assert_eq!(obs.cpu_useful(0).total(0), Nanos::from_us(90));
        assert_eq!(obs.cpu_stall(0).total(0), Nanos::from_us(30));
        let later = Nanos::from_ms(1) + Nanos::from_ns(1);
        obs.record(Probe::Sample {
            now: later,
            bus_busy: us(500),
            cpus: &[(us(90), us(30)), idle],
        });
        // Unchanged clocks add nothing; an idle processor has no windows.
        assert_eq!(obs.cpu_useful(0).total(1), Nanos::ZERO);
        assert_eq!(obs.cpu_useful(1).windows(), 0);
        assert_eq!(obs.bus_utilization().total(1), Nanos::from_us(500));
        assert!((obs.bus_utilization().fraction(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracks_are_independent() {
        let mut obs = MachineObs::new(&ObsConfig::on(), 2);
        obs.record(Probe::Cpu(0, Nanos::ZERO, EventKind::FifoOverflow));
        obs.record(Probe::Bus(Nanos::ZERO, EventKind::FifoOverflow));
        assert_eq!(obs.cpu_recorded(0), 1);
        assert_eq!(obs.cpu_recorded(1), 0);
        assert_eq!(obs.bus_recorded(), 1);
        assert_eq!(obs.total_dropped(), 0);
        assert_eq!(obs.processors(), 2);
    }

    #[test]
    fn probes_feed_the_derived_metrics() {
        use vmp_bus::BusTxKind;
        use vmp_types::{Asid, FrameNum, ProcessorId, VirtPageNum};

        let mut obs = MachineObs::new(&ObsConfig::with_attrib(), 1);
        let (asid, vpn, frame) = (Asid::new(1), VirtPageNum::new(4), FrameNum::new(7));
        obs.record(Probe::Mapped(frame, asid, vpn));
        let tx = |aborted| EventKind::BusTx {
            kind: BusTxKind::ReadPrivate,
            frame,
            issuer: ProcessorId::new(0),
            wait: Nanos::from_ns(100),
            dur: Nanos::from_ns(600),
            aborted,
        };
        obs.record(Probe::Bus(Nanos::ZERO, tx(true)));
        obs.record(Probe::Bus(Nanos::from_us(1), tx(false)));
        // Only the transaction that won the bus waited for it; both are
        // attributed to the mapped page.
        assert_eq!(obs.arb_wait.count(), 1);
        let page = obs.attrib().unwrap().page(crate::PageKey { asid, vpn }).unwrap();
        assert_eq!((page.traffic(), page.aborts()), (1, 1));

        let served = |cause| Probe::Served {
            cpu: 0,
            at: Nanos::ZERO,
            cause,
            asid,
            vpn,
            dur: Nanos::from_us(17),
        };
        obs.record(served(MissCause::Pte));
        obs.record(served(MissCause::Read));
        // The nested PTE miss closes its span but is not timed on its own.
        assert_eq!(obs.miss_service.count(), 1);
        assert_eq!(obs.cpu_recorded(0), 2);

        let waited = Some(Nanos::from_us(3));
        obs.record(Probe::Cpu(0, Nanos::ZERO, EventKind::IrqBegin { pending: 1, waited }));
        assert_eq!(obs.irq_latency.count(), 1);
        // A dropped word shows as an overflow on the track too.
        let class = FaultClass::DroppedWord;
        obs.record(Probe::Cpu(0, Nanos::ZERO, EventKind::Fault { class }));
        let last: Vec<EventKind> = obs.cpu_events(0).skip(3).map(|e| e.kind).collect();
        assert_eq!(last, [EventKind::Fault { class }, EventKind::FifoOverflow]);
    }
}

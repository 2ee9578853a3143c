//! The scenario catalogue: the one place that says which programs,
//! probe addresses and expected final words make up each named test
//! machine.
//!
//! The §5.4 claims (spin versus notification locks, ownership
//! ping-pong under false sharing) are checked on a handful of small
//! machines. The chaos soak, the snapshot and observability tests and
//! `vmp-trace-tool` all build them from here, so a lock count or a
//! sweep layout cannot drift between copies. Every scenario's oracle
//! ([`Scenario::expected`]) is derived from its own parameters — the
//! counter equals workers × sections, a lock word ends released, a sweep
//! word holds its last round's value — and never measured from a run.
//!
//! Callers pick the configuration ([`soak_config`], [`observed_config`]
//! or their own), observability and fault hooks themselves.
//!
//! # Examples
//!
//! ```
//! use vmp_core::scenarios::{soak_config, Scenario};
//!
//! let s = Scenario::SpinLock;
//! let mut m = s.build(soak_config(2)).unwrap();
//! m.run().unwrap();
//! assert_eq!(s.probe_words(&m), s.expected(2, m.page_size().bytes()));
//! ```

use std::collections::BTreeMap;

use vmp_bus::FaultHook;
use vmp_types::{Asid, Nanos, VirtAddr};

use crate::workloads::{
    BarrierWorker, LockDiscipline, LockWorker, MessageReceiver, MessageSender, SweepWorker,
};
use crate::{Machine, MachineConfig, MachineError, MachineSnapshot, Program, WatchdogConfig};

/// Lock word of the lock and barrier scenarios; mailbox of `Messages`.
const LOCK: u64 = 0x1000;
/// Shared counter of the lock and barrier scenarios; acknowledgement
/// cell of `Messages`.
const COUNTER: u64 = 0x2000;
/// Generation word of `Barrier`.
const GENERATION: u64 = 0x3000;
/// First word of the sweep scenarios.
const SWEEP: u64 = 0x4000;
/// What `Messages` posts, in order.
const MESSAGES: [u32; 3] = [11, 22, 33];
/// Rounds every sweep and barrier runs.
const ROUNDS: u64 = 3;
/// Critical sections per lock worker in the chaos scenarios; the golden
/// corpus pins this value.
const CHAOS_SECTIONS: u64 = 8;
/// Critical sections per lock worker in the recorded mixes;
/// `BENCH_attrib.json` pins this value.
const RECORDED_SECTIONS: u64 = 16;

/// A named test machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Every processor writes its own two pages: no sharing at all.
    DisjointSweeps,
    /// Every processor runs 8 critical sections on a shared counter
    /// under a test-and-set spin lock.
    SpinLock,
    /// The same counter under §5.4 notification locks.
    NotifyLock,
    /// Processor `i` writes every other word of the same two pages,
    /// starting at word `i`: at two processors each word has one writer
    /// and ownership ping-pongs on every write. Beyond two the lanes
    /// overlap, and the oracle covers only the single-writer words.
    /// `vmp-trace-tool --workload false`.
    FalseSharing,
    /// Processors 0 and 1 fight over a spin lock for 16 sections each;
    /// the rest are [`FalseSharing`](Scenario::FalseSharing) lanes. The
    /// mix `vmp-trace-tool` records by default; `BENCH_attrib.json` pins
    /// it at four processors.
    Contended,
    /// Every processor fights over one spin lock for 16 sections: pure
    /// true sharing. `vmp-trace-tool --workload lock`.
    LockFight,
    /// Processor 0 posts three words to processor 1's mailbox through
    /// the §5.4 notify facility; the rest sweep private pages. Needs at
    /// least two processors.
    Messages,
    /// Every processor runs three rounds of a generation-counting
    /// barrier that wakes its waiters with one broadcast notify.
    Barrier,
}

/// What one processor runs, in the terms the oracle reasons about.
enum Role {
    Lock(LockDiscipline, u64),
    Sweep { base: u64, words: u64, stride: u64, rounds: u64 },
    Send,
    Receive,
    Barrier(u32),
}

impl Scenario {
    /// The chaos soak's workloads. A golden snapshot's metadata stores
    /// the index into this list, so the order is fixed.
    pub const CHAOS: [Scenario; 4] = [
        Scenario::DisjointSweeps,
        Scenario::SpinLock,
        Scenario::NotifyLock,
        Scenario::FalseSharing,
    ];

    /// Every scenario in the catalogue.
    pub const ALL: [Scenario; 8] = [
        Scenario::DisjointSweeps,
        Scenario::SpinLock,
        Scenario::NotifyLock,
        Scenario::FalseSharing,
        Scenario::Contended,
        Scenario::LockFight,
        Scenario::Messages,
        Scenario::Barrier,
    ];

    /// The processor count the scenario is usually run at.
    pub fn default_processors(self) -> usize {
        match self {
            Scenario::Contended | Scenario::LockFight => 4,
            _ => 2,
        }
    }

    fn roles(self, processors: usize, page: u64) -> Vec<Role> {
        assert!(
            self != Scenario::Messages || processors >= 2,
            "Messages needs a sender and a receiver"
        );
        let lane = |lane: u64| Role::Sweep {
            base: SWEEP + 4 * lane,
            words: page / 4,
            stride: 8,
            rounds: ROUNDS,
        };
        (0..processors as u64)
            .map(|cpu| match self {
                Scenario::DisjointSweeps => Role::Sweep {
                    base: SWEEP * (cpu + 1),
                    words: page / 2,
                    stride: 4,
                    rounds: ROUNDS,
                },
                Scenario::SpinLock => Role::Lock(LockDiscipline::Spin, CHAOS_SECTIONS),
                Scenario::NotifyLock => Role::Lock(LockDiscipline::Notify, CHAOS_SECTIONS),
                Scenario::FalseSharing => lane(cpu),
                Scenario::Contended if cpu < 2 => {
                    Role::Lock(LockDiscipline::Spin, RECORDED_SECTIONS)
                }
                Scenario::Contended => lane(cpu - 2),
                Scenario::LockFight => Role::Lock(LockDiscipline::Spin, RECORDED_SECTIONS),
                Scenario::Messages => match cpu {
                    0 => Role::Send,
                    1 => Role::Receive,
                    _ => Role::Sweep {
                        base: 0x10000 + cpu * 4 * page,
                        words: page / 4,
                        stride: 4,
                        rounds: 2,
                    },
                },
                Scenario::Barrier => Role::Barrier(processors as u32),
            })
            .collect()
    }

    /// Fresh program instances, one per processor, for a machine with
    /// `page`-byte cache pages. Each call builds new copies, as
    /// [`Machine::resume`] needs.
    ///
    /// # Panics
    ///
    /// If `Messages` is asked for fewer than two processors.
    pub fn programs(self, processors: usize, page: u64) -> Vec<Box<dyn Program>> {
        let at = VirtAddr::new;
        self.roles(processors, page)
            .into_iter()
            .map(|role| -> Box<dyn Program> {
                match role {
                    Role::Lock(discipline, sections) => Box::new(LockWorker::new(
                        discipline,
                        at(LOCK),
                        at(COUNTER),
                        sections,
                        Nanos::from_us(2),
                        Nanos::from_us(3),
                    )),
                    Role::Sweep { base, words, stride, rounds } => {
                        Box::new(SweepWorker::new(at(base), words, stride, rounds, true))
                    }
                    // A generous gap: the single-word mailbox must be
                    // consumed before the next message lands.
                    Role::Send => {
                        Box::new(MessageSender::new(at(LOCK), MESSAGES.to_vec(), Nanos::from_ms(2)))
                    }
                    Role::Receive => {
                        Box::new(MessageReceiver::new(at(LOCK), at(COUNTER), MESSAGES.len()))
                    }
                    Role::Barrier(workers) => Box::new(BarrierWorker::new(
                        workers,
                        ROUNDS,
                        at(LOCK),
                        at(COUNTER),
                        at(GENERATION),
                        Nanos::from_us(2),
                    )),
                }
            })
            .collect()
    }

    /// The final value of every word whose value the scenario fixes
    /// regardless of schedule and injected faults, in address order.
    fn oracle(self, processors: usize, page: u64) -> Vec<(VirtAddr, u32)> {
        // `None` marks a word two programs leave different values in.
        let mut words: BTreeMap<u64, Option<u32>> = BTreeMap::new();
        let mut put = |addr: u64, value: u32| {
            let word = words.entry(addr).or_insert(Some(value));
            if *word != Some(value) {
                *word = None;
            }
        };
        let mut sections = 0;
        for role in self.roles(processors, page) {
            match role {
                Role::Lock(_, n) => {
                    sections += n;
                    put(LOCK, 0);
                }
                Role::Sweep { base, words, stride, rounds } => {
                    // A sweeper writes the (round, position) it moves on
                    // to, so its last word carries the round count.
                    for i in 0..words {
                        let (round, pos) =
                            if i + 1 == words { (rounds, 0) } else { (rounds - 1, i + 1) };
                        put(base + i * stride, (round as u32) << 16 | pos as u32);
                    }
                }
                Role::Send => {}
                // The receiver empties the mailbox after every message
                // and acknowledges each into the counter cell.
                Role::Receive => {
                    put(LOCK, 0);
                    put(COUNTER, MESSAGES[MESSAGES.len() - 1]);
                }
                Role::Barrier(_) => {
                    put(LOCK, 0);
                    put(COUNTER, 0);
                    put(GENERATION, ROUNDS as u32);
                }
            }
        }
        if sections > 0 {
            put(COUNTER, sections as u32);
        }
        words.into_iter().filter_map(|(a, w)| Some((VirtAddr::new(a), w?))).collect()
    }

    /// The words the oracle fixes, in address order.
    pub fn probes(self, processors: usize, page: u64) -> Vec<VirtAddr> {
        self.oracle(processors, page).into_iter().map(|(va, _)| va).collect()
    }

    /// The oracle: what [`probe_words`](Scenario::probe_words) must read
    /// once every program has halted.
    pub fn expected(self, processors: usize, page: u64) -> Vec<Option<u32>> {
        self.oracle(processors, page).into_iter().map(|(_, v)| Some(v)).collect()
    }

    /// The current values of the probe words in `m` (address space 1).
    pub fn probe_words(self, m: &Machine) -> Vec<Option<u32>> {
        self.probes(m.processors(), m.page_size().bytes())
            .into_iter()
            .map(|va| m.peek_word(Asid::new(1), va))
            .collect()
    }

    /// Builds a machine from `config` with this scenario's programs
    /// installed on every processor.
    ///
    /// # Errors
    ///
    /// Any [`Machine::build`] error.
    pub fn build(self, config: MachineConfig) -> Result<Machine, MachineError> {
        let programs = self.programs(config.processors, config.cache.page_size().bytes());
        let mut m = Machine::build(config)?;
        for (cpu, p) in programs.into_iter().enumerate() {
            m.set_program_boxed(cpu, p)?;
        }
        Ok(m)
    }

    /// Resumes `snap` (a machine built by [`build`](Scenario::build))
    /// with fresh copies of this scenario's programs.
    ///
    /// # Errors
    ///
    /// Any [`Machine::resume`] error.
    pub fn resume(
        self,
        config: MachineConfig,
        snap: &MachineSnapshot,
        hook: Option<Box<dyn FaultHook>>,
    ) -> Result<Machine, MachineError> {
        let programs = self.programs(config.processors, config.cache.page_size().bytes());
        Machine::resume(config, snap, programs.into_iter().map(Some).collect(), hook)
    }
}

/// The soak configuration the chaos, snapshot and golden-corpus machines
/// run under: no per-step validation (it would dominate a soak) but an
/// invariant audit every 64 events, the default liveness watchdog, and
/// a 60 s simulated limit.
pub fn soak_config(processors: usize) -> MachineConfig {
    MachineConfig {
        processors,
        validate_each_step: false,
        audit_every: Some(64),
        watchdog: Some(WatchdogConfig::default()),
        max_time: Nanos::from_ms(60_000),
        ..MachineConfig::small()
    }
}

/// The configuration of the recorded runs (`vmp-trace-tool timeline`,
/// `metrics`, `top` and the observability tests): no per-step
/// validation, audit or watchdog, so nothing but the programs drives
/// the event stream, and a 60 s simulated limit.
pub fn observed_config(processors: usize) -> MachineConfig {
    MachineConfig {
        processors,
        validate_each_step: false,
        max_time: Nanos::from_ms(60_000),
        ..MachineConfig::small()
    }
}

//! The machine: processors, caches, monitors, bus, memory and kernel
//! wired together under a deterministic event loop.

use std::collections::BTreeMap;

use vmp_bus::{
    ActionCode, BusMonitor, BusTransaction, BusTxKind, FaultClass, FaultHook, InterruptWord,
    NoFaults, VmeBus,
};
use vmp_cache::{DataCache, SlotFlags, SlotId, Tag};
use vmp_mem::MainMemory;
use vmp_obs::{CpuClocks, EventKind, MachineObs, MissCause, Probe};
use vmp_sim::{AttentionClock, EventQueue};
use vmp_trace::MemRef;
use vmp_types::{Asid, FrameNum, Nanos, PageSize, PhysAddr, ProcessorId, VirtAddr, VirtPageNum};

use crate::dma::{DmaDirection, DmaEngine, DmaPhase, DmaRequest};
use crate::{
    FaultStats, Kernel, MachineConfig, MachineError, MachineReport, Op, OpResult, PhysIndex,
    ProcessorStats, Program, TraceProgram, WatchdogViolation,
};

/// Maximum depth of nested page-table misses: the leaf PTE page is
/// reached through the cache; the root/directory information is kept in
/// local memory (paper §2: "a small bounded depth to page table misses").
const MAX_PT_DEPTH: u8 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CpuState {
    /// No program loaded or program finished.
    Halted,
    /// Executing; a wake event is scheduled.
    Ready,
    /// Parked in [`Op::WaitNotify`].
    Parked,
    /// Inside an [`Op::Compute`] block. Unlike a memory operation, a
    /// compute block spans many instructions, so consistency interrupts
    /// are serviced *during* it (between instructions) and push its
    /// completion back by the service time.
    Computing { until: Nanos },
}

/// Work to resume at the next wake.
///
/// When a bus transaction is aborted, the cache controller "retries the
/// bus transaction" (paper §3.2) — *not* the whole software handler. The
/// transaction-level continuations below give the aborted requester a
/// fast retry that can land between the owner's flush and the owner's
/// next reacquisition; re-running the full 13.6 µs handler would lose
/// that race forever against a spinning competitor.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PendingWork {
    /// Re-execute the whole operation (nested-translation aborts).
    FullOp(Op),
    /// Re-issue the block-fetch transaction of a miss whose victim has
    /// already been evicted.
    FetchTx(FetchCont),
    /// Re-issue the assert-ownership transaction of a write upgrade.
    UpgradeTx(UpgradeCont),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchCont {
    pub(crate) op: Op,
    pub(crate) asid: Asid,
    pub(crate) va: VirtAddr,
    pub(crate) want_private: bool,
    pub(crate) cause: MissCause,
    pub(crate) frame: FrameNum,
    pub(crate) slot: SlotId,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct UpgradeCont {
    pub(crate) op: Op,
    pub(crate) va: VirtAddr,
    pub(crate) slot: SlotId,
    pub(crate) frame: FrameNum,
}

pub(crate) struct Cpu {
    pub(crate) id: ProcessorId,
    pub(crate) asid: Asid,
    pub(crate) cache: DataCache,
    pub(crate) monitor: BusMonitor,
    pub(crate) phys: PhysIndex,
    pub(crate) program: Option<Box<dyn Program>>,
    pub(crate) state: CpuState,
    pub(crate) pending: Option<PendingWork>,
    pub(crate) last_result: OpResult,
    pub(crate) wake_seq: u64,
    pub(crate) wake_pending: bool,
    /// Frames watched for notification → the virtual address the program
    /// used, for delivering [`OpResult::Notified`].
    pub(crate) watches: BTreeMap<FrameNum, VirtAddr>,
    pub(crate) pending_notify: Option<VirtAddr>,
    /// Deadline for a pending [`Op::WaitNotify`] park.
    pub(crate) park_deadline: Option<Nanos>,
    /// Consecutive aborted attempts; lengthens the retry backoff so
    /// symmetric contenders cannot phase-lock.
    pub(crate) retry_streak: u32,
    /// Pages acquired since the last completed reference — thrashing
    /// signal for the liveness watchdog (acquisitions should yield work).
    pub(crate) zero_yield_acquires: u64,
    /// Armed while this board's monitor holds unserviced interrupt words
    /// or an unserviced overflow flag; the watchdog flags starvation.
    pub(crate) attention: AttentionClock,
    pub(crate) stats: ProcessorStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    Wake { cpu: usize, seq: u64 },
    Dma { dma: usize, seq: u64 },
}

/// Outcome of executing or resuming one operation.
enum Exec {
    /// Finished at the given time with a result for the program.
    Done(Nanos, OpResult),
    /// Entered an interruptible compute block ending at the given time.
    Compute(Nanos),
    /// Retry at the given time with the given continuation.
    Retry(Nanos, PendingWork),
    /// Parked waiting for a notification (with a timeout deadline).
    Park(Nanos),
    /// The program halted.
    Halt,
}

enum FetchOutcome {
    Loaded {
        slot: SlotId,
        end: Nanos,
    },
    /// The block-fetch transaction aborted; the victim slot is reserved.
    TxAborted {
        at: Nanos,
        frame: FrameNum,
        slot: SlotId,
    },
    /// A nested (translation) step aborted; re-run the whole handler.
    Restart(Nanos),
}

enum ResolveOutcome {
    Frame(FrameNum, Nanos),
    Restart(Nanos),
}

/// Watchdog limits with the derive-from-timings defaults already
/// resolved at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedWatchdog {
    retry_limit: u64,
    lag_limit: Nanos,
    zero_yield_limit: u64,
}

/// The whole VMP machine.
///
/// See the [crate documentation](crate) for an overview and example.
pub struct Machine {
    pub(crate) config: MachineConfig,
    pub(crate) now: Nanos,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) bus: VmeBus,
    pub(crate) memory: MainMemory,
    pub(crate) kernel: Kernel,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) dmas: Vec<DmaEngine>,
    /// Frames protected for DMA → host processor index (validator input).
    pub(crate) dma_protected: BTreeMap<FrameNum, usize>,
    /// Backing store for reclaimed pages: the page-out daemon (§3.4)
    /// saves contents here and the page-fault path restores them.
    pub(crate) swap: BTreeMap<(Asid, VirtPageNum), Vec<u8>>,
    /// Fault injector consulted at the bus/monitor/memory boundaries;
    /// [`NoFaults`] (the default) keeps every call a no-op.
    pub(crate) fault_hook: Box<dyn FaultHook>,
    /// Machine-side accounting of the faults absorbed so far.
    pub(crate) fault_stats: FaultStats,
    /// Event recorder, allocated only when `config.obs.enabled`. Only
    /// [`Machine::probe`] feeds it, so the disabled path is one branch
    /// per chokepoint, and recording only ever reads simulator state, so
    /// enabling it cannot perturb a run.
    pub(crate) obs: Option<Box<MachineObs>>,
    /// Liveness watchdog, resolved from the configuration at build.
    pub(crate) watchdog: Option<ResolvedWatchdog>,
    /// Violation detected inside a kernel service loop (which cannot
    /// return an error); surfaced by the event loop.
    pub(crate) stuck: Option<WatchdogViolation>,
    /// Events delivered so far, for the periodic `audit_every` check.
    pub(crate) events_delivered: u64,
    /// Reused by [`Machine::bus_transaction`]: each board the address
    /// phase touched, as `(board, interrupted, queued, dropped)` in
    /// ascending board order. Empty between transactions.
    pub(crate) snooped: Vec<(usize, bool, bool, bool)>,
    /// Reused for the slot lists that loops mutating the cache and the
    /// phys index walk (a frame's, or a recovery's). Empty between uses.
    pub(crate) frame_slots: Vec<SlotId>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("processors", &self.cpus.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from a configuration. All processors start
    /// halted; load work with [`Machine::set_program`] or
    /// [`Machine::load_trace`].
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] for invalid configurations.
    pub fn build(config: MachineConfig) -> Result<Machine, MachineError> {
        config.check()?;
        let page = config.cache.page_size();
        let frames = config.frames();
        let memory = MainMemory::with_timings(page, config.memory_bytes, config.mem_timings);
        let bus = VmeBus::with_timings(page, config.bus, config.mem_timings);
        let kernel = Kernel::new(page, frames, 0);
        let cpus = (0..config.processors)
            .map(|i| Cpu {
                id: ProcessorId::new(i),
                asid: Asid::new(1),
                cache: DataCache::new(config.cache),
                monitor: BusMonitor::new(ProcessorId::new(i), frames),
                phys: PhysIndex::with_geometry(config.cache.sets(), config.cache.associativity()),
                program: None,
                state: CpuState::Halted,
                pending: None,
                last_result: OpResult::None,
                wake_seq: 0,
                wake_pending: false,
                watches: BTreeMap::new(),
                pending_notify: None,
                park_deadline: None,
                retry_streak: 0,
                zero_yield_acquires: 0,
                attention: AttentionClock::new(),
                stats: ProcessorStats::default(),
            })
            .collect();
        let watchdog = config.watchdog.map(|w| ResolvedWatchdog {
            retry_limit: w.effective_retry_streak_limit(&config.cpu),
            lag_limit: w.effective_interrupt_lag_limit(&config.cpu),
            zero_yield_limit: w.effective_zero_yield_limit(),
        });
        let obs =
            config.obs.enabled.then(|| Box::new(MachineObs::new(&config.obs, config.processors)));
        let snooped = Vec::with_capacity(config.processors);
        Ok(Machine {
            config,
            now: Nanos::ZERO,
            queue: EventQueue::new(),
            bus,
            memory,
            kernel,
            cpus,
            dmas: Vec::new(),
            dma_protected: BTreeMap::new(),
            swap: BTreeMap::new(),
            fault_hook: Box::new(NoFaults),
            fault_stats: FaultStats::default(),
            obs,
            watchdog,
            stuck: None,
            events_delivered: 0,
            snooped,
            frame_slots: Vec::new(),
        })
    }

    /// Installs a fault hook consulted at the bus/monitor/memory
    /// boundaries, replacing the previous one (initially the inert
    /// [`NoFaults`]). Typically a `vmp-faults` `FaultPlan`.
    pub fn install_fault_hook(&mut self, hook: impl FaultHook + 'static) {
        self.fault_hook = Box::new(hook);
    }

    /// Machine-side fault accounting for the run so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// The event recorder, when observability is enabled
    /// (`MachineConfig::obs`); feed it to [`vmp_obs::chrome_trace`] or
    /// [`vmp_obs::metrics_json`].
    pub fn obs(&self) -> Option<&MachineObs> {
        self.obs.as_deref()
    }

    /// Starts the recorder's windowed deltas from the clocks as they
    /// stand, for a machine resumed mid-run.
    pub(crate) fn baseline_obs(&mut self) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.baseline(self.bus.stats().busy.busy(), &Clocks(&self.cpus));
        }
    }

    /// Reports one chokepoint to the recorder ([`MachineObs::record`]
    /// decides what it feeds). `report` builds the probe, given the
    /// processors' clocks, and runs only while recording: with the
    /// recorder off a chokepoint costs one branch and builds nothing.
    #[inline]
    fn probe(&mut self, report: impl FnOnce(&dyn CpuClocks) -> Probe<'_>) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.record(report(&Clocks(&self.cpus)));
        }
    }

    /// Simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The cache-page size of this machine.
    pub fn page_size(&self) -> PageSize {
        self.config.cache.page_size()
    }

    /// The cache-page size in bytes: the unit every block transfer copies.
    pub(crate) fn page_bytes(&self) -> usize {
        self.page_size().bytes() as usize
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.cpus.len()
    }

    /// Read access to the kernel (mappings, free frames).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn check_cpu(&self, index: usize) -> Result<(), MachineError> {
        if index < self.cpus.len() {
            Ok(())
        } else {
            Err(MachineError::NoSuchProcessor { index, processors: self.cpus.len() })
        }
    }

    /// Loads a program onto a processor, replacing any previous one.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    pub fn set_program<P: Program + 'static>(
        &mut self,
        cpu: usize,
        program: P,
    ) -> Result<(), MachineError> {
        self.set_program_boxed(cpu, Box::new(program))
    }

    /// Loads an already-boxed program onto a processor — the dynamic
    /// counterpart of [`Machine::set_program`], for callers that build
    /// program sets generically (snapshot tooling, sweep harnesses).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    pub fn set_program_boxed(
        &mut self,
        cpu: usize,
        program: Box<dyn Program>,
    ) -> Result<(), MachineError> {
        self.check_cpu(cpu)?;
        self.cpus[cpu].program = Some(program);
        self.cpus[cpu].state = CpuState::Ready;
        self.cpus[cpu].pending = None;
        self.cpus[cpu].last_result = OpResult::None;
        Ok(())
    }

    /// Sets the address space a processor's program runs in
    /// (default: ASID 1 on every processor, i.e. one shared space).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    pub fn set_asid(&mut self, cpu: usize, asid: Asid) -> Result<(), MachineError> {
        self.check_cpu(cpu)?;
        self.cpus[cpu].asid = asid;
        Ok(())
    }

    /// Convenience: run a reference trace on a processor
    /// (wraps it in a [`TraceProgram`]).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    pub fn load_trace<I>(&mut self, cpu: usize, refs: I) -> Result<(), MachineError>
    where
        I: IntoIterator<Item = MemRef>,
        I::IntoIter: Send + 'static,
    {
        self.set_program(cpu, TraceProgram::new(refs))
    }

    /// Pre-maps one page of every listed address space to a single
    /// shared frame, returning the frame. Used to set up shared-memory
    /// workloads and alias experiments.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfMemory`] when no frame is free.
    pub fn map_shared(&mut self, mappings: &[(Asid, VirtAddr)]) -> Result<FrameNum, MachineError> {
        let page = self.page_size();
        let (first_asid, first_va) = mappings.first().expect("at least one mapping");
        let frame = self.kernel.fault_in(*first_asid, page.vpn_of(*first_va), *first_va)?;
        for (asid, va) in &mappings[1..] {
            self.kernel.map(*asid, page.vpn_of(*va), vmp_vm::Pte::user_rw(frame));
        }
        Ok(frame)
    }

    /// Schedules a DMA request managed by `host` (the processor whose
    /// monitor protects the frames, §3.3). Returns a handle for
    /// [`Machine::dma_result`].
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad host index.
    pub fn queue_dma(&mut self, host: usize, request: DmaRequest) -> Result<usize, MachineError> {
        self.check_cpu(host)?;
        let id = ProcessorId::new(self.cpus.len() + self.dmas.len());
        let handle = self.dmas.len();
        let mut engine = DmaEngine::new(id, host, request);
        // A device read captures whole frames into one buffer, sized once.
        if engine.request.direction == DmaDirection::FromMemory {
            engine.buffer.reserve_exact(engine.request.frames.len() * self.page_bytes());
        }
        // Serialize against any in-flight request touching the same
        // frames — the paper's OS-level region lock (§3.3).
        engine.blocked_on = self
            .dmas
            .iter()
            .enumerate()
            .rev()
            .find(|(_, d)| {
                d.phase != DmaPhase::Done
                    && d.request.frames.iter().any(|f| engine.request.frames.contains(f))
            })
            .map(|(i, _)| i);
        self.dmas.push(engine);
        let seq = self.dmas[handle].bump_seq();
        self.queue.schedule(self.now, Event::Dma { dma: handle, seq });
        Ok(handle)
    }

    /// The data read by a completed [`DmaDirection::FromMemory`] request;
    /// `None` while the transfer is in progress or for device-write
    /// ([`DmaDirection::ToMemory`]) requests, which capture nothing.
    pub fn dma_result(&self, handle: usize) -> Option<&[u8]> {
        let d = self.dmas.get(handle)?;
        if d.phase == DmaPhase::Done && d.request.direction == DmaDirection::FromMemory {
            Some(&d.buffer)
        } else {
            None
        }
    }

    /// Reads the current coherent value of the word at ⟨asid, va⟩
    /// without simulating any traffic: if some cache owns the page
    /// privately, its copy is authoritative; otherwise main memory is.
    /// Intended for test assertions and post-run inspection.
    pub fn peek_word(&self, asid: Asid, va: VirtAddr) -> Option<u32> {
        let page = self.page_size();
        let vpn = page.vpn_of(va);
        let frame = self.kernel.translate(asid, vpn)?.frame;
        let offset = (page.offset_of(va.raw()) & !3) as usize;
        for cpu in &self.cpus {
            for &slot in cpu.phys.slots(frame) {
                if cpu.cache.flags(slot).exclusive {
                    return Some(read_u32(cpu.cache.read(slot, offset, 4)));
                }
            }
        }
        Some(self.memory.read_u32(page.frame_base(frame).add(offset as u64)))
    }

    /// The physical frame currently backing ⟨asid, va⟩, if mapped.
    pub fn frame_of(&self, asid: Asid, va: VirtAddr) -> Option<FrameNum> {
        self.kernel.translate(asid, self.page_size().vpn_of(va)).map(|p| p.frame)
    }

    /// Statistics of one processor so far.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu_stats(&self, cpu: usize) -> &ProcessorStats {
        &self.cpus[cpu].stats
    }

    /// Runs until every program has halted and all DMA has drained.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::TimeLimit`] if `max_time` elapses first,
    /// or any error raised by a processor step.
    pub fn run(&mut self) -> Result<MachineReport, MachineError> {
        self.run_until(self.config.max_time)?;
        let still_running: Vec<ProcessorId> =
            self.cpus.iter().filter(|c| c.state != CpuState::Halted).map(|c| c.id).collect();
        if !still_running.is_empty() {
            return Err(MachineError::TimeLimit { still_running });
        }
        Ok(self.report())
    }

    /// Runs until the event queue drains or simulated time reaches
    /// `deadline`.
    ///
    /// # Errors
    ///
    /// Propagates processor-step errors.
    pub fn run_until(&mut self, deadline: Nanos) -> Result<MachineReport, MachineError> {
        // Kick ready CPUs without an outstanding wake (fresh or re-loaded
        // programs).
        for i in 0..self.cpus.len() {
            if self.cpus[i].state == CpuState::Ready && !self.cpus[i].wake_pending {
                self.schedule_wake(i, self.now);
            }
        }
        // The wake of the operation the last step finished, not yet
        // queued. When it falls strictly before every queued event and
        // by the deadline, it is delivered inline — the processor keeps
        // executing while nothing else is due — with the queue and wake
        // sequence numbers it would have consumed, so the machine state
        // is exactly that of a queued delivery.
        let mut done: Option<(usize, Nanos)> = None;
        loop {
            let (t, event) = match done.take() {
                Some((cpu, at)) if self.queue.bypass(at, deadline) => {
                    self.cpus[cpu].wake_seq += 1;
                    (at, Event::Wake { cpu, seq: self.cpus[cpu].wake_seq })
                }
                queued => {
                    if let Some((cpu, at)) = queued {
                        self.schedule_wake(cpu, at);
                    }
                    // Fused peek+pop: one heap descent per queued event.
                    match self.queue.pop_if_at_or_before(deadline) {
                        Some(next) => next,
                        None => break,
                    }
                }
            };
            self.now = self.now.max(t);
            self.bus.advance_to(self.now);
            match event {
                Event::Wake { cpu, seq } => {
                    if self.cpus[cpu].wake_seq == seq {
                        self.cpus[cpu].wake_pending = false;
                        let end = self.step_cpu(cpu)?;
                        done = end.map(|end| (cpu, end.max(self.now)));
                    }
                }
                Event::Dma { dma, seq } => {
                    if self.dmas[dma].seq == seq {
                        self.step_dma(dma);
                    }
                }
            }
            if let Err(e) = self.after_event() {
                // An error leaves the finished operation's wake queued.
                if let Some((cpu, at)) = done {
                    self.schedule_wake(cpu, at);
                }
                return Err(e);
            }
        }
        Ok(self.report())
    }

    /// The per-event epilogue: the recorder's sample, the watchdog's
    /// starvation check, and the configured invariant checks. Runs once
    /// per delivered event, queued or inline, from its one call site in
    /// `run_until`. Forced inline: as an out-of-line call it cost the
    /// recorded contended machine about 5 % of its throughput.
    #[inline(always)]
    fn after_event(&mut self) -> Result<(), MachineError> {
        let (now, bus_busy) = (self.now, self.bus.stats().busy.busy());
        self.probe(|cpus| Probe::Sample { now, bus_busy, cpus });
        if let Some(w) = self.watchdog {
            if let Some(v) = self.stuck.take() {
                return Err(MachineError::Watchdog(v));
            }
            for c in &self.cpus {
                if c.attention.exceeded(self.now, w.lag_limit) {
                    return Err(MachineError::Watchdog(WatchdogViolation::InterruptStarved {
                        cpu: c.id,
                        waited: c.attention.waiting(self.now).unwrap_or(Nanos::ZERO),
                        limit: w.lag_limit,
                    }));
                }
            }
        }
        if self.config.validate_each_step {
            self.validate().map_err(MachineError::InvariantViolated)?;
        }
        if let Some(every) = self.config.audit_every {
            self.events_delivered += 1;
            if self.events_delivered.is_multiple_of(every) {
                self.validate()
                    .map_err(|detail| MachineError::AuditFailed { at: self.now, detail })?;
            }
        }
        Ok(())
    }

    /// Builds a statistics report for the run so far.
    pub fn report(&self) -> MachineReport {
        MachineReport {
            elapsed: self.now,
            processors: self.cpus.iter().map(|c| c.stats.clone()).collect(),
            bus: self.bus.stats().clone(),
            faults: self.fault_stats,
        }
    }

    fn schedule_wake(&mut self, cpu: usize, at: Nanos) {
        self.cpus[cpu].wake_seq += 1;
        self.cpus[cpu].wake_pending = true;
        let seq = self.cpus[cpu].wake_seq;
        self.queue.schedule(at.max(self.now), Event::Wake { cpu, seq });
    }

    // ------------------------------------------------------------------
    // Bus helpers
    // ------------------------------------------------------------------

    /// Issues one bus transaction at (or after) `ready`: arbitration,
    /// monitor checks on every board, completion or abort — with the
    /// fault hook consulted at each boundary (all of its calls are inert
    /// no-ops under the default [`NoFaults`]).
    ///
    /// Returns `(end_time, completed)`.
    fn bus_transaction(&mut self, tx: BusTransaction, ready: Nanos) -> (Nanos, bool) {
        // Injected arbitration stall: the arbiter keeps granting other
        // masters before this one wins the bus.
        let now = self.now;
        let stall = self.fault_hook.arbitration_stall(now, &tx);
        let ready = if stall > Nanos::ZERO {
            self.fault_stats.stalls += 1;
            self.fault_stats.stall_time += stall;
            let stalled = EventKind::Fault { class: FaultClass::ArbitrationStall };
            self.probe(|_| Probe::Bus(now, stalled));
            ready + stall
        } else {
            ready
        };
        let mut abort = false;
        let mut snooped = std::mem::take(&mut self.snooped);
        for (j, cpu) in self.cpus.iter_mut().enumerate() {
            let d = cpu.monitor.observe(&tx);
            abort |= d.abort;
            if d.interrupted || d.queued || d.dropped {
                snooped.push((j, d.interrupted, d.queued, d.dropped));
            }
        }
        // Spurious abort injection, restricted to kinds whose issuers
        // have a retry path. Write-backs are never aborted (a protocol
        // guarantee the rest of the machine relies on) and plain cycles
        // have no retry trap.
        let mut injected = false;
        if !abort && can_inject_abort(tx.kind) && self.fault_hook.inject_abort(now, &tx) {
            abort = true;
            injected = true;
            self.fault_stats.injected_aborts += 1;
            self.probe(|_| Probe::Bus(now, EventKind::Fault { class: FaultClass::InjectedAbort }));
        }
        let end = if abort {
            // Address-phase abort: terminated immediately, the block
            // transfer never starts, queued transfers are not delayed.
            self.bus.abort(tx.kind, injected);
            let (wait, dur) = (self.config.bus.arbitration, self.bus.abort_duration());
            let (kind, frame, issuer) = (tx.kind, tx.frame, tx.issuer);
            let at = ready + wait;
            self.probe(|_| {
                Probe::Bus(at, EventKind::BusTx { kind, frame, issuer, wait, dur, aborted: true })
            });
            at + dur
        } else {
            // Transient copier errors: each failed attempt occupies one
            // full transfer slot before the bounded retry wins.
            let failures = if tx.kind.is_block_transfer() {
                self.fault_hook.copier_failures(now, &tx)
            } else {
                0
            };
            let dur = self.bus.duration(tx.kind);
            self.fault_stats.copier_retries += u64::from(failures);
            self.fault_stats.copier_retry_time += dur * u64::from(failures);
            let dur = dur * (1 + u64::from(failures));
            self.occupy(tx, ready, dur, failures) + dur
        };
        // Real FIFO overflows observed during the address phase: the
        // monitor lost the word and raised its sticky flag.
        for &(j, ..) in snooped.iter().filter(|&&(_, _, _, dropped)| dropped) {
            self.probe(|_| Probe::Cpu(j, end, EventKind::FifoOverflow));
        }
        // Injected FIFO word drops: a freshly queued word vanishes, but
        // always marks the FIFO overflowed — an injected drop is
        // indistinguishable from a real overflow, so the §3.3 recovery
        // scan repairs it (the fault-transparency contract).
        for &(j, ..) in snooped.iter().filter(|&&(_, _, queued, _)| queued) {
            let word = InterruptWord { kind: tx.kind, frame: tx.frame, issuer: tx.issuer };
            if self.fault_hook.drop_interrupt_word(now, self.cpus[j].id, &word)
                && self.cpus[j].monitor.drop_newest().is_some()
            {
                self.fault_stats.dropped_words += 1;
                let dropped = EventKind::Fault { class: FaultClass::DroppedWord };
                self.probe(|_| Probe::Cpu(j, end, dropped));
            }
        }
        // Forced overflow: the sticky flag rises without losing a word,
        // triggering a spurious (but harmless) recovery scan on the
        // issuer's own monitor.
        if let Some(j) = self.cpus.iter().position(|c| c.id == tx.issuer) {
            if self.fault_hook.force_overflow(now, self.cpus[j].id) {
                self.cpus[j].monitor.force_overflow();
                self.fault_stats.forced_overflows += 1;
                self.cpus[j].attention.note(end);
                let forced = EventKind::Fault { class: FaultClass::ForcedOverflow };
                self.probe(|_| Probe::Cpu(j, end, forced));
            }
        }
        // Track service attention for every board that now holds work.
        for &(j, ..) in snooped.iter().filter(|&&(_, _, queued, _)| queued) {
            self.cpus[j].attention.note(end);
        }
        // Parked, halted and computing processors service interrupts only
        // when woken; a CPU mid-memory-operation services at its end.
        for &(j, ..) in snooped.iter().filter(|&&(_, interrupted, ..)| interrupted) {
            match self.cpus[j].state {
                CpuState::Parked | CpuState::Halted | CpuState::Computing { .. } => {
                    let at = end + self.config.bus.check_interval;
                    self.schedule_wake(j, at);
                }
                CpuState::Ready => {}
            }
        }
        snooped.clear();
        self.snooped = snooped;
        (end, !abort)
    }

    /// Holds the bus for `dur` from the first free slot at or after
    /// `ready` and reports the occupancy — a DMA engine's as a copier
    /// transfer — noting the `failures` copier attempts inside it.
    /// Returns the slot's start.
    fn occupy(&mut self, tx: BusTransaction, ready: Nanos, dur: Nanos, failures: u32) -> Nanos {
        let start = self.bus.reserve(ready, dur);
        self.bus.complete(tx.kind, dur);
        let (frame, issuer, wait) = (tx.frame, tx.issuer, start.saturating_sub(ready));
        // DMA engines are pseudo-processors numbered after the CPUs.
        let (cpu, kind) = (issuer.index() < self.cpus.len(), tx.kind);
        self.probe(|_| {
            let event = if cpu {
                EventKind::BusTx { kind, frame, issuer, wait, dur, aborted: false }
            } else {
                EventKind::Copier { frame, issuer, wait, dur, write: kind == BusTxKind::PlainWrite }
            };
            Probe::Bus(start, event)
        });
        if failures > 0 {
            self.probe(|_| Probe::Bus(start, EventKind::Fault { class: FaultClass::CopierRetry }));
        }
        start
    }

    /// Backoff before retrying an aborted transaction: grows with the
    /// retry streak so symmetric contenders cannot phase-lock forever.
    fn retry_at(&mut self, cpu: usize, abort_end: Nanos) -> Nanos {
        let streak = u64::from(self.cpus[cpu].retry_streak.min(self.config.cpu.max_retry_streak));
        self.cpus[cpu].retry_streak += 1;
        let retried = self.cpus[cpu].retry_streak;
        self.probe(|_| Probe::Cpu(cpu, abort_end, EventKind::Retry { streak: retried }));
        abort_end + self.config.cpu.retry_backoff * (1 + streak)
    }

    // ------------------------------------------------------------------
    // Consistency-interrupt service (§3.3)
    // ------------------------------------------------------------------

    /// Services every pending interrupt word for `cpu`; returns the time
    /// when service completes.
    fn service_interrupts(&mut self, cpu: usize, mut t: Nanos) -> Nanos {
        let t0 = t;
        let pending = self.cpus[cpu].monitor.pending() as u32;
        let had_work = pending > 0 || self.cpus[cpu].monitor.overflowed();
        if had_work {
            // Queued-to-service latency runs from the oldest unserviced
            // word's onset.
            let waited = self.cpus[cpu].attention.waiting(t0);
            self.probe(|_| Probe::Cpu(cpu, t0, EventKind::IrqBegin { pending, waited }));
        }
        if self.cpus[cpu].monitor.overflowed() {
            t = self.recover_overflow(cpu, t);
        }
        let mut serviced: u32 = 0;
        while let Some(word) = self.cpus[cpu].monitor.pop_interrupt() {
            // A stale word (the frame's code already cleared by an earlier
            // service) is dismissed after a quick table check; a live one
            // pays the full handler cost.
            let code = self.cpus[cpu].monitor.table().get(word.frame);
            let stale = code == vmp_bus::ActionCode::Ignore && word.kind != BusTxKind::Notify;
            t += if stale {
                self.config.cpu.consistency_service / 8
            } else {
                self.config.cpu.consistency_service
            };
            self.cpus[cpu].stats.consistency_interrupts += 1;
            serviced += 1;
            t = self.service_word(cpu, word, t);
        }
        // Fully drained (service never queues words on its own monitor):
        // stand down the starvation clock.
        if self.cpus[cpu].monitor.pending() == 0 && !self.cpus[cpu].monitor.overflowed() {
            self.cpus[cpu].attention.clear();
        }
        if had_work {
            self.probe(|_| Probe::Cpu(cpu, t, EventKind::IrqEnd { serviced }));
        }
        t
    }

    fn service_word(&mut self, cpu: usize, word: InterruptWord, mut t: Nanos) -> Nanos {
        let frame = word.frame;
        let code = self.cpus[cpu].monitor.table().get(frame);
        match word.kind {
            BusTxKind::Notify => {
                if let Some(va) = self.cpus[cpu].watches.remove(&frame) {
                    self.cpus[cpu].stats.notifies += 1;
                    self.cpus[cpu].monitor.table_mut().set(frame, ActionCode::Ignore);
                    if self.cpus[cpu].state == CpuState::Parked {
                        self.cpus[cpu].pending_notify = Some(va);
                    } else if let Some(program) = self.cpus[cpu].program.as_mut() {
                        program.on_notify(va);
                    }
                }
            }
            BusTxKind::ReadPrivate | BusTxKind::AssertOwnership => match code {
                ActionCode::InterruptOnOwnership | ActionCode::Protect => {
                    // Shared: discard copies. Private: write back, then
                    // discard (the aborted requester will retry).
                    t = self.flush_frame(cpu, frame, /*downgrade=*/ false, t);
                }
                _ => {} // stale word
            },
            BusTxKind::ReadShared if code == ActionCode::Protect => {
                // Downgrade private → shared: write back, keep copy.
                t = self.flush_frame(cpu, frame, /*downgrade=*/ true, t);
            }
            BusTxKind::ReadShared => {} // stale word
            BusTxKind::WriteBack => match code {
                ActionCode::InterruptOnOwnership => {
                    // Stale-sharer race: the new owner wrote the page back
                    // before we serviced its invalidation word. Our copy
                    // is stale — drop it (no write-back: shared ⇒ clean).
                    t = self.flush_frame(cpu, frame, /*downgrade=*/ false, t);
                }
                ActionCode::Protect => {
                    // A foreign write-back on a page we own: two owners —
                    // a genuine protocol violation.
                    self.cpus[cpu].stats.violations += 1;
                }
                _ => {} // stale word
            },
            _ => {}
        }
        t
    }

    /// Writes back (if dirty) and invalidates — or downgrades — every
    /// slot of `cpu` holding `frame`; updates the action table.
    fn flush_frame(&mut self, cpu: usize, frame: FrameNum, downgrade: bool, mut t: Nanos) -> Nanos {
        if self.cpus[cpu].phys.slots(frame).is_empty() {
            return t;
        }
        // Copied: the loop below mutates the cache and the index.
        let mut slots = std::mem::take(&mut self.frame_slots);
        slots.extend_from_slice(self.cpus[cpu].phys.slots(frame));
        let dirty = slots.iter().rev().copied().find(|s| self.cpus[cpu].cache.flags(*s).modified);
        if let Some(slot) = dirty {
            t = self.write_back(cpu, slot, frame, t);
        }
        for slot in slots.drain(..) {
            if downgrade {
                let flags = self.cpus[cpu].cache.flags(slot);
                self.cpus[cpu].cache.set_flags(slot, flags.downgraded());
                self.cpus[cpu].stats.downgrades += 1;
            } else {
                self.cpus[cpu].cache.invalidate(slot);
                self.cpus[cpu].phys.remove(frame, slot);
                self.cpus[cpu].stats.invalidations += 1;
            }
        }
        self.frame_slots = slots;
        let new_code =
            if downgrade { ActionCode::InterruptOnOwnership } else { ActionCode::Ignore };
        self.cpus[cpu].monitor.table_mut().set(frame, new_code);
        t
    }

    /// Copies `cpu`'s modified page in `slot` back to `frame` and issues
    /// the write-back transaction at `t` (never aborted for the owner; it
    /// touches neither memory nor caches, so copying first changes
    /// nothing it sees). Returns the transaction's end.
    fn write_back(&mut self, cpu: usize, slot: SlotId, frame: FrameNum, t: Nanos) -> Nanos {
        self.memory.write_frame(frame, self.cpus[cpu].cache.read(slot, 0, self.page_bytes()));
        let tx = BusTransaction::new(BusTxKind::WriteBack, frame, self.cpus[cpu].id);
        let (end, ok) = self.bus_transaction(tx, t);
        debug_assert!(ok, "own write-back must not abort");
        self.cpus[cpu].stats.writebacks += 1;
        self.probe(|_| Probe::Cpu(cpu, end, EventKind::WriteBack { frame }));
        end
    }

    /// FIFO-overflow recovery (§3.3): invalidate every shared entry,
    /// rebuild the table from the (still-correct) private entries, and
    /// clear the flag. Privately owned pages are safe because requests
    /// for them are aborted and retried regardless of the lost words.
    fn recover_overflow(&mut self, cpu: usize, mut t: Nanos) -> Nanos {
        let t0 = t;
        self.cpus[cpu].stats.fifo_recoveries += 1;
        let per_slot = self.config.cpu.overflow_recovery_per_slot;
        let mut shared = std::mem::take(&mut self.frame_slots);
        let valid = self.cpus[cpu].cache.iter_valid();
        shared.extend(valid.filter(|(_, _, flags)| !flags.exclusive).map(|(slot, ..)| slot));
        let scanned = self.cpus[cpu].cache.valid_count() as u64;
        t += per_slot * scanned;
        for slot in shared.drain(..) {
            let frame = self.cpus[cpu].phys.frame_of(slot).expect("indexed slot");
            self.cpus[cpu].cache.invalidate(slot);
            self.cpus[cpu].phys.remove(frame, slot);
            self.cpus[cpu].stats.invalidations += 1;
            if self.cpus[cpu].phys.slots(frame).is_empty() {
                self.cpus[cpu].monitor.table_mut().set(frame, ActionCode::Ignore);
            }
        }
        self.frame_slots = shared;
        self.cpus[cpu].monitor.drain();
        self.cpus[cpu].monitor.clear_overflow();
        let (dur, scanned) = (t.saturating_sub(t0), scanned as u32);
        self.probe(|_| Probe::Cpu(cpu, t0, EventKind::FifoRecovery { dur, scanned }));
        t
    }

    // ------------------------------------------------------------------
    // Processor step
    // ------------------------------------------------------------------

    /// Runs one wake of `cpu`. Returns the end of an operation that
    /// finished ([`Exec::Done`]): its wake is left to the event loop,
    /// which delivers it inline or queues it. Every other outcome queues
    /// its own wake.
    fn step_cpu(&mut self, cpu: usize) -> Result<Option<Nanos>, MachineError> {
        let t = self.now;
        let c = &self.cpus[cpu];
        let quiet = c.monitor.pending() == 0 && !c.monitor.overflowed();
        // The common case: a running processor with nothing to service
        // or resume fetches its next operation.
        let (t, outcome) = if quiet && c.state == CpuState::Ready && c.pending.is_none() {
            self.cpus[cpu].attention.clear();
            (t, self.next_op(cpu, t)?)
        } else {
            match self.wake_up(cpu, t)? {
                Some(step) => step,
                None => return Ok(None),
            }
        };
        let done = match outcome {
            Exec::Done(end, result) => {
                self.cpus[cpu].last_result = result;
                self.cpus[cpu].retry_streak = 0;
                Some(end)
            }
            Exec::Compute(until) => {
                self.cpus[cpu].state = CpuState::Computing { until };
                self.cpus[cpu].retry_streak = 0;
                self.schedule_wake(cpu, until);
                None
            }
            Exec::Retry(at, pending) => {
                self.cpus[cpu].pending = Some(pending);
                self.cpus[cpu].stats.retries += 1;
                self.cpus[cpu].stats.stall_time += at.saturating_sub(t);
                self.schedule_wake(cpu, at);
                None
            }
            Exec::Park(deadline) => {
                self.cpus[cpu].state = CpuState::Parked;
                self.cpus[cpu].park_deadline = Some(deadline);
                self.schedule_wake(cpu, deadline);
                None
            }
            Exec::Halt => {
                self.cpus[cpu].state = CpuState::Halted;
                None
            }
        };
        if let Some(w) = self.watchdog {
            if let Err(e) = self.check_progress(cpu, w) {
                if let Some(end) = done {
                    self.schedule_wake(cpu, end);
                }
                return Err(e);
            }
        }
        Ok(done)
    }

    /// The general wake: services interrupt words, then moves a
    /// computing or parked processor on, or resumes its pending work.
    /// Returns the time the operation starts and its outcome, or `None`
    /// when the wake ends here.
    fn wake_up(&mut self, cpu: usize, t0: Nanos) -> Result<Option<(Nanos, Exec)>, MachineError> {
        let had_words = self.cpus[cpu].monitor.pending() > 0 || self.cpus[cpu].monitor.overflowed();
        // Interrupts are serviced between instructions, before any retry
        // or new op — this is what releases pages competitors wait for.
        let t = self.service_interrupts(cpu, t0);
        self.cpus[cpu].stats.stall_time += t - t0;

        // The interrupt handler returns before the program resumes: end
        // the step here so that events already queued by other processors
        // (e.g. retries of transactions we aborted) interleave with the
        // pages we just released. Without this, a spinning owner's flush
        // and reacquisition would be atomic and waiters could never win.
        if had_words && self.cpus[cpu].state == CpuState::Ready {
            self.schedule_wake(cpu, t);
            return Ok(None);
        }

        match self.cpus[cpu].state {
            CpuState::Halted => return Ok(None),
            CpuState::Computing { until } => {
                // Interrupt service pushed the block back by its duration.
                let until = until + (t - t0);
                if t < until {
                    self.cpus[cpu].state = CpuState::Computing { until };
                    self.schedule_wake(cpu, until);
                    return Ok(None);
                }
                self.cpus[cpu].state = CpuState::Ready;
                self.cpus[cpu].last_result = OpResult::None;
            }
            CpuState::Parked => {
                if let Some(va) = self.cpus[cpu].pending_notify.take() {
                    self.cpus[cpu].state = CpuState::Ready;
                    self.cpus[cpu].last_result = OpResult::Notified(va);
                    self.cpus[cpu].park_deadline = None;
                } else if self.cpus[cpu].park_deadline.is_some_and(|d| t >= d) {
                    // Timed out: resume with no result; the program retries.
                    self.cpus[cpu].state = CpuState::Ready;
                    self.cpus[cpu].last_result = OpResult::None;
                    self.cpus[cpu].park_deadline = None;
                } else {
                    // Still parked (woken only to service interrupts). This
                    // wake superseded every earlier one — including the
                    // park-deadline wake scheduled by `Exec::Park` — so the
                    // timeout must be re-armed or a dropped notification
                    // strands the processor forever.
                    if let Some(d) = self.cpus[cpu].park_deadline {
                        self.schedule_wake(cpu, d);
                    }
                    return Ok(None);
                }
            }
            CpuState::Ready => {}
        }

        let outcome = match self.cpus[cpu].pending.take() {
            Some(PendingWork::FullOp(op)) => self.execute(cpu, op, t)?,
            Some(PendingWork::FetchTx(cont)) => self.resume_fetch(cpu, cont, t),
            Some(PendingWork::UpgradeTx(cont)) => self.resume_upgrade(cpu, cont, t)?,
            None => self.next_op(cpu, t)?,
        };
        Ok(Some((t, outcome)))
    }

    /// Fetches the program's next operation and executes it from `t`.
    #[inline]
    fn next_op(&mut self, cpu: usize, t: Nanos) -> Result<Exec, MachineError> {
        let c = &mut self.cpus[cpu];
        let last = std::mem::take(&mut c.last_result);
        let op = c.program.as_mut().expect("ready CPU has a program").next_op(last);
        self.execute(cpu, op, t)
    }

    /// The liveness watchdog's per-step checks: retry streaks and page
    /// acquisitions that yield no completed reference.
    fn check_progress(&self, cpu: usize, w: ResolvedWatchdog) -> Result<(), MachineError> {
        let c = &self.cpus[cpu];
        let streak = u64::from(c.retry_streak);
        if streak > w.retry_limit {
            return Err(MachineError::Watchdog(WatchdogViolation::RetryStreak {
                cpu: c.id,
                streak,
                limit: w.retry_limit,
            }));
        }
        if c.zero_yield_acquires > w.zero_yield_limit {
            return Err(MachineError::Watchdog(WatchdogViolation::ZeroYieldAcquires {
                cpu: c.id,
                acquires: c.zero_yield_acquires,
                limit: w.zero_yield_limit,
            }));
        }
        Ok(())
    }

    #[inline]
    fn execute(&mut self, cpu: usize, op: Op, t: Nanos) -> Result<Exec, MachineError> {
        match op {
            Op::Compute(d) => {
                self.cpus[cpu].stats.useful_time += d;
                if d == Nanos::ZERO {
                    Ok(Exec::Done(t, OpResult::None))
                } else {
                    Ok(Exec::Compute(t + d))
                }
            }
            Op::Read(va) => self.mem_access(cpu, op, va, false, t),
            Op::Write(va, _) => self.mem_access(cpu, op, va, true, t),
            Op::Tas(va) => self.mem_access(cpu, op, va, true, t),
            Op::Notify(va) => self.do_notify(cpu, op, va, t),
            Op::WatchNotify(va) => self.do_watch(cpu, va, t),
            Op::WaitNotify => {
                if let Some(va) = self.cpus[cpu].pending_notify.take() {
                    Ok(Exec::Done(t, OpResult::Notified(va)))
                } else {
                    Ok(Exec::Park(t + self.config.cpu.notify_timeout))
                }
            }
            Op::UncachedRead(pa) => Ok(self.uncached_access(cpu, pa, None, false, t)),
            Op::UncachedWrite(pa, v) => Ok(self.uncached_access(cpu, pa, Some(v), false, t)),
            Op::UncachedTas(pa) => Ok(self.uncached_access(cpu, pa, None, true, t)),
            Op::Halt => Ok(Exec::Halt),
        }
    }

    /// A word access to uncached, globally-addressable physical memory
    /// (§5.4): one plain bus transaction, never checked by monitors.
    /// `tas` performs a read-modify-write cycle (two word times on the
    /// bus, atomic because the bus is held).
    fn uncached_access(
        &mut self,
        cpu: usize,
        pa: PhysAddr,
        write: Option<u32>,
        tas: bool,
        t: Nanos,
    ) -> Exec {
        let kind =
            if write.is_some() || tas { BusTxKind::PlainWrite } else { BusTxKind::PlainRead };
        let dur = if tas {
            self.bus.duration(kind) * 2 // read-modify-write cycle
        } else {
            self.bus.duration(kind)
        };
        let frame = FrameNum::new(pa.raw() / self.page_size().bytes());
        let tx = BusTransaction::new(kind, frame, self.cpus[cpu].id);
        let end = self.occupy(tx, t, dur, 0) + dur;
        self.cpus[cpu].stats.refs += 1;
        self.cpus[cpu].stats.useful_time += end.saturating_sub(t);
        let result = if tas {
            self.cpus[cpu].stats.reads += 1;
            self.cpus[cpu].stats.writes += 1;
            let old = self.memory.read_u32(pa);
            self.memory.write_u32(pa, 1);
            OpResult::Tas(old)
        } else if let Some(v) = write {
            self.cpus[cpu].stats.writes += 1;
            self.memory.write_u32(pa, v);
            OpResult::None
        } else {
            self.cpus[cpu].stats.reads += 1;
            OpResult::Read(self.memory.read_u32(pa))
        };
        Exec::Done(end, result)
    }

    /// Reserves one physical frame of uncached global memory (it is
    /// never mapped, so no cache can hold it) and returns the physical
    /// address of its first word — a home for §5.4 uncached locks.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfMemory`] when no frame is free.
    pub fn alloc_uncached_frame(&mut self) -> Result<PhysAddr, MachineError> {
        // Grab a frame through a throwaway kernel mapping, then unmap it:
        // the allocator keeps it allocated, nothing references it.
        let probe = VirtPageNum::new(0x00ff_ff00 + self.dma_protected.len() as u64);
        let frame = self.kernel.fault_in(
            Asid::KERNEL,
            probe,
            VirtAddr::new(probe.raw() * self.page_size().bytes()),
        )?;
        self.kernel.unmap(Asid::KERNEL, probe);
        Ok(self.page_size().frame_base(frame))
    }

    /// A read, write or TAS against the cache. The hit is kept small
    /// enough to inline into the event loop; ownership upgrades and
    /// misses run the software handlers out of line.
    #[inline]
    fn mem_access(
        &mut self,
        cpu: usize,
        op: Op,
        va: VirtAddr,
        is_write: bool,
        t: Nanos,
    ) -> Result<Exec, MachineError> {
        let asid = self.cpus[cpu].asid;
        match self.cpus[cpu].cache.lookup(asid, va) {
            Some(slot) if !is_write || self.cpus[cpu].cache.flags(slot).exclusive => {
                Ok(self.hit(cpu, op, va, slot, t))
            }
            Some(slot) => Ok(self.upgrade(cpu, op, va, slot, t)),
            None => self.miss(cpu, op, va, is_write, t),
        }
    }

    /// A write to a shared page: negotiate ownership (§2).
    #[inline(never)]
    fn upgrade(&mut self, cpu: usize, op: Op, va: VirtAddr, slot: SlotId, t: Nanos) -> Exec {
        let frame = self.cpus[cpu].phys.frame_of(slot).expect("resident slot indexed");
        let t1 = t + self.config.cpu.upgrade_software;
        self.issue_upgrade(cpu, UpgradeCont { op, va, slot, frame }, t1)
    }

    /// A miss: run the software handler. A read miss on a page marked
    /// non-shared (§5.4) fetches it private immediately, avoiding the
    /// assert-ownership upgrade on the first write.
    #[inline(never)]
    fn miss(
        &mut self,
        cpu: usize,
        op: Op,
        va: VirtAddr,
        is_write: bool,
        t: Nanos,
    ) -> Result<Exec, MachineError> {
        if is_write {
            self.cpus[cpu].stats.write_misses += 1;
        } else {
            self.cpus[cpu].stats.read_misses += 1;
        }
        let asid = self.cpus[cpu].asid;
        let vpn = self.page_size().vpn_of(va);
        let hinted = self.kernel.translate(asid, vpn).is_some_and(|pte| pte.hint_private);
        let want_private = is_write || hinted;
        let cause = if is_write { MissCause::Write } else { MissCause::Read };
        match self.fetch_page(cpu, asid, va, want_private, cause, t, 0)? {
            FetchOutcome::Restart(at) => Ok(Exec::Retry(at, PendingWork::FullOp(op))),
            FetchOutcome::TxAborted { at, frame, slot } => Ok(Exec::Retry(
                at,
                PendingWork::FetchTx(FetchCont { op, asid, va, want_private, cause, frame, slot }),
            )),
            FetchOutcome::Loaded { slot, end } => {
                self.cpus[cpu].stats.stall_time += end.saturating_sub(t);
                Ok(self.finish_access(cpu, op, va, slot, end))
            }
        }
    }

    /// Completes a memory access once the miss handler has made the page
    /// resident with the right ownership: the handler sets the page's
    /// referenced bit, and the reference retries as a hit.
    fn finish_access(&mut self, cpu: usize, op: Op, va: VirtAddr, slot: SlotId, t: Nanos) -> Exec {
        let (asid, vpn) = (self.cpus[cpu].asid, self.page_size().vpn_of(va));
        self.kernel.mark_used(asid, vpn, false);
        self.hit(cpu, op, va, slot, t)
    }

    /// A reference that hits a slot with the right ownership (a read, or
    /// a write or TAS to an exclusive page): one cache cycle, with no
    /// software involved. A write marks the page modified in its PTE.
    #[inline]
    fn hit(&mut self, cpu: usize, op: Op, va: VirtAddr, slot: SlotId, t: Nanos) -> Exec {
        let page = self.page_size();
        let offset = (page.offset_of(va.raw()) & !3) as usize;
        let (asid, write) = (self.cpus[cpu].asid, matches!(op, Op::Write(..) | Op::Tas(_)));
        self.probe(|_| Probe::Touch { cpu, asid, va, page, write });
        let c = &mut self.cpus[cpu];
        c.stats.useful_time += self.config.cpu.ref_cycle;
        c.stats.refs += 1;
        c.zero_yield_acquires = 0;
        let result = match op {
            Op::Write(_, v) => {
                c.stats.writes += 1;
                c.cache.write(slot, offset, &v.to_le_bytes());
                OpResult::None
            }
            Op::Tas(_) => {
                c.stats.writes += 1;
                c.stats.reads += 1;
                let old = read_u32(c.cache.read(slot, offset, 4));
                c.cache.write(slot, offset, &1u32.to_le_bytes());
                OpResult::Tas(old)
            }
            _ => {
                c.stats.reads += 1;
                OpResult::Read(read_u32(c.cache.read(slot, offset, 4)))
            }
        };
        if write {
            self.kernel.mark_used(asid, page.vpn_of(va), true);
        }
        Exec::Done(t + self.config.cpu.ref_cycle, result)
    }

    /// Issues (or re-issues) the assert-ownership transaction of a write
    /// upgrade.
    fn issue_upgrade(&mut self, cpu: usize, cont: UpgradeCont, t: Nanos) -> Exec {
        let cause = MissCause::Upgrade;
        self.probe(|_| Probe::Cpu(cpu, t, EventKind::MissBegin { cause }));
        let tx = BusTransaction::new(BusTxKind::AssertOwnership, cont.frame, self.cpus[cpu].id);
        let (end, ok) = self.bus_transaction(tx, t);
        if !ok {
            self.probe(|_| Probe::Cpu(cpu, end, EventKind::MissEnd { cause, completed: false }));
            let at = self.retry_at(cpu, end);
            return Exec::Retry(at, PendingWork::UpgradeTx(cont));
        }
        self.cpus[cpu].stats.upgrades += 1;
        // A private page is single-copy: drop our other aliases.
        self.drop_aliases(cpu, cont.frame, Some(cont.slot));
        self.cpus[cpu].cache.set_flags(cont.slot, SlotFlags::private_page());
        self.cpus[cpu].monitor.table_mut().set(cont.frame, ActionCode::Protect);
        self.cpus[cpu].zero_yield_acquires += 1;
        self.cpus[cpu].stats.stall_time += end.saturating_sub(t);
        let (asid, vpn, dur) = (self.cpus[cpu].asid, self.page_size().vpn_of(cont.va), end - t);
        self.probe(|_| Probe::Served { cpu, at: end, cause, asid, vpn, dur });
        self.finish_access(cpu, cont.op, cont.va, cont.slot, end)
    }

    /// Resumes an upgrade whose assert-ownership was aborted. If our
    /// shared copy was invalidated while we waited, fall back to a full
    /// re-execution (it will take the miss path).
    fn resume_upgrade(
        &mut self,
        cpu: usize,
        cont: UpgradeCont,
        t: Nanos,
    ) -> Result<Exec, MachineError> {
        let asid = self.cpus[cpu].asid;
        match self.cpus[cpu].cache.probe(asid, cont.va) {
            Some(slot) if slot == cont.slot => Ok(self.issue_upgrade(cpu, cont, t)),
            _ => self.execute(cpu, cont.op, t),
        }
    }

    /// Resumes a miss whose block-fetch transaction was aborted: re-issue
    /// just the transaction (§3.2) into the already-reserved victim slot.
    fn resume_fetch(&mut self, cpu: usize, cont: FetchCont, t: Nanos) -> Exec {
        let cause = cont.cause;
        self.probe(|_| Probe::Cpu(cpu, t, EventKind::MissBegin { cause }));
        let kind = if cont.want_private { BusTxKind::ReadPrivate } else { BusTxKind::ReadShared };
        let tx = BusTransaction::new(kind, cont.frame, self.cpus[cpu].id);
        let (end, ok) = self.bus_transaction(tx, t);
        if !ok {
            self.probe(|_| Probe::Cpu(cpu, end, EventKind::MissEnd { cause, completed: false }));
            let at = self.retry_at(cpu, end);
            return Exec::Retry(at, PendingWork::FetchTx(cont));
        }
        let slot = self.install_fetched(cpu, &cont);
        self.cpus[cpu].stats.stall_time += end.saturating_sub(t);
        let (asid, vpn, dur) = (cont.asid, self.page_size().vpn_of(cont.va), end - t);
        self.probe(|_| Probe::Served { cpu, at: end, cause, asid, vpn, dur });
        self.finish_access(cpu, cont.op, cont.va, slot, end)
    }

    /// Invalidates every slot of `cpu` holding `frame` except `keep`,
    /// without a write-back (the caller is taking the page private).
    fn drop_aliases(&mut self, cpu: usize, frame: FrameNum, keep: Option<SlotId>) {
        // Copied: the loop below mutates the cache and the index.
        let mut slots = std::mem::take(&mut self.frame_slots);
        slots.extend_from_slice(self.cpus[cpu].phys.slots(frame));
        for other in slots.drain(..) {
            if Some(other) != keep {
                self.cpus[cpu].cache.invalidate(other);
                self.cpus[cpu].phys.remove(frame, other);
            }
        }
        self.frame_slots = slots;
    }

    /// Installs the fetched page into the reserved slot and updates the
    /// software phys-index and action table.
    fn install_fetched(&mut self, cpu: usize, cont: &FetchCont) -> SlotId {
        if cont.want_private {
            // A private page must be the only copy anywhere, including our
            // own aliases under other virtual addresses.
            self.drop_aliases(cpu, cont.frame, None);
        }
        let flags =
            if cont.want_private { SlotFlags::private_page() } else { SlotFlags::shared_clean() };
        let vpn = self.page_size().vpn_of(cont.va);
        let data = self.memory.read(cont.frame, 0, self.page_bytes());
        self.cpus[cpu].cache.install(cont.slot, Tag::new(cont.asid, vpn), flags, data);
        self.cpus[cpu].phys.insert(cont.frame, cont.slot);
        let code =
            if cont.want_private { ActionCode::Protect } else { ActionCode::InterruptOnOwnership };
        self.cpus[cpu].monitor.table_mut().set(cont.frame, code);
        self.cpus[cpu].zero_yield_acquires += 1;
        self.probe(|_| Probe::Mapped(cont.frame, cont.asid, vpn));
        cont.slot
    }

    /// The software cache-miss handler (§2, §5.1): exception entry,
    /// translation (possibly nested PTE misses), victim write-back
    /// overlapped with bookkeeping, block fetch.
    #[allow(clippy::too_many_arguments)]
    fn fetch_page(
        &mut self,
        cpu: usize,
        asid: Asid,
        va: VirtAddr,
        want_private: bool,
        cause: MissCause,
        t: Nanos,
        depth: u8,
    ) -> Result<FetchOutcome, MachineError> {
        let t_begin = t;
        self.probe(|_| Probe::Cpu(cpu, t, EventKind::MissBegin { cause }));
        let t = t + self.config.cpu.miss_pre;

        // --- Translation, charging PTE cache traffic (§2). ---
        let vpn = self.page_size().vpn_of(va);
        let (frame, t) = match self.resolve_frame(cpu, asid, vpn, va, t, depth)? {
            ResolveOutcome::Frame(frame, t) => (frame, t),
            ResolveOutcome::Restart(at) => {
                self.probe(|_| Probe::Cpu(cpu, at, EventKind::MissEnd { cause, completed: false }));
                return Ok(FetchOutcome::Restart(at));
            }
        };

        // --- Victim selection and write-back (overlapped with `mid`). ---
        let victim = self.cpus[cpu].cache.victim_for(asid, va);
        let slot = victim.slot;
        let mut wb_end = t;
        if victim.evicted.is_some() {
            let vframe = self.cpus[cpu].phys.frame_of(slot).expect("victim is indexed");
            // The page leaves the cache before the slot is zeroed.
            if self.cpus[cpu].cache.flags(slot).modified {
                wb_end = self.write_back(cpu, slot, vframe, t);
            }
            self.cpus[cpu].cache.invalidate(slot).expect("victim is valid");
            self.cpus[cpu].phys.remove(vframe, slot);
            if self.cpus[cpu].phys.slots(vframe).is_empty() {
                self.cpus[cpu].monitor.table_mut().set(vframe, ActionCode::Ignore);
            }
        }
        let t = (t + self.config.cpu.miss_mid).max(wb_end) + self.config.cpu.miss_post;

        // --- Block fetch with ownership (§3.1). ---
        let kind = if want_private { BusTxKind::ReadPrivate } else { BusTxKind::ReadShared };
        let tx = BusTransaction::new(kind, frame, self.cpus[cpu].id);
        let (end, ok) = self.bus_transaction(tx, t);
        if !ok {
            self.probe(|_| Probe::Cpu(cpu, end, EventKind::MissEnd { cause, completed: false }));
            let at = self.retry_at(cpu, end);
            return Ok(FetchOutcome::TxAborted { at, frame, slot });
        }
        let cont = FetchCont { op: Op::Halt, asid, va, want_private, cause, frame, slot };
        let slot = self.install_fetched(cpu, &cont);
        // A nested (depth 1) miss is always a `Pte` miss, which the
        // recorder leaves to its enclosing miss's service time.
        self.probe(|_| Probe::Served { cpu, at: end, cause, asid, vpn, dur: end - t_begin });
        Ok(FetchOutcome::Loaded { slot, end })
    }

    /// Virtual-to-physical translation during miss handling. At depth 0
    /// the PTE is referenced *through the cache* (kernel space), so a
    /// cold PTE page costs a nested miss; beyond [`MAX_PT_DEPTH`] the
    /// root tables live in local memory (§2).
    fn resolve_frame(
        &mut self,
        cpu: usize,
        asid: Asid,
        vpn: VirtPageNum,
        va: VirtAddr,
        mut t: Nanos,
        depth: u8,
    ) -> Result<ResolveOutcome, MachineError> {
        if depth < MAX_PT_DEPTH {
            let pte_va = self.kernel.pte_va(asid, vpn);
            if self.cpus[cpu].cache.lookup(Asid::KERNEL, pte_va).is_some() {
                t += self.config.cpu.ref_cycle;
            } else {
                self.cpus[cpu].stats.pte_misses += 1;
                match self.fetch_page(
                    cpu,
                    Asid::KERNEL,
                    pte_va,
                    false,
                    MissCause::Pte,
                    t,
                    depth + 1,
                )? {
                    FetchOutcome::Loaded { end, .. } => t = end + self.config.cpu.ref_cycle,
                    FetchOutcome::TxAborted { at, .. } | FetchOutcome::Restart(at) => {
                        // Nested aborts restart the whole handler; PTE
                        // pages are rarely contended.
                        return Ok(ResolveOutcome::Restart(at));
                    }
                }
            }
        } else {
            // Root-table information in local memory: one local reference.
            t += self.config.cpu.ref_cycle;
        }
        let frame = match self.kernel.translate(asid, vpn) {
            Some(pte) => pte.frame,
            None => {
                // Real page fault: the OS allocates and zero-fills a frame.
                self.cpus[cpu].stats.page_faults += 1;
                t += self.config.cpu.page_fault;
                let frame = self.kernel.fault_in(asid, vpn, va)?;
                // Restore from the backing store if the page was
                // reclaimed earlier; otherwise demand-zero.
                match self.swap.remove(&(asid, vpn)) {
                    Some(bytes) => self.memory.write_frame(frame, &bytes),
                    None => self.memory.zero_frame(frame),
                }
                frame
            }
        };
        // Teach attribution the frame's identity *before* the block
        // fetch, so even a page's very first transaction attributes.
        self.probe(|_| Probe::Mapped(frame, asid, vpn));
        Ok(ResolveOutcome::Frame(frame, t))
    }

    // ------------------------------------------------------------------
    // Notification (§5.4)
    // ------------------------------------------------------------------

    fn do_notify(
        &mut self,
        cpu: usize,
        op: Op,
        va: VirtAddr,
        t: Nanos,
    ) -> Result<Exec, MachineError> {
        let asid = self.cpus[cpu].asid;
        let vpn = self.page_size().vpn_of(va);
        let frame = match self.kernel.translate(asid, vpn) {
            Some(pte) => pte.frame,
            None => return Err(MachineError::UnmappedNotify { asid, addr: va }),
        };
        let tx = BusTransaction::new(BusTxKind::Notify, frame, self.cpus[cpu].id);
        let (end, ok) = self.bus_transaction(tx, t);
        if !ok {
            let at = self.retry_at(cpu, end);
            return Ok(Exec::Retry(at, PendingWork::FullOp(op)));
        }
        self.cpus[cpu].stats.useful_time += end.saturating_sub(t);
        Ok(Exec::Done(end, OpResult::None))
    }

    fn do_watch(&mut self, cpu: usize, va: VirtAddr, t: Nanos) -> Result<Exec, MachineError> {
        let asid = self.cpus[cpu].asid;
        let vpn = self.page_size().vpn_of(va);
        let frame = match self.kernel.translate(asid, vpn) {
            Some(pte) => pte.frame,
            None => self.kernel.fault_in(asid, vpn, va)?,
        };
        // Flush any cached copy first: one action-table entry per frame,
        // and a watched frame must not be cached (the notify code `11`
        // replaces the consistency codes).
        let t1 = self.flush_frame(cpu, frame, false, t);
        // Standalone table update: the explicit write-action-table
        // transaction (§3.1).
        let tx = BusTransaction::new(BusTxKind::WriteActionTable, frame, self.cpus[cpu].id);
        let (end, _ok) = self.bus_transaction(tx, t1);
        self.cpus[cpu].monitor.table_mut().set(frame, ActionCode::NotifyWatch);
        self.cpus[cpu].watches.insert(frame, va);
        self.cpus[cpu].stats.stall_time += end.saturating_sub(t);
        Ok(Exec::Done(end, OpResult::None))
    }

    // ------------------------------------------------------------------
    // Kernel-level operations (§3.3, §3.4)
    // ------------------------------------------------------------------

    /// Changes the mapping of ⟨asid, va⟩ to `new_frame`, executing the
    /// §3.4 translation-consistency sequence on processor `by`:
    /// read-private of the PTE page, assert-ownership on the old frame
    /// (flushing every cached copy machine-wide), table update, release.
    ///
    /// Returns the old frame.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    ///
    /// # Panics
    ///
    /// Panics if the page is not currently mapped (a kernel bug).
    pub fn change_mapping(
        &mut self,
        by: usize,
        asid: Asid,
        va: VirtAddr,
        new_frame: FrameNum,
    ) -> Result<FrameNum, MachineError> {
        self.check_cpu(by)?;
        let vpn = self.page_size().vpn_of(va);
        let old = self.kernel.translate(asid, vpn).expect("change_mapping of unmapped page");
        let t = self.now;
        // 1. Exclusive ownership of the PTE page.
        let pte_va = self.kernel.pte_va(asid, vpn);
        let t = self.fetch_private_for_kernel(by, pte_va, t)?;
        // 2. Assert-ownership on the old frame: every cache discards or
        //    writes back its copies (their monitors interrupt them).
        let t = self.flush_own_then_assert(by, old.frame, t);
        // 3. Update the page table.
        let mut pte = old;
        pte.frame = new_frame;
        pte.referenced = false;
        pte.modified = false;
        self.kernel.map(asid, vpn, pte);
        // 4. Release ownership of the asserted frame (we never cached it).
        self.cpus[by].monitor.table_mut().set(old.frame, ActionCode::Ignore);
        self.now = self.now.max(t);
        Ok(old.frame)
    }

    /// Deletes an address space (§3.4): assert-ownership on every
    /// resident page so all caches flush, then unmap and free frames.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    pub fn delete_address_space(&mut self, by: usize, asid: Asid) -> Result<(), MachineError> {
        self.check_cpu(by)?;
        let mut t = self.now;
        for (_, frame) in self.kernel.resident_pages(asid) {
            t = self.flush_own_then_assert(by, frame, t);
            self.cpus[by].monitor.table_mut().set(frame, ActionCode::Ignore);
        }
        self.kernel.destroy_space(asid);
        self.swap.retain(|(a, _), _| *a != asid);
        self.now = self.now.max(t);
        Ok(())
    }

    /// Marks a mapped page as non-shared (§5.4): subsequent read misses
    /// fetch it private, eliminating the later assert-ownership upgrade.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnmappedNotify`] (reused for "operation on
    /// unmapped page") if the page has no mapping yet.
    pub fn set_private_hint(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        hint: bool,
    ) -> Result<(), MachineError> {
        let vpn = self.page_size().vpn_of(va);
        if self.kernel.set_private_hint(asid, vpn, hint) {
            Ok(())
        } else {
            Err(MachineError::UnmappedNotify { asid, addr: va })
        }
    }

    /// Page-out daemon, pass 1 (§3.4): clears the referenced/modified
    /// bits of every resident page of `asid` and flushes the pages from
    /// all caches with assert-ownership, so that subsequent touches miss
    /// and re-set the reference information. Returns how many pages had
    /// been referenced since the previous sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    pub fn sweep_reference_bits(&mut self, by: usize, asid: Asid) -> Result<usize, MachineError> {
        self.check_cpu(by)?;
        let mut t = self.now;
        let mut referenced = 0;
        for (vpn, frame) in self.kernel.resident_pages(asid) {
            if self.kernel.clear_referenced(asid, vpn) {
                referenced += 1;
            }
            t = self.flush_own_then_assert(by, frame, t);
            self.cpus[by].monitor.table_mut().set(frame, ActionCode::Ignore);
        }
        self.now = self.now.max(t);
        Ok(referenced)
    }

    /// Page-out daemon, pass 2 (§3.4): reclaims every resident page of
    /// `asid` that has not been referenced since the last sweep — its
    /// contents go to the backing store and its frame is freed. Returns
    /// the reclaimed virtual pages.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoSuchProcessor`] for a bad index.
    pub fn reclaim_unreferenced(
        &mut self,
        by: usize,
        asid: Asid,
    ) -> Result<Vec<VirtPageNum>, MachineError> {
        self.check_cpu(by)?;
        let mut t = self.now;
        let mut reclaimed = Vec::new();
        for (vpn, frame) in self.kernel.resident_pages(asid) {
            let pte = self.kernel.translate(asid, vpn).expect("resident");
            if pte.referenced {
                continue;
            }
            // Flush all cached copies (writing back any dirty owner), so
            // memory holds the authoritative bytes, then save and free.
            t = self.flush_own_then_assert(by, frame, t);
            self.cpus[by].monitor.table_mut().set(frame, ActionCode::Ignore);
            let bytes = self.memory.read_frame(frame);
            if self.kernel.reclaim(asid, vpn).is_some() {
                self.swap.insert((asid, vpn), bytes);
                reclaimed.push(vpn);
            }
        }
        self.now = self.now.max(t);
        Ok(reclaimed)
    }

    /// Acquires the page at `va` (kernel space) privately into `by`'s
    /// cache, for PTE-page ownership. The kernel holds the CPU, so owner
    /// reactions are serviced synchronously.
    fn fetch_private_for_kernel(
        &mut self,
        by: usize,
        va: VirtAddr,
        t: Nanos,
    ) -> Result<Nanos, MachineError> {
        if let Some(slot) = self.cpus[by].cache.lookup(Asid::KERNEL, va) {
            if self.cpus[by].cache.flags(slot).exclusive {
                return Ok(t);
            }
        }
        let mut t = t;
        let mut iterations: u64 = 0;
        loop {
            match self.fetch_page(by, Asid::KERNEL, va, true, MissCause::Kernel, t, 0)? {
                FetchOutcome::Loaded { end, .. } => return Ok(end),
                FetchOutcome::TxAborted { at, .. } | FetchOutcome::Restart(at) => {
                    let t1 = self.service_interrupts(by, at);
                    t = self.service_all_other(by, t1);
                }
            }
            iterations += 1;
            // The loop is unbounded in the benign protocol (it always
            // converges); cap it only under a watchdog so a hostile fault
            // plan cannot livelock the simulator inside one event.
            if let Some(w) = self.watchdog {
                if iterations > w.retry_limit {
                    return Err(MachineError::Watchdog(WatchdogViolation::KernelLoopStuck {
                        cpu: self.cpus[by].id,
                        what: "fetch-private-for-kernel",
                        iterations,
                    }));
                }
            }
        }
    }

    /// Flushes `by`'s own copies of `frame`, then issues assert-ownership
    /// so every other cache flushes too; leaves `by`'s table entry at
    /// `Protect`. Used by DMA setup and the §3.4 sequences.
    ///
    /// These kernel sequences hold the issuing CPU, so when an owner
    /// aborts the assert, the owner's consistency interrupt is serviced
    /// synchronously here (in the running machine the owner's handler
    /// would run at its next instruction boundary).
    fn flush_own_then_assert(&mut self, by: usize, frame: FrameNum, t: Nanos) -> Nanos {
        // Own copies would make our own monitor abort the assert (alias
        // rule), so drop them first.
        let mut t = self.flush_frame(by, frame, false, t);
        // Already protected by this board with nothing cached (e.g. an
        // overlapping DMA on the same frame): the assert would only abort
        // against our own protection.
        if self.cpus[by].monitor.table().get(frame) == ActionCode::Protect
            && self.cpus[by].phys.slots(frame).is_empty()
        {
            return t;
        }
        let mut iterations: u64 = 0;
        loop {
            let tx = BusTransaction::new(BusTxKind::AssertOwnership, frame, self.cpus[by].id);
            let (end, ok) = self.bus_transaction(tx, t);
            if ok {
                self.cpus[by].monitor.table_mut().set(frame, ActionCode::Protect);
                return end;
            }
            // Some owner aborted us: let every other board service its
            // pending words (write back / invalidate), then retry.
            t = self.service_all_other(by, end + self.config.cpu.retry_backoff);
            iterations += 1;
            // This path cannot return an error (DMA setup drives it from
            // the event loop), so a watchdog-capped livelock is parked in
            // `stuck` for the event loop to surface.
            if let Some(w) = self.watchdog {
                if iterations > w.retry_limit {
                    self.stuck = Some(WatchdogViolation::KernelLoopStuck {
                        cpu: self.cpus[by].id,
                        what: "flush-own-then-assert",
                        iterations,
                    });
                    return end;
                }
            }
        }
    }

    /// Services the pending interrupt words of every processor except
    /// `by`; used by kernel sequences that block the issuing CPU.
    fn service_all_other(&mut self, by: usize, t: Nanos) -> Nanos {
        let mut latest = t;
        for j in 0..self.cpus.len() {
            if j != by && self.cpus[j].monitor.pending() > 0 {
                let end = self.service_interrupts(j, t);
                self.cpus[j].stats.stall_time += end - t;
                latest = latest.max(end);
            }
        }
        latest
    }

    // ------------------------------------------------------------------
    // DMA (§3.3)
    // ------------------------------------------------------------------

    fn step_dma(&mut self, handle: usize) {
        let t = self.now;
        // Wait for a serialized predecessor on the same frames.
        if let Some(pred) = self.dmas[handle].blocked_on {
            if self.dmas[pred].phase != DmaPhase::Done {
                let seq = self.dmas[handle].bump_seq();
                self.queue.schedule(t + Nanos::from_us(10), Event::Dma { dma: handle, seq });
                return;
            }
            self.dmas[handle].blocked_on = None;
        }
        let host = self.dmas[handle].host;
        let phase = self.dmas[handle].phase;
        match phase {
            DmaPhase::Setup(idx) => {
                let frame = self.dmas[handle].request.frames[idx];
                let end = self.flush_own_then_assert(host, frame, t);
                self.dma_protected.insert(frame, host);
                let next = if idx + 1 < self.dmas[handle].request.frames.len() {
                    DmaPhase::Setup(idx + 1)
                } else {
                    DmaPhase::Transfer(0)
                };
                self.dmas[handle].phase = next;
                let seq = self.dmas[handle].bump_seq();
                self.queue.schedule(end, Event::Dma { dma: handle, seq });
            }
            DmaPhase::Transfer(idx) => {
                let frame = self.dmas[handle].request.frames[idx];
                let page = self.page_bytes();
                let (kind, write_to_mem) = match self.dmas[handle].request.direction {
                    DmaDirection::ToMemory => (BusTxKind::PlainWrite, true),
                    DmaDirection::FromMemory => (BusTxKind::PlainRead, false),
                };
                let tx = BusTransaction::new(kind, frame, self.dmas[handle].id);
                // Transient copier errors on the DMA stream: bounded
                // retry, each failed attempt costs one transfer time.
                let failures = self.fault_hook.copier_failures(t, &tx);
                let dur =
                    self.memory.timings().page_transfer_with_retries(self.page_size(), failures);
                self.fault_stats.copier_retries += u64::from(failures);
                self.fault_stats.copier_retry_time += dur - self.memory.page_transfer_time();
                let start = self.occupy(tx, t, dur, failures);
                let dma = &mut self.dmas[handle];
                if write_to_mem {
                    self.memory.write_frame(frame, &dma.request.data[idx * page..][..page]);
                } else {
                    dma.buffer.extend_from_slice(self.memory.read(frame, 0, page));
                }
                // Monitors ignore plain transfers, but observe them anyway
                // for completeness (no action-table code reacts).
                for c in &mut self.cpus {
                    let _ = c.monitor.observe(&tx);
                }
                let next = if idx + 1 < self.dmas[handle].request.frames.len() {
                    DmaPhase::Transfer(idx + 1)
                } else {
                    DmaPhase::Teardown
                };
                self.dmas[handle].phase = next;
                let seq = self.dmas[handle].bump_seq();
                self.queue.schedule(start + dur, Event::Dma { dma: handle, seq });
            }
            DmaPhase::Teardown => {
                for i in 0..self.dmas[handle].request.frames.len() {
                    let frame = self.dmas[handle].request.frames[i];
                    self.cpus[host].monitor.table_mut().set(frame, ActionCode::Ignore);
                    self.dma_protected.remove(&frame);
                }
                self.dmas[handle].phase = DmaPhase::Done;
            }
            DmaPhase::Done => {}
        }
    }
}

/// The processors' clocks as the per-event sample reads them.
struct Clocks<'a>(&'a [Cpu]);

impl CpuClocks for Clocks<'_> {
    fn clocks(&self, cpu: usize) -> (Nanos, Nanos) {
        let s = &self.0[cpu].stats;
        (s.useful_time, s.stall_time)
    }
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// Kinds eligible for spurious abort injection: exactly those whose
/// issuers retry on a protocol abort. Write-backs are *never* aborted
/// (the machine `debug_assert`s on it) and plain/table-update cycles
/// ignore the abort line entirely.
const fn can_inject_abort(kind: BusTxKind) -> bool {
    matches!(
        kind,
        BusTxKind::ReadShared
            | BusTxKind::ReadPrivate
            | BusTxKind::AssertOwnership
            | BusTxKind::Notify
    )
}

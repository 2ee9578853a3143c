//! Versioned machine snapshots: capture the complete simulator state
//! between events and resume it bit-identically.
//!
//! A [`MachineSnapshot`] records everything that influences the
//! continuation of a run — cache slots and LRU clocks, page tables and
//! the frame free list, bus-monitor action tables and interrupt FIFOs,
//! the live bus reservation book, the event queue with its FIFO
//! tie-breakers, per-processor execution state (including mid-operation
//! retry continuations), DMA progress, swap contents, fault-injector RNG
//! streams, and every statistics counter. Observability rings are *not*
//! captured: they are pure outputs that never feed back into execution.
//!
//! The container is a small binary envelope: an 8-byte magic
//! (`VMPSNAP\x02`), a length-prefixed JSON header describing the state
//! tree, a length-prefixed raw byte blob holding bulk data (memory
//! frames, cache pages, swap pages, DMA buffers), and an 8-byte checksum
//! of everything before it. The header references blob ranges with
//! `{"$blob": offset, "len": length}` objects, which also lets
//! [`MachineSnapshot::diff`] compare two snapshots structurally and
//! report the first divergent field or byte.
//!
//! The header layout is the field lists below (see [`crate::codec`]): the
//! same list drives both [`Machine::snapshot`] and [`Machine::resume`].
//! Components whose state sits behind accessors (bus, cache, monitor,
//! kernel, ...) go through a small state record, converted once in each
//! direction.
//!
//! Programs and fault hooks hold trait objects the machine cannot
//! construct on its own, so [`Machine::resume`] takes caller-supplied
//! fresh instances and rewinds them with [`Program::restore_state`] /
//! [`vmp_bus::FaultHook::restore_state`].

use std::collections::BTreeMap;

use vmp_bus::{ActionCode, BusMonitor, BusStats, BusTxKind, FaultHook, InterruptWord, VmeBus};
use vmp_cache::{DataCache, SlotFlags, SlotId, Tag};
use vmp_mem::MainMemory;
use vmp_obs::json::{parse, Value};
use vmp_obs::MissCause;
use vmp_sim::{AttentionClock, BusyTracker, EventQueue};
use vmp_types::{Asid, FrameNum, Nanos, VirtAddr, VirtPageNum};
use vmp_vm::Pte;

use crate::codec::{bad, get, merge, within, Codec, Dec, Enc, Leaf, Page};
use crate::dma::{DmaDirection, DmaEngine, DmaPhase, DmaRequest};
use crate::machine::{Cpu, CpuState, Event, FetchCont, PendingWork, UpgradeCont};
use crate::{
    FaultStats, Kernel, Machine, MachineConfig, MachineError, PhysIndex, ProcessorStats, Program,
};

/// Container magic: "VMPSNAP" plus a one-byte format version.
const MAGIC: &[u8; 8] = b"VMPSNAP\x02";

/// Header format version, checked on resume.
const VERSION: u64 = 2;

/// The container's checksum: a 64-bit hash of `bytes` taken eight
/// little-endian bytes at a time (the last word zero-padded), then of
/// the length. Each step maps the running state through a bijection of
/// `state ^ word` (an odd multiply, then an xor-shift), so two inputs of
/// equal length that differ in a single word always hash differently:
/// any one corrupted byte is caught, not just most.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(K);
        h ^ h >> 29
    };
    let mut words = bytes.chunks_exact(8);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunks"));
    let mut h = words.by_ref().fold(0, |h, w| mix(h, word(w)));
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    mix(h, bytes.len() as u64)
}

/// A complete, versioned capture of a [`Machine`]'s state.
///
/// Produced by [`Machine::snapshot`], consumed by [`Machine::resume`].
/// Serializes to a stable byte string with [`MachineSnapshot::to_bytes`]
/// — the same machine state always produces the same bytes, so snapshots
/// can be committed as golden regression artifacts and byte-compared.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot {
    header: Value,
    blob: Vec<u8>,
}

fn corrupt(detail: impl Into<String>) -> MachineError {
    MachineError::SnapshotCorrupt { detail: detail.into() }
}

fn mismatch(detail: impl Into<String>) -> MachineError {
    MachineError::SnapshotMismatch { detail: detail.into() }
}

// ----------------------------------------------------------------------
// The header's field lists
// ----------------------------------------------------------------------

record! {
    /// The machine shape a snapshot resumes into (checked, not restored).
    #[derive(Debug, PartialEq)]
    struct ConfigDigest {
        processors: usize, page_size: u64, sets: usize, ways: usize, memory_bytes: u64,
        obs_enabled: bool,
    }
}

impl ConfigDigest {
    fn of(c: &MachineConfig) -> Self {
        let (processors, memory_bytes, obs_enabled) = (c.processors, c.memory_bytes, c.obs.enabled);
        let (page_size, sets, ways) =
            (c.cache.page_size().bytes(), c.cache.sets(), c.cache.associativity());
        ConfigDigest { processors, page_size, sets, ways, memory_bytes, obs_enabled }
    }
}

// The header is `version`, `config`, these fields, `fault_hook`, `cpus`.
// Observability is not captured, the watchdog is rebuilt from the
// config, a latched violation refuses the snapshot, and the reused
// buffers are empty between events, so they hold no state.
record! { in_place Machine {
    now, events_delivered, queue, bus, memory, kernel, swap, dma_protected, dmas, fault_stats,
} skip { config, cpus, fault_hook, obs, watchdog, stuck, snooped, frame_slots } }

// Each processor is these fields, then `program`.
record! { in_place Cpu {
    asid, state, pending, last_result, wake_seq, wake_pending, watches, pending_notify,
    park_deadline, retry_streak, zero_yield_acquires, attention, stats, cache, monitor, phys,
} skip { id, program } }

record! { FaultStats {
    injected_aborts, dropped_words, forced_overflows, copier_retries, copier_retry_time, stalls,
    stall_time,
} }
record! { ProcessorStats {
    refs, reads, writes, read_misses, write_misses, upgrades, pte_misses, page_faults, writebacks,
    retries, consistency_interrupts, invalidations, downgrades, notifies, fifo_recoveries,
    violations, useful_time, stall_time,
} }
record! { FetchCont { op, asid, va, want_private, cause, frame, slot } }
record! { UpgradeCont { op, va, slot, frame } }
record! { Pte { frame, writable, supervisor_only, referenced, modified, hint_private } }
record! { InterruptWord { kind, frame, issuer } }
record! { Tag { asid, vpn } }
record! { SlotId { set, way } check |s, cx| {
    cx.below("set", s.set, cx.sets)?;
    cx.below("way", s.way, cx.ways)?;
} }
record! { DmaRequest { direction, frames, data } }
record! { DmaEngine { id, host, request @flat, phase, blocked_on, buffer, seq } check |d, cx| {
    cx.below("host", d.host, cx.cpus)?;
    d.blocked_on.map(|b| cx.below("blocked_on", b, cx.dmas)).transpose()?;
    if let DmaPhase::Setup(i) | DmaPhase::Transfer(i) = d.phase {
        cx.below("phase frame", i, d.request.frames.len())?;
    }
    let (frames, data) = (d.request.frames.len(), d.request.data.len());
    let to_memory = d.request.direction == DmaDirection::ToMemory;
    if frames == 0 || data != usize::from(to_memory) * frames * cx.page {
        return Err(bad(format!("{frames} frames with {data} bytes of data")));
    }
} }

tagged! { CpuState {
    "halted" => Halted(), "ready" => Ready(), "parked" => Parked(),
    "computing" => Computing { until },
} }
tagged! { PendingWork {
    "full_op" => FullOp(op), "fetch" => FetchTx(..), "upgrade" => UpgradeTx(..),
} }
tagged! { DmaPhase {
    "setup" => Setup(i), "transfer" => Transfer(i), "teardown" => Teardown(), "done" => Done(),
} }
names! { MissCause {
    Read = "read", Write = "write", Upgrade = "upgrade", Pte = "pte", Kernel = "kernel",
} }
names! { DmaDirection { ToMemory = "to_mem", FromMemory = "from_mem" } }
// Positions match `BusStats::counts_raw`.
names! { BusTxKind [
    ReadShared, ReadPrivate, AssertOwnership, WriteBack, Notify, WriteActionTable, PlainRead,
    PlainWrite,
] }

record! { struct QueueState { next_seq: u64, entries: Vec<QueueEntry> } }
record! { struct QueueEntry { t: Nanos, qseq: u64, kind: EventKind, idx: usize, seq: u64 } }
#[derive(Clone, Copy, PartialEq)]
enum EventKind {
    Wake,
    Dma,
}
names! { EventKind { Wake = "wake", Dma = "dma" } }
via! { EventQueue<Event> as QueueState {
    enc |q| {
        let entry = |(t, qseq, event)| {
            let (kind, idx, seq) = match event {
                Event::Wake { cpu, seq } => (EventKind::Wake, cpu, seq),
                Event::Dma { dma, seq } => (EventKind::Dma, dma, seq),
            };
            QueueEntry { t, qseq, kind, idx, seq }
        };
        QueueState { next_seq: q.next_seq(), entries: q.entries().into_iter().map(entry).collect() }
    },
    dec |q, state, cx| {
        let mut entries = Vec::with_capacity(state.entries.len());
        for (i, QueueEntry { t, qseq, kind, idx, seq }) in state.entries.into_iter().enumerate() {
            let (what, bound) = match kind {
                EventKind::Wake => ("processor", cx.cpus),
                EventKind::Dma => ("DMA engine", cx.dmas),
            };
            let at = |e| within(format_args!(".entries[{i}]"), e);
            let idx = cx.below(what, idx, bound).map_err(at)?;
            entries.push((t, qseq, match kind {
                EventKind::Wake => Event::Wake { cpu: idx, seq },
                EventKind::Dma => Event::Dma { dma: idx, seq },
            }));
        }
        *q = EventQueue::restore(state.next_seq, entries);
    },
} }

record! { struct BusState {
    bookings: Vec<(Nanos, Nanos)>, watermark: Nanos, counts: [u64; 8], abort_counts: [u64; 8],
    aborts: u64, injected_aborts: u64, busy: Nanos, busy_intervals: u64, arb_wait_total: Nanos,
    arb_wait_max: Nanos, reservations: u64,
} }
via! { VmeBus as BusState {
    enc |bus| {
        let ((bookings, watermark), s) = (bus.bookings(), bus.stats());
        let (counts, abort_counts) = (s.counts_raw(), s.abort_counts_raw());
        let (busy, busy_intervals) = (s.busy.busy(), s.busy.intervals());
        let &BusStats { aborts, injected_aborts, arb_wait_total, arb_wait_max, reservations, .. } =
            s;
        BusState { bookings, watermark, counts, abort_counts, aborts, injected_aborts, busy,
            busy_intervals, arb_wait_total, arb_wait_max, reservations }
    },
    dec |bus, b, _cx| {
        bus.restore_bookings(b.bookings, b.watermark);
        let s = bus.stats_mut();
        s.restore_raw_counts(b.counts, b.abort_counts);
        (s.aborts, s.injected_aborts) = (b.aborts, b.injected_aborts);
        (s.reservations, s.arb_wait_total, s.arb_wait_max) =
            (b.reservations, b.arb_wait_total, b.arb_wait_max);
        s.busy = BusyTracker::restore(b.busy, b.busy_intervals);
    },
} }

// Only frames with non-zero content: resume starts from zeroed memory.
record! { struct FrameData<'a> { frame: FrameNum, data: Page<'a> } }
via! { MainMemory as Vec<FrameData<'_>> {
    enc |mem| {
        let frames = mem.written_frames().filter(|(_, bytes)| bytes.iter().any(|&b| b != 0));
        frames.map(|(frame, bytes)| FrameData { frame, data: Page(bytes.into()) }).collect::<Vec<_>>()
    },
    dec |mem, frames, _cx| {
        frames.into_iter().for_each(|f| mem.write_frame(f.frame, &f.data.0));
    },
} }

// Free frames as `[first, length]` runs, ascending, disjoint and
// non-adjacent; none may hold a mapped frame.
record! { struct KernelState { free: Vec<(FrameNum, u64)>, spaces: Vec<Space> } }
record! { struct Space { asid: Asid, pages: Vec<PageEntry> } }
record! { struct PageEntry { vpn: VirtPageNum, pte @flat: Pte } }
via! { Kernel as KernelState {
    enc |k| {
        let pages = |asid| k.space(asid).into_iter().flat_map(|s| s.iter());
        let pages = |asid| pages(asid).map(|(vpn, &pte)| PageEntry { vpn, pte }).collect();
        let spaces = k.asids().into_iter().map(|asid| Space { asid, pages: pages(asid) });
        KernelState { free: k.free_runs().collect(), spaces: spaces.collect() }
    },
    dec |k, state, _cx| {
        for Space { asid, pages } in state.spaces {
            k.space_mut(asid); // an empty space still exists
            pages.into_iter().for_each(|p| _ = k.map(asid, p.vpn, p.pte));
        }
        k.restore_free_runs(state.free).map_err(|e| within(".free", bad(e)))?;
    },
} }

record! { struct SwapPage<'a> { asid: Asid, vpn: VirtPageNum, data: Page<'a> } }
via! { BTreeMap<(Asid, VirtPageNum), Vec<u8>> as Vec<SwapPage<'_>> {
    enc |m| {
        let pages = m.iter().map(|(&(asid, vpn), data)| (asid, vpn, Page(data.into())));
        pages.map(|(asid, vpn, data)| SwapPage { asid, vpn, data }).collect::<Vec<_>>()
    },
    dec |m, pages, _cx| {
        *m = pages.into_iter().map(|p| ((p.asid, p.vpn), p.data.0.into_owned())).collect();
    },
} }

record! { struct Protected { frame: FrameNum, host: usize } }
via! { BTreeMap<FrameNum, usize> as Vec<Protected> {
    enc |m| m.iter().map(|(&frame, &host)| Protected { frame, host }).collect::<Vec<_>>(),
    dec |m, all, cx| {
        let entries = all.into_iter().map(|p| Ok((p.frame, cx.below("host", p.host, cx.cpus)?)));
        *m = entries.collect::<Result<_, MachineError>>()?;
    },
} }

record! { struct Watch { frame: FrameNum, va: VirtAddr } }
via! { BTreeMap<FrameNum, VirtAddr> as Vec<Watch> {
    enc |m| m.iter().map(|(&frame, &va)| Watch { frame, va }).collect::<Vec<_>>(),
    dec |m, all, _cx| *m = all.into_iter().map(|w| (w.frame, w.va)).collect(),
} }

// When attention was first needed, or `null`.
via! { AttentionClock as Option<Nanos> {
    enc |a| a.since(),
    dec |clock, since, _cx| {
        *clock = AttentionClock::new();
        since.into_iter().for_each(|t| clock.note(t));
    },
} }

record! { struct CacheState<'a> { clock: u64, slots: Vec<CachedPage<'a>> } }
record! { struct CachedPage<'a> {
    id @flat: SlotId, tag @flat: Tag, flags: SlotFlags, last_use: u64, data: Page<'a>,
} }
via! { DataCache as CacheState<'_> {
    enc |c| {
        let page = |id| Page(c.read(id, 0, c.config().page_size().bytes() as usize).into());
        let slots = c.iter_valid().map(|(id, tag, flags)| {
            CachedPage { id, tag, flags, last_use: c.last_use(id), data: page(id) }
        });
        CacheState { clock: c.clock(), slots: slots.collect() }
    },
    dec |c, state, _cx| {
        for s in state.slots {
            c.restore_slot(s.id, s.tag, s.flags, s.last_use, s.data.0);
        }
        c.restore_clock(state.clock);
    },
} }

record! { struct MonitorState {
    table: Vec<Action>, fifo: Vec<InterruptWord>, overflow: bool, queued_total: u64,
    dropped_total: u64,
} }
record! { struct Action { frame: FrameNum, code: ActionCode } }
via! { BusMonitor as MonitorState {
    enc |m| MonitorState {
        table: m.table().iter_active().map(|(frame, code)| Action { frame, code }).collect(),
        fifo: m.pending_words().copied().collect(),
        overflow: m.overflowed(),
        queued_total: m.queued_total(),
        dropped_total: m.dropped_total(),
    },
    dec |m, s, cx| {
        cx.below("FIFO word count", s.fifo.len(), vmp_bus::FIFO_CAPACITY + 1)?;
        s.table.into_iter().for_each(|a| m.table_mut().set(a.frame, a.code));
        m.restore_fifo(s.fifo, s.overflow, s.queued_total, s.dropped_total);
    },
} }

record! { struct Cached { frame: FrameNum, slot: SlotId } }
via! { PhysIndex as Vec<Cached> {
    enc |p| p.iter().map(|(frame, slot)| Cached { frame, slot }).collect::<Vec<_>>(),
    dec |p, all, _cx| all.into_iter().for_each(|c| p.insert(c.frame, c.slot)),
} }

// ----------------------------------------------------------------------
// Snapshot container
// ----------------------------------------------------------------------

impl MachineSnapshot {
    /// The snapshot's caller-attached metadata, if any (see
    /// [`MachineSnapshot::set_meta`]).
    pub fn meta(&self) -> Option<&Value> {
        self.header.get("meta")
    }

    /// Attaches (or replaces) caller metadata — workload tags, seeds,
    /// sweep-cell labels — carried inside the snapshot header.
    pub fn set_meta(&mut self, meta: Value) {
        if let Value::Obj(pairs) = &mut self.header {
            match pairs.iter_mut().find(|(k, _)| k == "meta") {
                Some(slot) => slot.1 = meta,
                None => pairs.push(("meta".to_string(), meta)),
            }
        }
    }

    /// The header tree (for inspection and tooling).
    pub fn header(&self) -> &Value {
        &self.header
    }

    /// The header tree, for tools and tests that edit a captured state
    /// before resuming it.
    pub fn header_mut(&mut self) -> &mut Value {
        &mut self.header
    }

    /// Serializes to the stable binary container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = self.header.to_string().into_bytes();
        let mut out = Vec::with_capacity(MAGIC.len() + 24 + header.len() + self.blob.len());
        out.extend_from_slice(MAGIC);
        for section in [&header, &self.blob] {
            out.extend_from_slice(&(section.len() as u64).to_le_bytes());
            out.extend_from_slice(section);
        }
        out.extend_from_slice(&checksum(&out).to_le_bytes());
        out
    }

    /// Decodes a container produced by [`MachineSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::SnapshotCorrupt`] on bad magic (including
    /// another format version's), a checksum mismatch, truncation or
    /// malformed header JSON.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MachineError> {
        if !bytes.starts_with(MAGIC) {
            let found = match bytes.get(..8) {
                Some(m) if m.starts_with(b"VMPSNAP") => format!("format version {}", m[7]),
                _ => "not a VMP snapshot".into(),
            };
            return Err(corrupt(format!(
                "bad magic ({found}; this build reads version {VERSION})"
            )));
        }
        let (body, sum) = bytes.split_at(bytes.len().saturating_sub(8).max(MAGIC.len()));
        let sum = <[u8; 8]>::try_from(sum).map_err(|_| corrupt("truncated checksum"))?;
        if checksum(body) != u64::from_le_bytes(sum) {
            return Err(corrupt("checksum mismatch (the file is damaged)"));
        }
        let (header, rest) = Self::section(&body[MAGIC.len()..], "header")?;
        let header = std::str::from_utf8(header).map_err(|_| corrupt("header is not UTF-8"))?;
        let header = parse(header).map_err(|e| corrupt(format!("header JSON: {e}")))?;
        match Self::section(rest, "blob")? {
            (blob, []) => Ok(MachineSnapshot { header, blob: blob.to_vec() }),
            _ => Err(corrupt("trailing bytes after blob")),
        }
    }

    /// Splits one u64-length-prefixed section off the front of `b`.
    fn section<'a>(b: &'a [u8], what: &str) -> Result<(&'a [u8], &'a [u8]), MachineError> {
        let len = b.get(..8).map(|n| u64::from_le_bytes(n.try_into().unwrap()));
        let end = len.and_then(|n| usize::try_from(n).ok()?.checked_add(8));
        let end =
            end.filter(|&e| e <= b.len()).ok_or_else(|| corrupt(format!("truncated {what}")))?;
        Ok((&b[8..end], &b[end..]))
    }

    /// Writes the container to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a container from a file.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::SnapshotCorrupt`] for unreadable or
    /// malformed files.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, MachineError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| corrupt(format!("read {}: {e}", path.as_ref().display())))?;
        Self::from_bytes(&bytes)
    }

    /// Structurally compares two snapshots and describes the *first*
    /// divergence — the header path that differs (e.g.
    /// `cpus[1].cache.slots[3].data: byte 17 differs (0x00 vs 0x2a)`) —
    /// or `None` when they are identical.
    pub fn diff(a: &MachineSnapshot, b: &MachineSnapshot) -> Option<String> {
        diff_value("$", &a.header, &Dec::over(&a.blob), &b.header, &Dec::over(&b.blob))
    }
}

/// An object's or list's children, each with its path segment.
fn children(v: &Value) -> Option<Vec<(String, &Value)>> {
    match v {
        Value::Obj(pairs) => Some(pairs.iter().map(|(k, v)| (format!(".{k}"), v)).collect()),
        Value::Arr(items) => {
            Some(items.iter().enumerate().map(|(i, v)| (format!("[{i}]"), v)).collect())
        }
        _ => None,
    }
}

fn diff_value(path: &str, a: &Value, ca: &Dec, b: &Value, cb: &Dec) -> Option<String> {
    if let (Ok(da), Ok(db)) = (ca.bytes(a), cb.bytes(b)) {
        if da.len() != db.len() {
            return Some(format!("{path}: blob length {} vs {}", da.len(), db.len()));
        }
        let i = da.iter().zip(db).position(|(x, y)| x != y)?;
        return Some(format!("{path}: byte {i} differs (0x{:02x} vs 0x{:02x})", da[i], db[i]));
    }
    match (children(a), children(b)) {
        (Some(xa), Some(xb)) if std::mem::discriminant(a) == std::mem::discriminant(b) => {
            if xa.len() != xb.len() {
                return Some(format!("{path}: {} entries vs {}", xa.len(), xb.len()));
            }
            xa.iter().zip(&xb).find_map(|((ka, va), (kb, vb))| match ka == kb {
                true => diff_value(&format!("{path}{ka}"), va, ca, vb, cb),
                false => Some(format!("{path}: key `{ka}` vs `{kb}`")),
            })
        }
        _ => (a != b).then(|| format!("{path}: {a} vs {b}")),
    }
}

// ----------------------------------------------------------------------
// Capture and resume
// ----------------------------------------------------------------------

/// Hands captured `state` to the caller-supplied fresh `object` (a program
/// or the fault hook), which must be present exactly when state was
/// captured and must accept it.
fn rewind<T, S>(
    what: String,
    state: Option<S>,
    object: Option<T>,
    restore: impl FnOnce(&mut T, S) -> bool,
) -> Result<Option<T>, MachineError> {
    match (state, object) {
        (None, None) => Ok(None),
        (None, Some(_)) => {
            Err(mismatch(format!("{what} was supplied but the snapshot holds none")))
        }
        (Some(_), None) => {
            Err(mismatch(format!("the snapshot holds {what} but none was supplied")))
        }
        (Some(s), Some(mut o)) => match restore(&mut o, s) {
            true => Ok(Some(o)),
            false => Err(mismatch(format!("the supplied {what} rejected the captured state"))),
        },
    }
}

impl Machine {
    /// Captures the complete machine state as a [`MachineSnapshot`].
    ///
    /// Valid between [`Machine::run_until`] calls: every inter-event
    /// dependency lives in the event queue, so a resumed machine
    /// continues bit-identically — same event order, same statistics,
    /// same memory image — as the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::SnapshotUnsupported`] when a watchdog
    /// violation is latched, or when a non-halted processor runs a
    /// program that does not implement [`Program::save_state`].
    pub fn snapshot(&self) -> Result<MachineSnapshot, MachineError> {
        let unsupported = |detail| Err(MachineError::SnapshotUnsupported { detail });
        if let Some(v) = &self.stuck {
            return unsupported(format!("watchdog violation latched: {v}"));
        }
        let mut programs = Vec::with_capacity(self.cpus.len());
        for cpu in &self.cpus {
            let state = cpu.program.as_ref().map(|p| p.save_state());
            if state == Some(None) && cpu.state != CpuState::Halted {
                return unsupported(format!("{} runs a program without state capture", cpu.id));
            }
            programs.push(state.flatten().unwrap_or(Value::Null));
        }
        let cx = &mut Enc::default();
        let config = ConfigDigest::of(&self.config).enc(cx);
        let header =
            merge(Value::obj().set("version", VERSION).set("config", config), self.save(cx));
        let header = header.set("fault_hook", self.fault_hook.save_state().enc(cx));
        let cpus = self.cpus.iter().zip(programs).map(|(c, p)| c.save(cx).set("program", p));
        Ok(MachineSnapshot {
            header: header.set("cpus", cpus.collect::<Vec<_>>()),
            blob: std::mem::take(&mut cx.blob),
        })
    }

    /// Rebuilds a machine from a snapshot so that continuing it is
    /// bit-identical to the uninterrupted original run.
    ///
    /// `config` must describe the same machine the snapshot was taken
    /// from (processor count, page size, cache geometry, memory size,
    /// observability flag — and, for bit-identity, the same timings).
    /// `programs` supplies one fresh program instance per processor,
    /// rewound through [`Program::restore_state`]; pass `None` for
    /// processors whose snapshot holds no program state. `hook` supplies
    /// a fresh fault hook when the snapshot captured one.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::SnapshotMismatch`] when the config,
    /// programs or hook do not match the snapshot, and
    /// [`MachineError::SnapshotCorrupt`] for malformed headers — including
    /// any index or length outside the machine being rebuilt — and for
    /// decoded states that fail [`Machine::validate`].
    pub fn resume(
        config: MachineConfig,
        snap: &MachineSnapshot,
        programs: Vec<Option<Box<dyn Program>>>,
        hook: Option<Box<dyn FaultHook>>,
    ) -> Result<Machine, MachineError> {
        let (h, root) = (&snap.header, |e| within("$", e));
        let version: u64 = get(h, "version", &Dec::over(&[])).map_err(root)?;
        if version != VERSION {
            return Err(mismatch(format!(
                "snapshot version {version} (this build reads {VERSION})"
            )));
        }
        let mut m = Machine::build(config)?;
        let cx = Dec {
            sets: m.config.cache.sets(),
            ways: m.config.cache.associativity(),
            page: m.config.cache.page_size().bytes() as usize,
            frames: m.memory.frames(),
            cpus: m.cpus.len(),
            dmas: h.get("dmas").and_then(Value::as_arr).map_or(0, <[Value]>::len),
            ..Dec::over(&snap.blob)
        };
        let (ours, theirs): (_, ConfigDigest) =
            (ConfigDigest::of(&m.config), get(h, "config", &cx).map_err(root)?);
        if ours != theirs {
            return Err(mismatch(format!("snapshot is of {theirs:?}, machine is {ours:?}")));
        }
        let cpu_values = h.get("cpus").and_then(Value::as_arr).unwrap_or_default();
        if programs.len() != m.cpus.len() || cpu_values.len() != m.cpus.len() {
            let (n, s, p) = (m.cpus.len(), cpu_values.len(), programs.len());
            return Err(mismatch(format!(
                "{n} processors, {s} in the snapshot, {p} programs supplied"
            )));
        }
        m.load(h, &cx).map_err(root)?;
        let state: Option<Vec<u8>> = get(h, "fault_hook", &cx).map_err(root)?;
        if let Some(hook) = rewind("a fault hook".into(), state, hook, |h, s| h.restore_state(&s))?
        {
            m.fault_hook = hook;
        }
        for (i, ((cpu, cv), program)) in m.cpus.iter_mut().zip(cpu_values).zip(programs).enumerate()
        {
            cpu.load(cv, &cx).map_err(|e| within(format_args!("$.cpus[{i}]"), e))?;
            let state: Option<Value> = get(cv, "program", &cx).map_err(root)?;
            let what = format!("program state for {}", cpu.id);
            cpu.program = rewind(what, state, program, |p, s| p.restore_state(&s))?;
        }
        m.baseline_obs();
        // Every field can be in range and the whole still inconsistent;
        // such a machine would only fail later, in the periodic audit or
        // mid-run.
        m.validate().map_err(|e| corrupt(format!("resumed state violates an invariant: {e}")))?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, OpResult};
    use vmp_types::PhysAddr;

    fn roundtrip<T: Leaf>(x: &T) -> T {
        T::dec(&x.enc(&mut Enc::default()), &Dec::over(&[])).unwrap()
    }

    #[test]
    fn op_codec_roundtrips() {
        let ops = [
            Op::Compute(Nanos::from_us(3)),
            Op::Read(VirtAddr::new(0x1000)),
            Op::Write(VirtAddr::new(0x2000), 42),
            Op::Tas(VirtAddr::new(0x3000)),
            Op::Notify(VirtAddr::new(0x4000)),
            Op::WatchNotify(VirtAddr::new(0x5000)),
            Op::WaitNotify,
            Op::UncachedRead(PhysAddr::new(0x6000)),
            Op::UncachedWrite(PhysAddr::new(0x7000), 7),
            Op::UncachedTas(PhysAddr::new(0x8000)),
            Op::Halt,
        ];
        for op in ops {
            assert_eq!(roundtrip(&op), op, "{op}");
        }
        assert!(Op::dec(&Value::obj().set("k", "bogus"), &Dec::over(&[])).is_err());
        let spelled = Op::Write(VirtAddr::new(8), 3).enc(&mut Enc::default());
        assert_eq!(spelled.to_string(), r#"{"k":"write","a":8,"v":3}"#);
    }

    #[test]
    fn op_result_codec_roundtrips() {
        for r in [
            OpResult::None,
            OpResult::Read(9),
            OpResult::Tas(1),
            OpResult::Notified(VirtAddr::new(0x100)),
        ] {
            assert_eq!(roundtrip(&r), r);
        }
    }

    #[test]
    fn flags_bits_roundtrip() {
        let cx = &Dec::over(&[]);
        for bits in 0..64u64 {
            let flags = SlotFlags::dec(&Value::from(bits), cx).unwrap();
            assert_eq!(flags.enc(&mut Enc::default()), Value::from(bits));
        }
        assert!(SlotFlags::dec(&Value::from(64u64), cx).is_err());
    }

    #[test]
    fn kind_idx_roundtrip() {
        for (i, kind) in BusTxKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.enc(&mut Enc::default()), Value::from(i));
            assert_eq!(roundtrip(&kind), kind);
        }
        assert!(BusTxKind::dec(&Value::from(8u64), &Dec::over(&[])).is_err());
    }

    #[test]
    fn decode_errors_name_the_path() {
        let mut cx = Dec::over(&[]);
        cx.sets = 4;
        let v = Value::Arr(vec![Value::obj().set("set", 9u64).set("way", 0u64)]);
        let err = within("$", Vec::<SlotId>::dec(&v, &cx).unwrap_err()).to_string();
        assert!(err.contains("$[0]: set 9 out of range"), "{err}");
    }

    #[test]
    fn container_roundtrip_and_corruption() {
        let snap = MachineSnapshot {
            header: Value::obj().set("version", VERSION).set("x", 7u64),
            blob: vec![1, 2, 3],
        };
        let bytes = snap.to_bytes();
        let back = MachineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert!(MachineSnapshot::from_bytes(b"NOTASNAP").is_err());
        assert!(MachineSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(MachineSnapshot::from_bytes(&huge).is_err());
    }

    #[test]
    fn diff_pinpoints_blob_byte() {
        let mut ea = Enc::default();
        let ra = vec![0u8, 1, 2, 3].enc(&mut ea);
        let a = MachineSnapshot { header: Value::obj().set("mem", ra), blob: ea.blob };
        let mut eb = Enc::default();
        let rb = vec![0u8, 1, 9, 3].enc(&mut eb);
        let b = MachineSnapshot { header: Value::obj().set("mem", rb), blob: eb.blob };
        let d = MachineSnapshot::diff(&a, &b).unwrap();
        assert!(d.contains("$.mem") && d.contains("byte 2"), "{d}");
        assert_eq!(MachineSnapshot::diff(&a, &a), None);
    }

    #[test]
    fn diff_pinpoints_header_field() {
        let a = MachineSnapshot {
            header: Value::obj().set("cpus", Value::Arr(vec![Value::obj().set("wake_seq", 1u64)])),
            blob: vec![],
        };
        let b = MachineSnapshot {
            header: Value::obj().set("cpus", Value::Arr(vec![Value::obj().set("wake_seq", 2u64)])),
            blob: vec![],
        };
        let d = MachineSnapshot::diff(&a, &b).unwrap();
        assert!(d.contains("$.cpus[0].wake_seq"), "{d}");
    }

    #[test]
    fn meta_set_and_replace() {
        let mut snap =
            MachineSnapshot { header: Value::obj().set("version", VERSION), blob: vec![] };
        assert!(snap.meta().is_none());
        snap.set_meta(Value::obj().set("workload", "lock"));
        assert_eq!(snap.meta().unwrap().get("workload").unwrap().as_str(), Some("lock"));
        snap.set_meta(Value::obj().set("workload", "sweep"));
        assert_eq!(snap.meta().unwrap().get("workload").unwrap().as_str(), Some("sweep"));
    }
}

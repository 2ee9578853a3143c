//! Programs: what a processor executes.

use std::collections::VecDeque;
use std::fmt;

use vmp_obs::json::Value;
use vmp_trace::MemRef;
use vmp_types::{AccessKind, Asid, Nanos, PhysAddr, VirtAddr};

use crate::codec::{Dec, Enc, Leaf};
use crate::MachineError;

/// One operation a program asks its processor to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute for the given time without touching shared memory
    /// (instruction execution, local-memory work).
    Compute(Nanos),
    /// Read a 32-bit word.
    Read(VirtAddr),
    /// Write a 32-bit word.
    Write(VirtAddr, u32),
    /// Atomic test-and-set of a word: acquires exclusive ownership,
    /// reads the old value, writes 1. The old value is reported through
    /// [`OpResult::Tas`].
    Tas(VirtAddr),
    /// Issue a notify bus transaction on the frame backing this address
    /// (wakes processors whose action table watches it — §5.4).
    Notify(VirtAddr),
    /// Watch the frame backing this address for notifications: flushes
    /// any cached copy and sets the action-table entry to `11`.
    WatchNotify(VirtAddr),
    /// Park until a notification arrives for a watched frame.
    WaitNotify,
    /// Read a word of *uncached, globally-addressable physical memory*
    /// (§5.4's alternative home for kernel locks): one plain bus word
    /// transaction, no cache, no consistency traffic.
    UncachedRead(PhysAddr),
    /// Write a word of uncached physical memory.
    UncachedWrite(PhysAddr, u32),
    /// Atomic test-and-set on uncached physical memory (a VME
    /// read-modify-write cycle).
    UncachedTas(PhysAddr),
    /// Stop executing.
    Halt,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute(t) => write!(f, "compute {t}"),
            Op::Read(a) => write!(f, "read {a}"),
            Op::Write(a, v) => write!(f, "write {a} = {v}"),
            Op::Tas(a) => write!(f, "tas {a}"),
            Op::Notify(a) => write!(f, "notify {a}"),
            Op::WatchNotify(a) => write!(f, "watch {a}"),
            Op::WaitNotify => write!(f, "wait-notify"),
            Op::UncachedRead(a) => write!(f, "uncached-read {a}"),
            Op::UncachedWrite(a, v) => write!(f, "uncached-write {a} = {v}"),
            Op::UncachedTas(a) => write!(f, "uncached-tas {a}"),
            Op::Halt => write!(f, "halt"),
        }
    }
}

tagged! { Op {
    "compute" => Compute(t), "read" => Read(a), "write" => Write(a, v), "tas" => Tas(a),
    "notify" => Notify(a), "watch" => WatchNotify(a), "wait" => WaitNotify(),
    "uread" => UncachedRead(a), "uwrite" => UncachedWrite(a, v), "utas" => UncachedTas(a),
    "halt" => Halt(),
} }

/// The result of the previously executed operation, passed back to the
/// program when it is asked for its next operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpResult {
    /// No previous operation (first call) or no value to report.
    #[default]
    None,
    /// Value returned by a `Read`.
    Read(u32),
    /// Old value seen by a `Tas` (`0` means the lock was acquired).
    Tas(u32),
    /// A notification arrived (after `WaitNotify`, or asynchronously).
    Notified(VirtAddr),
}

tagged! { OpResult {
    "none" => None(), "read" => Read(v), "tas" => Tas(v), "notified" => Notified(a),
} }

/// A program drives one processor: the machine repeatedly executes the
/// operation returned by [`Program::next_op`], feeding back each result.
///
/// Programs are sequential state machines — all concurrency lives in the
/// machine. The default `on_notify` ignores asynchronous notifications;
/// programs built around [`Op::WaitNotify`] receive them as the
/// [`OpResult::Notified`] result instead.
pub trait Program {
    /// Returns the next operation given the previous operation's result.
    fn next_op(&mut self, last: OpResult) -> Op;

    /// Called when a notification arrives while the program is *not*
    /// parked in [`Op::WaitNotify`].
    fn on_notify(&mut self, _addr: VirtAddr) {}

    /// Captures the program's execution state for a machine snapshot.
    ///
    /// Returning `None` (the default) marks the program as
    /// non-checkpointable; [`crate::Machine::snapshot`] refuses to
    /// capture a machine whose non-halted processors run such programs.
    fn save_state(&self) -> Option<Value> {
        None
    }

    /// Restores execution state captured by [`Program::save_state`] into
    /// a freshly constructed instance of the same program.
    ///
    /// Returns `false` (the default) when the state is unrecognized or
    /// the fresh instance was configured differently than the captured
    /// one; [`crate::Machine::resume`] turns that into an error.
    fn restore_state(&mut self, _state: &Value) -> bool {
        false
    }
}

/// A program from an explicit operation list.
///
/// # Examples
///
/// ```
/// use vmp_core::{Op, OpResult, Program, ScriptProgram};
/// use vmp_types::VirtAddr;
///
/// let mut p = ScriptProgram::new(vec![Op::Read(VirtAddr::new(0)), Op::Halt]);
/// assert_eq!(p.next_op(OpResult::None), Op::Read(VirtAddr::new(0)));
/// assert_eq!(p.next_op(OpResult::Read(7)), Op::Halt);
/// assert_eq!(p.next_op(OpResult::None), Op::Halt); // stays halted
/// ```
#[derive(Debug, Clone)]
pub struct ScriptProgram {
    ops: VecDeque<Op>,
    /// Results observed, for test assertions.
    observed: Vec<OpResult>,
}

impl ScriptProgram {
    /// Creates a script from operations executed in order.
    pub fn new(ops: impl IntoIterator<Item = Op>) -> Self {
        ScriptProgram { ops: ops.into_iter().collect(), observed: Vec::new() }
    }

    /// Every non-`None` result the script has observed (read values, TAS
    /// outcomes, notifications) — handy for asserting on data flow.
    pub fn observed(&self) -> &[OpResult] {
        &self.observed
    }
}

impl Program for ScriptProgram {
    fn next_op(&mut self, last: OpResult) -> Op {
        if last != OpResult::None {
            self.observed.push(last);
        }
        self.ops.pop_front().unwrap_or(Op::Halt)
    }

    program_state! { "script", config [], progress [ops, observed] }
}

/// Replays a reference trace, spending `think` time per reference.
///
/// Instruction fetches and reads become [`Op::Read`]; writes become
/// [`Op::Write`] (of an arbitrary marker value). The trace's own ASID
/// field is ignored — the processor's configured address space is used —
/// so a single-process trace can be replayed on any CPU.
pub struct TraceProgram {
    refs: Box<dyn Iterator<Item = MemRef> + Send>,
    think: Nanos,
    pending_ref: Option<MemRef>,
    thinking: bool,
    emitted: u64,
}

impl fmt::Debug for TraceProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceProgram")
            .field("think", &self.think)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl TraceProgram {
    /// Creates a trace program with zero extra think time (the machine
    /// already charges the per-reference cycle).
    pub fn new<I>(refs: I) -> Self
    where
        I: IntoIterator<Item = MemRef>,
        I::IntoIter: Send + 'static,
    {
        Self::with_think(refs, Nanos::ZERO)
    }

    /// Creates a trace program that computes for `think` between
    /// references.
    pub fn with_think<I>(refs: I, think: Nanos) -> Self
    where
        I: IntoIterator<Item = MemRef>,
        I::IntoIter: Send + 'static,
    {
        TraceProgram {
            refs: Box::new(refs.into_iter()),
            think,
            pending_ref: None,
            thinking: false,
            emitted: 0,
        }
    }

    /// References emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl Program for TraceProgram {
    fn next_op(&mut self, _last: OpResult) -> Op {
        if self.think > Nanos::ZERO && !self.thinking {
            if let Some(r) = self.pending_ref.take().or_else(|| self.refs.next()) {
                self.pending_ref = Some(r);
                self.thinking = true;
                return Op::Compute(self.think);
            }
            return Op::Halt;
        }
        self.thinking = false;
        let r = match self.pending_ref.take().or_else(|| self.refs.next()) {
            Some(r) => r,
            None => return Op::Halt,
        };
        self.emitted += 1;
        match r.kind {
            AccessKind::Write => Op::Write(r.addr, 0xdead_0000 | (self.emitted as u32 & 0xffff)),
            AccessKind::Read | AccessKind::IFetch => Op::Read(r.addr),
        }
    }

    // The reference stream itself is not serialized: the trace is an
    // input artifact the resuming caller re-supplies, and the cursor
    // fast-forwards a fresh iterator to the captured position.
    fn save_state(&self) -> Option<Value> {
        let (emitted, thinking, has_pending) =
            (self.emitted, self.thinking, self.pending_ref.is_some());
        let cursor = TraceCursor { emitted, thinking, has_pending }.enc(&mut Enc::default());
        Some(crate::codec::merge(Value::obj().set("type", "trace"), cursor))
    }

    fn restore_state(&mut self, state: &Value) -> bool {
        let Ok(c) = TraceCursor::dec(state, &Dec::over(&[])) else { return false };
        let fresh = self.emitted == 0 && self.pending_ref.is_none();
        if state.get("type").and_then(Value::as_str) != Some("trace") || !fresh {
            return false;
        }
        // Fails when the supplied trace is shorter than the captured one.
        if c.emitted > 0 && self.refs.nth(c.emitted as usize - 1).is_none() {
            return false;
        }
        self.pending_ref = if c.has_pending { self.refs.next() } else { None };
        (self.emitted, self.thinking) = (c.emitted, c.thinking);
        self.pending_ref.is_some() == c.has_pending
    }
}

record! { struct TraceCursor { emitted: u64, thinking: bool, has_pending: bool } }

/// Builds a simple sequential-sweep reference stream for tests and
/// examples: `count` word reads walking from `base`.
pub fn sweep_refs(asid: Asid, base: u64, count: u64) -> impl Iterator<Item = MemRef> + Send {
    (0..count).map(move |i| MemRef::read(asid, VirtAddr::new(base + i * 4)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_runs_in_order_then_halts() {
        let mut p = ScriptProgram::new([
            Op::Compute(Nanos::from_ns(10)),
            Op::Write(VirtAddr::new(4), 1),
            Op::Halt,
        ]);
        assert_eq!(p.next_op(OpResult::None), Op::Compute(Nanos::from_ns(10)));
        assert_eq!(p.next_op(OpResult::None), Op::Write(VirtAddr::new(4), 1));
        assert_eq!(p.next_op(OpResult::None), Op::Halt);
        assert_eq!(p.next_op(OpResult::None), Op::Halt);
    }

    #[test]
    fn script_records_results() {
        let mut p = ScriptProgram::new([Op::Read(VirtAddr::new(0)), Op::Halt]);
        let _ = p.next_op(OpResult::None);
        let _ = p.next_op(OpResult::Read(99));
        assert_eq!(p.observed(), &[OpResult::Read(99)]);
    }

    #[test]
    fn trace_program_maps_kinds() {
        let refs = vec![
            MemRef::read(Asid::new(1), VirtAddr::new(0)),
            MemRef::write(Asid::new(1), VirtAddr::new(4)),
            MemRef::ifetch(Asid::new(1), VirtAddr::new(8)),
        ];
        let mut p = TraceProgram::new(refs);
        assert_eq!(p.next_op(OpResult::None), Op::Read(VirtAddr::new(0)));
        match p.next_op(OpResult::None) {
            Op::Write(a, _) => assert_eq!(a, VirtAddr::new(4)),
            other => panic!("expected write, got {other}"),
        }
        assert_eq!(p.next_op(OpResult::None), Op::Read(VirtAddr::new(8)));
        assert_eq!(p.next_op(OpResult::None), Op::Halt);
        assert_eq!(p.emitted(), 3);
    }

    #[test]
    fn trace_program_interleaves_think_time() {
        let refs = vec![MemRef::read(Asid::new(1), VirtAddr::new(0))];
        let mut p = TraceProgram::with_think(refs, Nanos::from_ns(500));
        assert_eq!(p.next_op(OpResult::None), Op::Compute(Nanos::from_ns(500)));
        assert_eq!(p.next_op(OpResult::None), Op::Read(VirtAddr::new(0)));
        assert_eq!(p.next_op(OpResult::None), Op::Halt);
    }

    #[test]
    fn sweep_refs_walks_words() {
        let v: Vec<MemRef> = sweep_refs(Asid::new(2), 0x100, 3).collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].addr, VirtAddr::new(0x108));
        assert!(v.iter().all(|r| r.kind.is_read()));
    }

    #[test]
    fn op_displays() {
        assert_eq!(Op::Halt.to_string(), "halt");
        assert!(Op::Tas(VirtAddr::new(8)).to_string().contains("tas"));
        assert!(Op::WaitNotify.to_string().contains("wait"));
        assert!(Op::UncachedTas(PhysAddr::new(8)).to_string().contains("uncached"));
        assert!(Op::UncachedWrite(PhysAddr::new(8), 1).to_string().contains("= 1"));
        assert!(Op::UncachedRead(PhysAddr::new(8)).to_string().contains("read"));
    }
}

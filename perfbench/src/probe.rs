//! Outside-in probes: a counting allocator, and spans timed around the
//! calls the benchmark makes into each layer's public functions and
//! traits. Nothing here changes the simulator; the traced repetition
//! installs these adapters and the untimed repetitions do not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use vmp_bus::{BusTransaction, BusTxKind, FaultHook, InterruptWord};
use vmp_core::{Op, OpResult, Program};
use vmp_obs::json::Value;
use vmp_types::{Nanos, ProcessorId, VirtAddr};

/// Counts allocations and reallocations while counting is switched on
/// ([`count_allocs`]); otherwise it costs one relaxed load per call, so
/// the timed repetitions allocate almost as the repository's binaries do.
pub struct CountingAlloc;

/// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose implementation upholds the `GlobalAlloc` contract; the counter
// update touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The layer boundary a span was timed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Machine::run` / `run_until`: the event loop and everything below it.
    Run,
    /// `Program::next_op`, a child of `Run`.
    Program,
    /// One CPU bus transaction, from the fault hook's first call to its
    /// last: every board's monitor check, the bus reservation and the
    /// obs/attribution recording. A child of `Run`.
    Bus,
    /// `Machine::build`.
    Build,
    /// `Machine::snapshot`.
    Capture,
    /// `MachineSnapshot::to_bytes`.
    Encode,
    /// `MachineSnapshot::from_bytes`.
    Decode,
    /// `Machine::resume`.
    Resume,
    /// `metrics_json` + `chrome_trace` and their rendering.
    Export,
    /// One `TagCache::run` over the whole trace.
    TagCache,
    /// ATUM trace generation.
    TraceGen,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Run => "core.run",
            Layer::Program => "program.next_op",
            Layer::Bus => "bus.transaction",
            Layer::Build => "core.build",
            Layer::Capture => "snapshot.capture",
            Layer::Encode => "snapshot.encode",
            Layer::Decode => "snapshot.decode",
            Layer::Resume => "snapshot.resume",
            Layer::Export => "obs.export",
            Layer::TagCache => "cache.tagcache_run",
            Layer::TraceGen => "trace.generate",
        }
    }
}

/// The probes' own cost per span, measured by timing empty spans: the
/// part a span's duration includes, and the part its parent pays
/// outside it (the log push and the other half of the clock reads).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    pub inside_ns: f64,
    pub outside_ns: f64,
}

struct Tracer {
    /// `(layer, duration in ns)`, in the order the spans closed.
    spans: Vec<(Layer, u64)>,
    cost: SpanCost,
    bus_open: Option<Instant>,
    /// Bus spans opened while another was still open.
    unmatched: u64,
    /// `drop_interrupt_word` calls: one per interrupt word a monitor queued.
    irq_words: u64,
}

impl Tracer {
    fn push(&mut self, layer: Layer, start: Instant, end: Instant) {
        self.spans.push((layer, end.saturating_duration_since(start).as_nanos() as u64));
    }
}

thread_local! {
    // The machine runs on the benchmark's own thread, so a thread-local
    // log needs no locking on the traced hot path.
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        spans: Vec::new(),
        cost: SpanCost::default(),
        bus_open: None,
        unmatched: 0,
        irq_words: 0,
    });
}

/// Starts a fresh span log on this thread, pre-sized for `capacity` spans
/// so the log does not reallocate while the traced repetition runs, after
/// measuring what one span costs on this host.
pub fn reset(capacity: usize) {
    let cost = span_cost();
    TRACER.with_borrow_mut(|t| {
        t.spans = Vec::with_capacity(capacity);
        t.cost = cost;
        t.bus_open = None;
        t.unmatched = 0;
        t.irq_words = 0;
    });
}

/// Median over five trials of the cost of an empty span.
fn span_cost() -> SpanCost {
    const SPANS: usize = 20_000;
    let mut trials: Vec<SpanCost> = (0..5)
        .map(|_| {
            TRACER.with_borrow_mut(|t| t.spans = Vec::with_capacity(SPANS));
            let start = Instant::now();
            for _ in 0..SPANS {
                span(Layer::Program, || ());
            }
            let total = start.elapsed().as_nanos() as f64 / SPANS as f64;
            let inside = TRACER.with_borrow(|t| t.spans.iter().map(|s| s.1).sum::<u64>()) as f64
                / SPANS as f64;
            SpanCost { inside_ns: inside, outside_ns: (total - inside).max(0.0) }
        })
        .collect();
    trials.sort_by(|a, b| (a.inside_ns + a.outside_ns).total_cmp(&(b.inside_ns + b.outside_ns)));
    trials[2]
}

/// Times `f` as one span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    TRACER.with_borrow_mut(|t| t.push(layer, start, end));
    out
}

/// Records a span timed elsewhere (on a sweep worker thread).
pub fn record(layer: Layer, start: Instant, end: Instant) {
    TRACER.with_borrow_mut(|t| t.push(layer, start, end));
}

/// Per-layer totals of the spans recorded since [`reset`].
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Span durations per layer, sorted ascending.
    durations: BTreeMap<Layer, Vec<u64>>,
    /// Bus spans that never closed, or opened over an open one.
    pub unmatched_bus: u64,
    /// Interrupt words queued by monitors (the hook's drop-query count).
    pub irq_words: u64,
    /// The probes' own cost per span, measured before the traced run.
    pub cost: SpanCost,
}

impl Breakdown {
    /// Number of spans of `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.durations.get(&layer).map_or(0, |d| d.len() as u64)
    }

    /// Summed span time of `layer`, in nanoseconds.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.durations.get(&layer).map_or(0, |d| d.iter().sum())
    }

    /// Mean span time of `layer`, in nanoseconds (0 without spans).
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        match self.count(layer) {
            0 => 0.0,
            n => self.ns(layer) as f64 / n as f64,
        }
    }

    /// Summed time of `layer` without the probes' cost inside its spans.
    pub fn net_ns(&self, layer: Layer) -> f64 {
        (self.ns(layer) as f64 - self.count(layer) as f64 * self.cost.inside_ns).max(0.0)
    }

    /// The probes' cost a parent span pays around `children` spans.
    pub fn outside_ns(&self, children: &[Layer]) -> f64 {
        children.iter().map(|&l| self.count(l) as f64).sum::<f64>() * self.cost.outside_ns
    }

    /// The per-layer table written out at the end of a traced run.
    pub fn to_json(&self) -> Value {
        let mut layers = Value::obj();
        for (layer, durs) in &self.durations {
            let pick = |q: f64| durs[((durs.len() - 1) as f64 * q) as usize];
            layers = layers.set(
                layer.label(),
                Value::obj()
                    .set("spans", durs.len() as u64)
                    .set("total_ns", self.ns(*layer))
                    .set("p50_ns", pick(0.5))
                    .set("p99_ns", pick(0.99))
                    .set("max_ns", pick(1.0)),
            );
        }
        Value::obj()
            .set("layers", layers)
            .set("span_cost_inside_ns", self.cost.inside_ns)
            .set("span_cost_outside_ns", self.cost.outside_ns)
            .set("unmatched_bus_spans", self.unmatched_bus)
            .set("irq_words", self.irq_words)
    }
}

/// Ends the span log and aggregates it per layer.
pub fn finish() -> Breakdown {
    TRACER.with_borrow_mut(|t| {
        let mut b = Breakdown {
            unmatched_bus: t.unmatched + u64::from(t.bus_open.is_some()),
            irq_words: t.irq_words,
            cost: t.cost,
            ..Breakdown::default()
        };
        for (layer, ns) in t.spans.drain(..) {
            b.durations.entry(layer).or_default().push(ns);
        }
        for d in b.durations.values_mut() {
            d.sort_unstable();
        }
        t.bus_open = None;
        b
    })
}

/// A [`Program`] adapter that times `next_op` and forwards everything
/// else, so a traced run executes exactly the wrapped program.
pub struct TracedProgram(pub Box<dyn Program>);

impl Program for TracedProgram {
    fn next_op(&mut self, last: OpResult) -> Op {
        span(Layer::Program, || self.0.next_op(last))
    }

    fn on_notify(&mut self, addr: VirtAddr) {
        self.0.on_notify(addr);
    }

    fn save_state(&self) -> Option<Value> {
        self.0.save_state()
    }

    fn restore_state(&mut self, state: &Value) -> bool {
        self.0.restore_state(state)
    }
}

/// One CPU bus transaction as the machine issued it.
#[derive(Debug, Clone, Copy)]
pub struct IssuedTx {
    /// Event-loop time when it was issued.
    pub now: Nanos,
    pub tx: BusTransaction,
    /// No monitor aborted it.
    pub completed: bool,
}

thread_local! {
    static ISSUED: RefCell<Vec<IssuedTx>> = const { RefCell::new(Vec::new()) };
}

/// Takes the transactions [`IssueLog`] has logged on this thread.
pub fn take_issued() -> Vec<IssuedTx> {
    ISSUED.take()
}

/// An inert [`FaultHook`] that logs every CPU bus transaction. The
/// machine asks `inject_abort` exactly when no monitor aborted a
/// transaction of a kind that can be aborted; other kinds always complete.
pub struct IssueLog;

impl FaultHook for IssueLog {
    fn arbitration_stall(&mut self, now: Nanos, tx: &BusTransaction) -> Nanos {
        let completed = !matches!(
            tx.kind,
            BusTxKind::ReadShared
                | BusTxKind::ReadPrivate
                | BusTxKind::AssertOwnership
                | BusTxKind::Notify
        );
        ISSUED.with_borrow_mut(|v| v.push(IssuedTx { now, tx: *tx, completed }));
        Nanos::ZERO
    }

    fn inject_abort(&mut self, _now: Nanos, _tx: &BusTransaction) -> bool {
        ISSUED.with_borrow_mut(|v| {
            if let Some(last) = v.last_mut() {
                last.completed = true;
            }
        });
        false
    }
}

/// An inert [`FaultHook`] (it gives the `NoFaults` answers) that opens a
/// bus span at `arbitration_stall`, the first hook call of every CPU bus
/// transaction, and closes it at `force_overflow`, the last one.
pub struct SpanHook;

impl FaultHook for SpanHook {
    fn arbitration_stall(&mut self, _now: Nanos, _tx: &BusTransaction) -> Nanos {
        let now = Instant::now();
        TRACER.with_borrow_mut(|t| {
            if t.bus_open.replace(now).is_some() {
                t.unmatched += 1;
            }
        });
        Nanos::ZERO
    }

    fn drop_interrupt_word(&mut self, _now: Nanos, _obs: ProcessorId, _w: &InterruptWord) -> bool {
        TRACER.with_borrow_mut(|t| t.irq_words += 1);
        false
    }

    fn force_overflow(&mut self, _now: Nanos, _observer: ProcessorId) -> bool {
        let end = Instant::now();
        TRACER.with_borrow_mut(|t| match t.bus_open.take() {
            Some(start) => t.push(Layer::Bus, start, end),
            None => t.unmatched += 1,
        });
        false
    }
}

//! Layer micro-benchmarks, timed around single public calls with inputs
//! taken from the workloads: the prototype cache geometry fed the ATUM
//! stream, and the contended machine's own traffic — the bus
//! transactions it issued, its live bus bookings, action tables and
//! pending events — sampled from its snapshots ([`Shape`]).

use std::hint::black_box;
use std::time::Instant;

use vmp_bus::{ActionCode, BusMonitor, VmeBus, FIFO_CAPACITY};
use vmp_cache::{CacheConfig, DataCache, SlotFlags, SlotId, Tag};
use vmp_core::{MachineSnapshot, PhysIndex};
use vmp_obs::json::Value;
use vmp_sim::EventQueue;
use vmp_trace::MemRef;
use vmp_types::{Asid, FrameNum, Nanos, PageSize, ProcessorId};

use crate::probe::IssuedTx;

/// Trials per micro-benchmark; the median trial is reported.
const TRIALS: usize = 5;

/// Median over [`TRIALS`] of `ns per operation` for one trial closure
/// that returns `(elapsed ns, operations)`.
fn median_ns_per_op(mut trial: impl FnMut() -> (u64, u64)) -> f64 {
    let mut per_op: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let (ns, ops) = trial();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[TRIALS / 2]
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The machine's state at one sampled instant, read from its snapshot,
/// and the CPU bus transactions it issued until the next sample.
#[derive(Debug)]
pub struct Window {
    /// Simulated time of the sample.
    pub now: Nanos,
    /// Times of the pending events.
    pub queue: Vec<Nanos>,
    /// Live bus bookings `(start, end)` and the pruning watermark.
    pub book: Vec<(Nanos, Nanos)>,
    pub watermark: Nanos,
    /// Active action-table entries, per board.
    pub tables: Vec<Vec<(FrameNum, ActionCode)>>,
    /// Transactions issued from this sample to the next.
    pub txs: Vec<IssuedTx>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("snapshot header: no {key:?}"))
}

fn num(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?.as_u64().ok_or_else(|| format!("snapshot header: {key:?} is not a number"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?.as_arr().ok_or_else(|| format!("snapshot header: {key:?} is not a list"))
}

impl Window {
    /// Reads the sampled state out of a snapshot's header.
    pub fn from_snapshot(snap: &MachineSnapshot) -> Result<Window, String> {
        let h = snap.header();
        let queue = list(field(h, "queue")?, "entries")?
            .iter()
            .map(|e| num(e, "t").map(Nanos::from_ns))
            .collect::<Result<_, _>>()?;
        let bus = field(h, "bus")?;
        let book = list(bus, "bookings")?
            .iter()
            .map(|b| match b.as_arr().map(|b| (b.len(), b)) {
                Some((2, b)) => match (b[0].as_u64(), b[1].as_u64()) {
                    (Some(s), Some(e)) => Ok((Nanos::from_ns(s), Nanos::from_ns(e))),
                    _ => Err("snapshot header: bad booking".to_string()),
                },
                _ => Err("snapshot header: bad booking".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let tables = list(h, "cpus")?
            .iter()
            .map(|cpu| {
                list(field(cpu, "monitor")?, "table")?
                    .iter()
                    .map(|e| {
                        let code = ActionCode::from_bits(num(e, "code")? as u8);
                        Ok((FrameNum::new(num(e, "frame")?), code))
                    })
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        Ok(Window {
            now: Nanos::from_ns(num(h, "now")?),
            queue,
            book,
            watermark: Nanos::from_ns(num(bus, "watermark")?),
            tables,
            txs: Vec::new(),
        })
    }
}

/// A machine's traffic over a run, sample by sample.
#[derive(Debug)]
pub struct Shape {
    pub windows: Vec<Window>,
    /// Frames per action table (the machine's memory in cache pages).
    pub frames: u64,
    pub page: PageSize,
}

impl Shape {
    fn mean(&self, f: impl Fn(&Window) -> f64) -> f64 {
        self.windows.iter().map(f).sum::<f64>() / self.windows.len().max(1) as f64
    }

    /// Mean pending events.
    pub fn queue_depth(&self) -> f64 {
        self.mean(|w| w.queue.len() as f64)
    }

    /// Mean live bus bookings.
    pub fn book_depth(&self) -> f64 {
        self.mean(|w| w.book.len() as f64)
    }

    /// Mean time from a sample to the start of a booking made ahead of it.
    pub fn book_lead_ns(&self) -> f64 {
        let leads: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| w.book.iter().map(move |&(s, _)| s.saturating_sub(w.now).as_ns()))
            .collect();
        leads.iter().sum::<u64>() as f64 / leads.len().max(1) as f64
    }

    /// Mean active action-table entries per board.
    pub fn table_entries(&self) -> f64 {
        self.mean(|w| {
            w.tables.iter().map(Vec::len).sum::<usize>() as f64 / w.tables.len().max(1) as f64
        })
    }

    /// How far ahead of each sample its pending events were due.
    fn event_leads(&self) -> Vec<u64> {
        self.windows
            .iter()
            .flat_map(|w| w.queue.iter().map(move |&t| t.saturating_sub(w.now).as_ns()))
            .collect()
    }
}

/// `EventQueue::schedule` plus `pop_if_at_or_before`, as one pair. Each
/// sampled window seeds a queue with its own pending events, then
/// reschedules every popped event as far ahead as the sampled events were
/// due, in sampled order, so the queue keeps the depth it had.
pub fn queue_ns(shape: &Shape) -> f64 {
    const OPS_PER_WINDOW: usize = 10_000;
    let leads = shape.event_leads();
    if leads.is_empty() {
        return 0.0;
    }
    median_ns_per_op(|| {
        let (mut ns, mut ops) = (0, 0);
        let mut next = leads.iter().cycle();
        for w in shape.windows.iter().filter(|w| !w.queue.is_empty()) {
            let mut q: EventQueue<(usize, u64)> = EventQueue::new();
            for (i, &t) in w.queue.iter().enumerate() {
                q.schedule(t, (i, 0));
            }
            let start = Instant::now();
            for _ in 0..OPS_PER_WINDOW {
                let (t, (i, seq)) =
                    q.pop_if_at_or_before(Nanos::from_ns(u64::MAX)).expect("queue non-empty");
                let lead = *next.next().expect("cycle");
                q.schedule(t + Nanos::from_ns(lead), black_box((i, seq + 1)));
            }
            ns += elapsed_ns(start);
            ops += OPS_PER_WINDOW as u64;
        }
        (ns, ops)
    })
}

/// `DataCache::lookup` on the uniprocessor trace stream, in the prototype
/// geometry, after one warming pass that installs every missing page.
pub fn lookup_ns(refs: &[MemRef]) -> f64 {
    let config = CacheConfig::prototype();
    let page = config.page_size();
    let asid = Asid::new(1);
    let mut cache = DataCache::new(config);
    for r in refs {
        if cache.lookup(asid, r.addr).is_none() {
            let victim = cache.victim_for(asid, r.addr);
            let tag = Tag::new(asid, page.vpn_of(r.addr));
            cache.install(
                victim.slot,
                tag,
                SlotFlags::shared_clean(),
                vec![0; page.bytes() as usize],
            );
        }
    }
    median_ns_per_op(|| {
        let start = Instant::now();
        let mut hits = 0u64;
        for r in refs {
            hits += u64::from(cache.lookup(asid, black_box(r.addr)).is_some());
        }
        black_box(hits);
        (elapsed_ns(start), refs.len() as u64)
    })
}

/// Gap-filling `VmeBus::reserve` plus `advance_to`, replaying the
/// contended machine's completed transactions against its own live
/// bookings: each window restores the book sampled at its start, then
/// books every transaction at the event-loop time it was issued, for the
/// bus time of its kind. (A handler may issue a transaction for a moment
/// after the event-loop time; that lead is not visible from outside.)
pub fn reserve_ns(shape: &Shape) -> f64 {
    median_ns_per_op(|| {
        let mut bus = VmeBus::new(shape.page);
        let (mut ns, mut ops) = (0, 0);
        for w in &shape.windows {
            bus.restore_bookings(w.book.clone(), w.watermark);
            let start = Instant::now();
            for i in w.txs.iter().filter(|i| i.completed) {
                bus.advance_to(i.now);
                black_box(bus.reserve(i.now, bus.duration(i.tx.kind)));
            }
            ns += elapsed_ns(start);
            ops += w.txs.iter().filter(|i| i.completed).count() as u64;
        }
        (ns, ops)
    })
}

/// `BusMonitor::observe` on every board for every transaction the
/// contended machine issued, with each window's action tables as sampled
/// at its start. A board's FIFO is drained when full, as interrupt
/// service would empty it. The cost is reported per observe call.
pub fn observe_ns(shape: &Shape) -> f64 {
    let boards = shape.windows.first().map_or(0, |w| w.tables.len());
    median_ns_per_op(|| {
        let mut monitors: Vec<BusMonitor> =
            (0..boards).map(|i| BusMonitor::new(ProcessorId::new(i), shape.frames)).collect();
        let (mut ns, mut ops) = (0, 0);
        for w in &shape.windows {
            for (m, table) in monitors.iter_mut().zip(&w.tables) {
                m.drain();
                m.table_mut().clear();
                for &(frame, code) in table {
                    m.table_mut().set(frame, code);
                }
            }
            let start = Instant::now();
            for i in &w.txs {
                for m in &mut monitors {
                    black_box(m.observe(black_box(&i.tx)));
                    if m.pending() >= FIFO_CAPACITY {
                        m.drain();
                    }
                }
            }
            ns += elapsed_ns(start);
            ops += (w.txs.len() * boards) as u64;
        }
        (ns, ops)
    })
}

/// `PhysIndex` as the miss handler and consistency service use it: a
/// `slots` lookup per reference, and an evict-plus-insert per fill, in
/// the prototype geometry (256 sets × 4 ways) over the trace's frames.
pub fn physindex_ns(refs: &[MemRef]) -> f64 {
    let config = CacheConfig::prototype();
    let page = config.page_size();
    let (sets, ways) = (config.sets(), config.associativity());
    median_ns_per_op(|| {
        let mut index = PhysIndex::with_geometry(sets, ways);
        let mut next_way = vec![0usize; sets];
        let start = Instant::now();
        for r in refs {
            let frame = FrameNum::new(page.vpn_of(r.addr).raw());
            if index.slots(black_box(frame)).is_empty() {
                let set = (frame.raw() % sets as u64) as usize;
                let slot = SlotId { set, way: next_way[set] };
                next_way[set] = (next_way[set] + 1) % ways;
                if let Some(old) = index.frame_of(slot) {
                    index.remove(old, slot);
                }
                index.insert(frame, slot);
            }
        }
        (elapsed_ns(start), refs.len() as u64)
    })
}

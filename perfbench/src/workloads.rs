//! The five workloads: set-up, timed repetitions with per-repetition
//! oracles, and the traced repetition that measures each layer.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use vmp_cache::{CacheConfig, CacheSimStats, TagCache};
use vmp_core::workloads::{LockDiscipline, LockWorker, SweepWorker};
use vmp_core::{
    Machine, MachineConfig, MachineReport, MachineSnapshot, ObsConfig, Program, TraceProgram,
};
use vmp_obs::{chrome_trace, metrics_json};
use vmp_sweep::{SweepJob, SweepPool};
use vmp_trace::synth::{AtumParams, AtumWorkload};
use vmp_trace::{MemRef, Trace};
use vmp_types::{Asid, Nanos, PageSize, VirtAddr};

use crate::micro::{Shape, Window};
use crate::probe::{self, Breakdown, IssueLog, Layer, SpanHook, TracedProgram};
use crate::{micro, Metrics, SplitMix};

/// The ATUM trace length: the paper's traces run 358k–540k references.
const TRACE_LEN: usize = 400_000;
/// Set-ups per run, at least, and the least time they take; the median
/// set-up is reported as `setup_s`.
const SETUPS: usize = 21;
const SETUP_SECONDS: f64 = 0.5;
/// The end-to-end metrics are read at the fastest 2 % of repetitions.
/// Host interference only ever slows a repetition down, and on a shared
/// host it comes in episodes of seconds: the 10th percentile of one run
/// then still reads a slow episode, the 2nd much less often.
const FAST: f64 = 0.02;
/// Critical sections per lock worker in the contended workloads.
const LOCK_ITERS: u64 = 250;
/// Rounds of each false-sharing sweeper (64 words per round).
const SWEEP_ROUNDS: u64 = 190;
const LOCK: u64 = 0x1000;
const COUNTER: u64 = 0x2000;
/// Where `snapshot_chain` cuts the contended run, and the simulated slice
/// each cycle runs after resuming.
const CUT: Nanos = Nanos::from_ms(40);
const SLICE: Nanos = Nanos::from_us(40);
/// Cycles per chain segment; every segment restarts from the cut, so the
/// chain never reaches the end of the contended run.
const SEGMENT: usize = 32;
/// Snapshots the micro-benchmarks' traffic shape is sampled from.
const SHAPE_SAMPLES: u64 = 32;
/// Sweep threads for `fig4_sweep`.
const SWEEP_THREADS: usize = 2;

/// Report digests at the default seed, committed with the benchmark: a
/// change to the simulator's state evolution shows up here.
const GOLDEN: [(&str, u64); 4] = [
    ("uniproc_trace", 0x25e1_12cc_b091_1df6),
    ("contended_4cpu", 0x407a_2e19_b8b1_bd4d),
    ("snapshot_chain", 0xe3ad_4b67_114b_7a7d),
    ("fig4_sweep", 0x809c_348f_59d1_114a),
];

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] =
    ["uniproc_trace", "contended_4cpu", "contended_4cpu_obs", "snapshot_chain", "fig4_sweep"];

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and self-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// The traced run's per-layer span table, written out at the end.
    pub spans: Option<Breakdown>,
}

/// One timed repetition: host time of the timed section, simulated
/// references it covered, and allocations made inside it.
#[derive(Debug, Clone, Copy)]
struct Rep {
    ns: u64,
    refs: u64,
    allocs: u64,
}

/// How many repetitions count their allocations: two (or two segments)
/// in a traced run, to check that the count repeats; none otherwise.
fn counted(trace: bool, reps: usize) -> usize {
    if trace {
        reps
    } else {
        0
    }
}

/// Times `f` and counts the allocations it makes (0 unless counting).
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let a0 = probe::allocs();
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    (out, ns, probe::allocs() - a0)
}

/// 64-bit FNV-1a: a stable digest for reports and result vectors.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn report_digest(r: &MachineReport) -> u64 {
    fnv1a(r.to_json().to_string().as_bytes())
}

fn cells_digest(cells: &[CacheSimStats]) -> u64 {
    let text: String = cells.iter().map(|c| format!("{}/{};", c.refs, c.misses)).collect();
    fnv1a(text.as_bytes())
}

/// The `q`-quantile (nearest rank, `q` in 0..=1) of `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// Runs repetitions until `seconds` have passed (at least `min_reps`).
/// A repetition that errors or fails its oracle is a failed operation.
/// The first `counted` repetitions count their allocations; the others
/// do not.
fn repeat(
    seconds: f64,
    min_reps: usize,
    counted: usize,
    out: &mut Outcome,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut tried = 0;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        probe::count_allocs(tried < counted);
        tried += 1;
        out.attempted += 1;
        match rep() {
            Ok(r) => reps.push(r),
            Err(e) => {
                out.failed += 1;
                if out.problems.len() < 8 {
                    out.problems.push(e);
                }
                if out.failed > 3 && reps.is_empty() {
                    break;
                }
            }
        }
    }
    probe::count_allocs(false);
    reps
}

/// End-to-end metrics of the timed repetitions: time per repetition at
/// the fastest [`FAST`] share, the mean references per repetition over
/// that time, and the set-up time.
fn end_to_end(out: &mut Outcome, reps: &[Rep], setup_s: f64) {
    if reps.is_empty() {
        return;
    }
    let ms: Vec<f64> = reps.iter().map(|r| r.ns as f64 / 1e6).collect();
    let fast_ms = quantile(&ms, FAST);
    let refs = reps.iter().map(|r| r.refs).sum::<u64>() as f64 / reps.len() as f64;
    out.end_to_end.insert("refs_per_s", refs * 1e3 / fast_ms);
    out.end_to_end.insert("cycle_ms", fast_ms);
    out.end_to_end.insert("setup_s", setup_s);
    out.per_layer.insert("host.rep_ms_p50", quantile(&ms, 0.5));
    out.per_layer.insert("host.rep_ms_p90", quantile(&ms, 0.9));
}

/// Timed set-ups, at least [`SETUPS`] and for at least [`SETUP_SECONDS`]:
/// returns the last one's product and the median set-up time.
fn setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let product = f()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return Ok((product, quantile(&times, 0.5)));
        }
    }
}

fn check_golden(out: &mut Outcome, seed: u64, name: &str, digest: u64) {
    if seed != crate::DEFAULT_SEED {
        return;
    }
    let (_, want) = GOLDEN.iter().find(|(n, _)| *n == name).expect("golden entry");
    if *want != digest {
        out.problems
            .push(format!("{name}: digest {digest:#018x} differs from committed {want:#018x}"));
    }
}

// ----------------------------------------------------------------------
// Inputs
// ----------------------------------------------------------------------

fn atum_trace(seed: u64) -> Arc<Trace> {
    Arc::new(AtumWorkload::new(AtumParams::default(), seed).take(TRACE_LEN).collect())
}

fn trace_program(trace: &Arc<Trace>) -> TraceProgram {
    let t = Arc::clone(trace);
    TraceProgram::new((0..t.len()).map(move |i| t.as_slice()[i]))
}

/// The prototype machine: 256 KB 4-way cache of 256-byte pages, 4 MB of
/// memory, no page-fault cost.
fn prototype(processors: usize, obs: bool) -> MachineConfig {
    let mut config =
        MachineConfig { processors, max_time: Nanos::from_ms(600_000), ..MachineConfig::default() };
    config.cpu.page_fault = Nanos::ZERO;
    if obs {
        config.obs = ObsConfig::with_attrib();
    }
    config
}

/// CPUs 0–1 fight for a TAS spin lock guarding a shared counter (§5.4);
/// CPUs 2–3 write interleaved words of the same two pages. The seed sets
/// the lock workers' think times.
fn contended_programs(seed: u64) -> Vec<Box<dyn Program>> {
    let mut rng = SplitMix(seed);
    let mut programs: Vec<Box<dyn Program>> = (0..2)
        .map(|_| {
            Box::new(LockWorker::new(
                LockDiscipline::Spin,
                VirtAddr::new(LOCK),
                VirtAddr::new(COUNTER),
                LOCK_ITERS,
                Nanos::from_us(2),
                Nanos::from_ns(2_500 + rng.below(1_000)),
            )) as Box<dyn Program>
        })
        .collect();
    let words = 2 * 256 / 8;
    for lane in 0..2u64 {
        programs.push(Box::new(SweepWorker::new(
            VirtAddr::new(0x4000 + 4 * lane),
            words,
            8,
            SWEEP_ROUNDS,
            true,
        )));
    }
    programs
}

fn build(config: MachineConfig, programs: Vec<Box<dyn Program>>) -> Result<Machine, String> {
    let mut m = Machine::build(config).map_err(|e| format!("build: {e}"))?;
    for (cpu, p) in programs.into_iter().enumerate() {
        m.set_program_boxed(cpu, p).map_err(|e| e.to_string())?;
    }
    Ok(m)
}

fn traced(programs: Vec<Box<dyn Program>>) -> Vec<Box<dyn Program>> {
    programs.into_iter().map(|p| Box::new(TracedProgram(p)) as Box<dyn Program>).collect()
}

/// The contended oracle: mutual exclusion held (the counter equals the
/// fighters' iterations) and the protocol invariants hold.
fn check_contended(m: &Machine) -> Result<(), String> {
    let counter = m.peek_word(Asid::new(1), VirtAddr::new(COUNTER));
    if counter != Some(2 * LOCK_ITERS as u32) {
        return Err(format!("counter {counter:?}, want {}", 2 * LOCK_ITERS));
    }
    m.validate().map_err(|e| format!("invariants: {e}"))
}

// ----------------------------------------------------------------------
// Per-layer metrics shared by the machine workloads
// ----------------------------------------------------------------------

/// Exact simulated counts: the denominators of the per-layer ratios and
/// the transparency check. They must not move when only host speed does.
fn sim_counts(out: &mut Outcome, r: &MachineReport) {
    let sum = |f: fn(&vmp_core::ProcessorStats) -> u64| r.processors.iter().map(f).sum::<u64>();
    let l = &mut out.per_layer;
    l.insert("core.refs", r.total_refs() as f64);
    l.insert("core.misses", r.total_misses() as f64);
    l.insert("core.upgrades", sum(|p| p.upgrades) as f64);
    l.insert("core.retries", sum(|p| p.retries) as f64);
    l.insert("core.irqs", sum(|p| p.consistency_interrupts) as f64);
    l.insert("core.invalidations", sum(|p| p.invalidations) as f64);
    l.insert("core.writebacks", sum(|p| p.writebacks) as f64);
    l.insert("core.sim_elapsed_us", r.elapsed.as_micros_f64());
    l.insert("bus.aborts", r.bus.aborts as f64);
    l.insert("bus.util", r.bus_utilization());
    l.insert("bus.arb_wait_mean_ns", r.bus.mean_arb_wait().as_ns() as f64);
}

/// Counters a traced span set is reconciled against: the delta of the
/// report over the traced interval.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    tx: u64,
    refs: u64,
    serviced: u64,
    recoveries: u64,
}

impl Tally {
    fn of(r: &MachineReport) -> Self {
        Tally {
            tx: r.bus.total() + r.bus.aborts,
            refs: r.total_refs(),
            serviced: r.processors.iter().map(|p| p.consistency_interrupts).sum(),
            recoveries: r.processors.iter().map(|p| p.fifo_recoveries).sum(),
        }
    }

    fn since(self, before: Tally) -> Tally {
        Tally {
            tx: self.tx - before.tx,
            refs: self.refs - before.refs,
            serviced: self.serviced - before.serviced,
            recoveries: self.recoveries - before.recoveries,
        }
    }
}

/// Program, bus and core-self metrics of a traced machine run, with the
/// traced-run self-checks. `pending_ok` allows interrupt words still
/// queued at the end of the interval (a run cut mid-flight).
fn layer_split(out: &mut Outcome, b: &Breakdown, t: Tally, pending_ok: bool) {
    // Shares are of the run's time without the probes' own cost.
    let (programs, txs) = (b.count(Layer::Program) as f64, b.count(Layer::Bus) as f64);
    let program = b.net_ns(Layer::Program);
    let bus = b.net_ns(Layer::Bus);
    let run = b.net_ns(Layer::Run)
        - b.outside_ns(&[Layer::Program, Layer::Bus])
        - (programs + txs) * b.cost.inside_ns;
    let core_self = (run - program - bus).max(0.0);
    let l = &mut out.per_layer;
    l.insert("program.calls", programs);
    l.insert("program.ns_per_call", program / programs.max(1.0));
    l.insert("program.share", program / run);
    l.insert("bus.tx", txs);
    l.insert("bus.ns_per_tx", bus / txs.max(1.0));
    l.insert("bus.tx_share", bus / run);
    l.insert("bus.irq_words", b.irq_words as f64);
    l.insert("core.self_share", core_self / run);
    l.insert("core.self_ns_per_ref", core_self / t.refs.max(1) as f64);
    if b.count(Layer::Bus) != t.tx || b.unmatched_bus != 0 {
        out.problems.push(format!(
            "bus spans {} (+{} unmatched) != completed + aborted transactions {}",
            b.count(Layer::Bus),
            b.unmatched_bus,
            t.tx
        ));
    }
    // Every queued word is serviced one by one, unless an overflow
    // recovery discards it wholesale. An interval cut from a longer run
    // may also service words queued before it, or leave words queued at
    // its end: at most the four boards' FIFOs' worth.
    let waiting = if pending_ok { 4 * vmp_bus::FIFO_CAPACITY as u64 } else { 0 };
    let words_ok = b.irq_words + waiting >= t.serviced
        && (t.recoveries > 0 || b.irq_words <= t.serviced + waiting);
    if !words_ok {
        out.problems.push(format!(
            "{} interrupt words queued but {} serviced ({} overflow recoveries)",
            b.irq_words, t.serviced, t.recoveries
        ));
    }
}

fn trace_overhead(out: &mut Outcome, traced_ns: u64, untraced: &[Rep]) {
    let ms: Vec<f64> = untraced.iter().map(|r| r.ns as f64).collect();
    if !ms.is_empty() {
        out.per_layer.insert("trace_overhead", traced_ns as f64 / quantile(&ms, 0.5) - 1.0);
    }
}

/// Allocation counts of a single-threaded workload must repeat exactly.
fn allocs_repeat(out: &mut Outcome, a: u64, b: u64) {
    if a != b {
        out.problems.push(format!("allocation count does not repeat: {a} then {b}"));
    }
}

/// A machine sampled by [`SHAPE_SAMPLES`] snapshots spread evenly over
/// its run, with the bus transactions it issued between them. The
/// logging run must end exactly as the plain one does.
fn sample_shape(
    config: &MachineConfig,
    programs: impl Fn() -> Vec<Box<dyn Program>>,
) -> Result<Shape, String> {
    let mut plain = build(config.clone(), programs())?;
    let want = plain.run().map_err(|e| format!("plain run: {e}"))?;
    let mut m = build(config.clone(), programs())?;
    m.install_fault_hook(IssueLog);
    probe::take_issued();
    let mut windows: Vec<Window> = Vec::new();
    let close = |windows: &mut Vec<Window>| {
        let txs = probe::take_issued();
        if let Some(w) = windows.last_mut() {
            w.txs = txs;
        }
    };
    for k in 1..=SHAPE_SAMPLES {
        let at = Nanos::from_ns(want.elapsed.as_ns() * k / (SHAPE_SAMPLES + 1));
        m.run_until(at).map_err(|e| format!("sampled run: {e}"))?;
        let snap = m.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        close(&mut windows);
        windows.push(Window::from_snapshot(&snap)?);
    }
    let report = m.run().map_err(|e| format!("sampled run: {e}"))?;
    close(&mut windows);
    if report_digest(&report) != report_digest(&want) {
        return Err("the sampled run differs from the plain one".into());
    }
    Ok(Shape { windows, frames: config.frames(), page: config.cache.page_size() })
}

/// The layer micro-benchmarks, run in every traced run, and the
/// contended traffic shape they replay.
fn micro_benchmarks(out: &mut Outcome, seed: u64) -> Result<(), String> {
    let refs: Vec<MemRef> = AtumWorkload::new(AtumParams::default(), seed).take(100_000).collect();
    let t = atum_trace(seed);
    let uniproc = sample_shape(&prototype(1, false), || vec![Box::new(trace_program(&t))])?;
    let shape = sample_shape(&prototype(4, false), || contended_programs(seed))?;
    let l = &mut out.per_layer;
    l.insert("sim.queue_depth_1cpu", uniproc.queue_depth());
    l.insert("sim.queue_depth_4cpu", shape.queue_depth());
    l.insert("bus.book_depth", shape.book_depth());
    l.insert("bus.book_lead_ns", shape.book_lead_ns());
    l.insert("bus.table_entries", shape.table_entries());
    l.insert("sim.queue_ns_d1", micro::queue_ns(&uniproc));
    l.insert("sim.queue_ns_4cpu", micro::queue_ns(&shape));
    l.insert("cache.lookup_ns", micro::lookup_ns(&refs));
    l.insert("bus.reserve_ns", micro::reserve_ns(&shape));
    l.insert("bus.observe_ns", micro::observe_ns(&shape));
    l.insert("core.physindex_ns", micro::physindex_ns(&refs));
    Ok(())
}

// ----------------------------------------------------------------------
// The workloads
// ----------------------------------------------------------------------

/// Runs one workload for `seconds`; with `trace`, adds the traced
/// repetition and the per-layer metrics.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match name {
        "uniproc_trace" => uniproc_trace(&mut out, seed, seconds, trace)?,
        "contended_4cpu" => contended(&mut out, seed, seconds, trace, false)?,
        "contended_4cpu_obs" => contended(&mut out, seed, seconds, trace, true)?,
        "snapshot_chain" => snapshot_chain(&mut out, seed, seconds, trace)?,
        "fig4_sweep" => fig4_sweep(&mut out, seed, seconds, trace)?,
        _ => return Err(format!("unknown workload {name:?} (one of {})", NAMES.join(", "))),
    }
    if trace {
        micro_benchmarks(&mut out, seed)?;
    }
    Ok(out)
}

/// One CPU replays the ATUM trace on a fresh machine, cold start.
fn uniproc_trace(out: &mut Outcome, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let config = prototype(1, false);
    let (trace_refs, setup_s) = setup(|| {
        let t = atum_trace(seed);
        build(config.clone(), vec![Box::new(trace_program(&t))])?;
        Ok(t)
    })?;
    let want = trace_refs.len() as u64;
    let mut digest = None;
    let reps = repeat(seconds, 5, counted(trace, 2), out, || {
        let mut m = build(config.clone(), vec![Box::new(trace_program(&trace_refs))])?;
        let (report, ns, allocs) = timed(|| m.run());
        let report = report.map_err(|e| format!("run: {e}"))?;
        if report.total_refs() != want {
            return Err(format!("{} refs executed, want {want}", report.total_refs()));
        }
        m.validate().map_err(|e| format!("invariants: {e}"))?;
        let d = report_digest(&report);
        if *digest.get_or_insert(d) != d {
            return Err("report differs between repetitions".into());
        }
        Ok(Rep { ns, refs: want, allocs })
    });
    end_to_end(out, &reps, setup_s);
    let digest = digest.ok_or("no repetition completed")?;
    check_golden(out, seed, "uniproc_trace", digest);
    if !trace {
        return Ok(());
    }
    if reps.len() >= 2 {
        allocs_repeat(out, reps[0].allocs, reps[1].allocs);
        out.per_layer.insert("core.allocs_per_kref", reps[0].allocs as f64 * 1e3 / want as f64);
    }
    probe::reset(2 * TRACE_LEN);
    let t = probe::span(Layer::TraceGen, || atum_trace(seed));
    let mut m = probe::span(Layer::Build, || {
        build(config.clone(), traced(vec![Box::new(trace_program(&t))]))
    })?;
    m.install_fault_hook(SpanHook);
    let report = probe::span(Layer::Run, || m.run()).map_err(|e| format!("traced run: {e}"))?;
    let b = probe::finish();
    traced_machine_metrics(out, &b, &report, digest, &reps, Tally::default(), false);
    out.per_layer.insert("trace.gen_ms", b.ns(Layer::TraceGen) as f64 / 1e6);
    out.spans = Some(b);
    Ok(())
}

/// Metrics and checks common to every traced machine run.
fn traced_machine_metrics(
    out: &mut Outcome,
    b: &Breakdown,
    report: &MachineReport,
    digest: u64,
    reps: &[Rep],
    before: Tally,
    cut: bool,
) {
    if report_digest(report) != digest {
        out.problems.push("traced report differs from the untraced one".into());
    }
    layer_split(out, b, Tally::of(report).since(before), cut);
    sim_counts(out, report);
    out.per_layer.insert("core.build_ms", b.mean_ns(Layer::Build) / 1e6);
    trace_overhead(out, b.ns(Layer::Run), reps);
}

/// Renders the metrics document, as `vmp-trace-tool metrics` does, and
/// with `timeline` also the Chrome trace. Returns the rendered bytes.
fn export(m: &Machine, elapsed: Nanos, timeline: bool) -> Result<usize, String> {
    let obs = m.obs().ok_or("recording is off")?;
    let metrics = metrics_json(obs, elapsed).to_string().len();
    Ok(metrics + if timeline { chrome_trace(obs).to_string().len() } else { 0 })
}

/// The §5.4 contended machine, with or without the recorder and
/// attribution (plus both exports after every run).
fn contended(
    out: &mut Outcome,
    seed: u64,
    seconds: f64,
    trace: bool,
    obs: bool,
) -> Result<(), String> {
    let config = prototype(4, obs);
    let ((), setup_s) = setup(|| build(config.clone(), contended_programs(seed)).map(drop))?;
    // The obs oracle: recording must not perturb the run, so the report
    // equals the plain machine's at the same seed.
    let plain = if obs {
        let mut m = build(prototype(4, false), contended_programs(seed))?;
        Some(report_digest(&m.run().map_err(|e| format!("plain run: {e}"))?))
    } else {
        None
    };
    let digest = Cell::new(plain);
    // With the recorder on, a repetition also renders the metrics
    // document. The Chrome trace is rendered only in the traced run: at
    // 25 MB it costs more than ten times the run itself, and would turn
    // the workload into a benchmark of the JSON writer.
    let rep = |config: &MachineConfig| {
        let mut m = build(config.clone(), contended_programs(seed))?;
        let ((report, exported), ns, allocs) = timed(|| {
            let report = m.run();
            let exported = match &report {
                Ok(r) if config.obs.enabled => export(&m, r.elapsed, false).map(Some),
                _ => Ok(None),
            };
            (report, exported)
        });
        let report = report.map_err(|e| format!("run: {e}"))?;
        if exported? == Some(0) {
            return Err("empty export".into());
        }
        check_contended(&m)?;
        let d = report_digest(&report);
        if *digest.get().get_or_insert(d) != d {
            return Err("report differs from the plain machine's or an earlier one".into());
        }
        digest.set(Some(d));
        Ok(Rep { ns, refs: report.total_refs(), allocs })
    };
    let reps = repeat(seconds, 5, counted(trace, 2), out, || rep(&config));
    end_to_end(out, &reps, setup_s);
    let digest = digest.get().ok_or("no repetition completed")?;
    check_golden(out, seed, "contended_4cpu", digest);
    if !trace {
        return Ok(());
    }
    if reps.len() >= 2 {
        allocs_repeat(out, reps[0].allocs, reps[1].allocs);
        let per_kref = reps[0].allocs as f64 * 1e3 / reps[0].refs as f64;
        out.per_layer.insert("core.allocs_per_kref", per_kref);
    }
    if obs {
        // Recording plus attribution over the same programs without it.
        let base = repeat(seconds / 4.0, 3, 0, out, || rep(&prototype(4, false)));
        let p50 = |v: &[Rep]| quantile(&v.iter().map(|r| r.ns as f64).collect::<Vec<_>>(), 0.5);
        if !base.is_empty() && !reps.is_empty() {
            out.per_layer.insert("obs.overhead", p50(&reps) / p50(&base));
        }
    }
    probe::reset(4 * 1024 * 1024);
    let mut m =
        probe::span(Layer::Build, || build(config.clone(), traced(contended_programs(seed))))?;
    m.install_fault_hook(SpanHook);
    let report = probe::span(Layer::Run, || m.run()).map_err(|e| format!("traced run: {e}"))?;
    if obs {
        let bytes = probe::span(Layer::Export, || export(&m, report.elapsed, true))?;
        let o = m.obs().ok_or("recording is off")?;
        let held = (0..4).map(|c| o.cpu_recorded(c)).sum::<u64>() + o.bus_recorded();
        out.per_layer.insert("obs.events", (held + o.total_dropped()) as f64);
        out.per_layer.insert("obs.events_dropped", o.total_dropped() as f64);
        out.per_layer.insert("obs.export_bytes", bytes as f64);
    }
    check_contended(&m)?;
    let b = probe::finish();
    traced_machine_metrics(out, &b, &report, digest, &reps, Tally::default(), false);
    out.per_layer.insert("obs.export_ms", b.ns(Layer::Export) as f64 / 1e6);
    out.spans = Some(b);
    Ok(())
}

/// One snapshot cycle: capture, encode, decode, resume with fresh
/// programs, then a short simulated slice up to `deadline`. Returns the
/// resumed machine and the encoded size. With `trace`, every step is a
/// span and the resumed machine runs under the probes.
fn cycle(
    m: Machine,
    config: &MachineConfig,
    seed: u64,
    deadline: Nanos,
    trace: bool,
) -> Result<(Machine, usize), String> {
    let step = |layer, f: &mut dyn FnMut()| if trace { probe::span(layer, f) } else { f() };
    let mut snap = None;
    step(Layer::Capture, &mut || snap = Some(m.snapshot()));
    drop(m);
    let snap = snap.expect("captured").map_err(|e| format!("snapshot: {e}"))?;
    let mut bytes = Vec::new();
    step(Layer::Encode, &mut || bytes = snap.to_bytes());
    drop(snap);
    let mut decoded = None;
    step(Layer::Decode, &mut || decoded = Some(MachineSnapshot::from_bytes(&bytes)));
    let snap = decoded.expect("decoded").map_err(|e| format!("decode: {e}"))?;
    let programs = contended_programs(seed);
    let mut programs = if trace { traced(programs) } else { programs };
    let mut resumed = None;
    step(Layer::Resume, &mut || {
        resumed = Some(Machine::resume(
            config.clone(),
            &snap,
            programs.drain(..).map(Some).collect(),
            None,
        ))
    });
    let mut m = resumed.expect("resumed").map_err(|e| format!("resume: {e}"))?;
    if trace {
        m.install_fault_hook(SpanHook);
    }
    let mut ran = Ok(());
    step(Layer::Run, &mut || ran = m.run_until(deadline).map(drop));
    ran.map_err(|e| format!("slice: {e}"))?;
    Ok((m, bytes.len()))
}

fn resume_from(bytes: &[u8], config: &MachineConfig, seed: u64) -> Result<Machine, String> {
    let snap = MachineSnapshot::from_bytes(bytes).map_err(|e| format!("decode: {e}"))?;
    let programs = contended_programs(seed).into_iter().map(Some).collect();
    Machine::resume(config.clone(), &snap, programs, None).map_err(|e| format!("resume: {e}"))
}

/// The contended machine cut mid-flight, then snapshot → bytes → decode
/// → resume → slice, chained; each segment of [`SEGMENT`] cycles must end
/// exactly where the uninterrupted run does.
fn snapshot_chain(out: &mut Outcome, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let config = prototype(4, false);
    let (cut_bytes, setup_s) = setup(|| {
        let mut m = build(config.clone(), contended_programs(seed))?;
        m.run_until(CUT).map_err(|e| format!("run to cut: {e}"))?;
        Ok(m.snapshot().map_err(|e| format!("snapshot: {e}"))?.to_bytes())
    })?;
    let end = CUT + SLICE * SEGMENT as u64;
    let reference = {
        let mut m = build(config.clone(), contended_programs(seed))?;
        let r = m.run_until(end).map_err(|e| format!("uninterrupted run: {e}"))?;
        if m.processors() != r.active_processors().len() {
            return Err("the contended run is idle before the chain's end".into());
        }
        report_digest(&r)
    };
    let mut m = None;
    let mut k = 0usize;
    let mut refs_done = 0;
    let mut bytes = 0;
    let reps = repeat(seconds, SEGMENT, counted(trace, 2 * SEGMENT), out, || {
        let mut machine = match m.take() {
            Some(machine) => machine,
            None => {
                k = 0;
                let machine = resume_from(&cut_bytes, &config, seed)?;
                refs_done = machine.report().total_refs();
                machine
            }
        };
        k += 1;
        let deadline = CUT + SLICE * k as u64;
        let (res, ns, allocs) = timed(|| cycle(machine, &config, seed, deadline, false));
        let (resumed, len) = res?;
        machine = resumed;
        bytes = len;
        let report = machine.report();
        let refs = report.total_refs() - refs_done;
        refs_done = report.total_refs();
        if k == SEGMENT {
            if report_digest(&report) != reference {
                return Err("chained resume diverged from the uninterrupted run".into());
            }
            machine.validate().map_err(|e| format!("invariants: {e}"))?;
        } else {
            m = Some(machine);
        }
        Ok(Rep { ns, refs, allocs })
    });
    end_to_end(out, &reps, setup_s);
    check_golden(out, seed, "snapshot_chain", reference);
    if !trace {
        return Ok(());
    }
    out.per_layer.insert("snapshot.bytes", bytes as f64);
    if reps.len() >= 2 * SEGMENT {
        let seg = |s: usize| reps[s * SEGMENT..(s + 1) * SEGMENT].iter().map(|r| r.allocs).sum();
        allocs_repeat(out, seg(0), seg(1));
    }
    let seg_allocs: u64 = reps.iter().take(SEGMENT).map(|r| r.allocs).sum();
    out.per_layer.insert("snapshot.allocs_per_cycle", seg_allocs as f64 / SEGMENT as f64);
    let mut m = resume_from(&cut_bytes, &config, seed)?;
    let before = Tally::of(&m.report());
    probe::reset(1024 * 1024);
    probe::span(Layer::Build, || build(config.clone(), contended_programs(seed)))?;
    for k in 1..=SEGMENT {
        m = cycle(m, &config, seed, CUT + SLICE * k as u64, true)?.0;
    }
    let b = probe::finish();
    let report = m.report();
    traced_machine_metrics(out, &b, &report, reference, &[], before, true);
    let per_cycle = |l| b.mean_ns(l) / 1e6;
    for (name, layer) in [
        ("snapshot.capture_ms", Layer::Capture),
        ("snapshot.encode_ms", Layer::Encode),
        ("snapshot.decode_ms", Layer::Decode),
        ("snapshot.resume_ms", Layer::Resume),
    ] {
        out.per_layer.insert(name, per_cycle(layer));
    }
    // Resume rebuilds the machine: its build cost is inside resume_ms.
    let traced_ns = [Layer::Capture, Layer::Encode, Layer::Decode, Layer::Resume, Layer::Run]
        .iter()
        .map(|&l| b.ns(l))
        .sum::<u64>();
    trace_overhead(out, traced_ns / SEGMENT as u64, &reps);
    out.spans = Some(b);
    Ok(())
}

/// The Figure-4 grid: 64/128/256 KB × 128/256/512-byte pages, 4-way.
fn grid() -> Vec<SweepJob<CacheConfig>> {
    [64u64, 128, 256]
        .iter()
        .flat_map(|&kb| {
            PageSize::PROTOTYPE_SIZES.map(|page| {
                let config = CacheConfig::new(page, 4, kb * 1024).expect("valid fig. 4 geometry");
                SweepJob::new(format!("{kb}KB/{page}"), config)
            })
        })
        .collect()
}

fn tag_run(config: CacheConfig, trace: &Trace) -> CacheSimStats {
    TagCache::new(config).run(trace.iter().copied())
}

/// The Figure-4 grid of `TagCache::run` over the standard trace, on the
/// sweep pool with two threads.
fn fig4_sweep(out: &mut Outcome, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let (t, setup_s) = setup(|| Ok(atum_trace(seed)))?;
    let jobs = grid();
    // The determinism oracle: one thread gives the same cells.
    let sequential: Vec<CacheSimStats> = jobs.iter().map(|j| tag_run(j.input, &t)).collect();
    let digest = cells_digest(&sequential);
    let pool = SweepPool::new().threads(SWEEP_THREADS);
    let grid_refs = (t.len() * jobs.len()) as u64;
    let reps = repeat(seconds, 5, 0, out, || {
        let (cells, ns, allocs) = timed(|| pool.run(grid(), |j| tag_run(j.input, &t)));
        if cells_digest(&cells) != digest {
            return Err("cells differ between 1 and 2 threads".into());
        }
        Ok(Rep { ns, refs: grid_refs, allocs })
    });
    end_to_end(out, &reps, setup_s);
    check_golden(out, seed, "fig4_sweep", digest);
    if !trace {
        return Ok(());
    }
    let l = &mut out.per_layer;
    l.insert("core.refs", grid_refs as f64);
    l.insert("core.misses", sequential.iter().map(|c| c.misses).sum::<u64>() as f64);
    probe::reset(64);
    let t = probe::span(Layer::TraceGen, || atum_trace(seed));
    // Single `TagCache::run` calls, one at a time on this thread.
    for j in &jobs {
        probe::span(Layer::TagCache, || tag_run(j.input, &t));
    }
    let single = probe::finish();
    let per_ref = single.ns(Layer::TagCache) as f64 / grid_refs as f64;
    // The traced sweep: each cell timed on its worker thread.
    probe::reset(64);
    let start = Instant::now();
    let timed_cells = pool.run(grid(), |j| {
        let s = Instant::now();
        let stats = tag_run(j.input, &t);
        (stats, s, Instant::now())
    });
    let wall = start.elapsed().as_nanos() as f64;
    for &(_, s, e) in &timed_cells {
        probe::record(Layer::TagCache, s, e);
    }
    let b = probe::finish();
    let cells: Vec<CacheSimStats> = timed_cells.iter().map(|c| c.0).collect();
    if cells_digest(&cells) != digest {
        out.problems.push("traced cells differ from the untraced ones".into());
    }
    let l = &mut out.per_layer;
    l.insert("cache.tagcache_ns_per_ref", per_ref);
    l.insert("sweep.efficiency", b.ns(Layer::TagCache) as f64 / (SWEEP_THREADS as f64 * wall));
    l.insert("trace.gen_ms", single.ns(Layer::TraceGen) as f64 / 1e6);
    trace_overhead(out, wall as u64, &reps);
    out.spans = Some(b);
    Ok(())
}

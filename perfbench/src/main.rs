//! Host-speed benchmark of the VMP simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run sets the workload up, repeats it in a closed loop for the
//! given seconds, checks every repetition's simulated outcome, and prints
//! one JSON line last: the end-to-end metrics with `--trace 0`, or, with
//! `--trace 1`, the per-layer metrics of a separate traced repetition
//! plus the layer micro-benchmarks. See `perfbench/README.md`.

mod host;
mod micro;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The default workload seed: the repository's standard ATUM trace seed.
pub const DEFAULT_SEED: u64 = 1986;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics with their units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] =
    [("refs_per_s", "1/s"), ("cycle_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics with their units, printed with `--trace 1`. A layer
/// the workload does not cross reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("program.calls", "count"),
    ("program.ns_per_call", "ns"),
    ("program.share", "ratio"),
    ("core.self_share", "ratio"),
    ("core.self_ns_per_ref", "ns"),
    ("core.build_ms", "ms"),
    ("core.allocs_per_kref", "count"),
    ("core.physindex_ns", "ns"),
    ("bus.tx", "count"),
    ("bus.ns_per_tx", "ns"),
    ("bus.tx_share", "ratio"),
    ("bus.irq_words", "count"),
    ("bus.reserve_ns", "ns"),
    ("bus.observe_ns", "ns"),
    ("sim.queue_ns_d1", "ns"),
    ("sim.queue_ns_4cpu", "ns"),
    ("sim.queue_depth_1cpu", "count"),
    ("sim.queue_depth_4cpu", "count"),
    ("bus.book_depth", "count"),
    ("bus.book_lead_ns", "ns"),
    ("bus.table_entries", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.tagcache_ns_per_ref", "ns"),
    ("sweep.efficiency", "ratio"),
    ("obs.overhead", "ratio"),
    ("obs.events", "count"),
    ("obs.events_dropped", "count"),
    ("obs.export_ms", "ms"),
    ("obs.export_bytes", "bytes"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.resume_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.allocs_per_cycle", "count"),
    ("trace.gen_ms", "ms"),
    ("host.rep_ms_p50", "ms"),
    ("host.rep_ms_p90", "ms"),
    ("trace_overhead", "ratio"),
    ("core.refs", "count"),
    ("core.misses", "count"),
    ("core.upgrades", "count"),
    ("core.retries", "count"),
    ("core.irqs", "count"),
    ("core.invalidations", "count"),
    ("core.writebacks", "count"),
    ("core.sim_elapsed_us", "us"),
    ("bus.aborts", "count"),
    ("bus.util", "ratio"),
    ("bus.arb_wait_mean_ns", "ns"),
];

/// SplitMix64: the benchmark's own seeded generator for its inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("want a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload: one of {}", workloads::NAMES.join(", ")));
    }
    Ok(args)
}

/// Peak resident set of this process, in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Writes the traced run's per-layer span table next to the benchmark.
fn write_spans(args: &Args, spans: &probe::Breakdown) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, format!("{}\n", spans.to_json()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn json_metrics(names: &[(&'static str, &'static str)], values: &Metrics) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    host::fix_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match workloads::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match peak_rss_mb() {
        Ok(mb) => {
            out.end_to_end.insert("peak_rss_mb", mb);
        }
        Err(e) => out.problems.push(format!("peak RSS: {e}")),
    }
    if let Some(spans) = &out.spans {
        if let Err(e) = write_spans(&args, spans) {
            out.problems.push(format!("writing spans: {e}"));
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = if args.trace { &out.per_layer } else { &out.end_to_end };
    for (name, unit) in names {
        println!("{name:<28} {:>16.4} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
    for p in &out.problems {
        eprintln!("problem: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(names, values)
    );
    ExitCode::SUCCESS
}

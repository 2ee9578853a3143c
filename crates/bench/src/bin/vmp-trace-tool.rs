//! Command-line trace utility: generate synthetic ATUM-like traces,
//! convert between the text and binary formats, and analyse locality.
//!
//! ```sh
//! vmp-trace-tool generate --refs 400000 --seed 1986 --out trace.vmpt
//! vmp-trace-tool convert trace.vmpt trace.txt
//! vmp-trace-tool analyze trace.vmpt
//! vmp-trace-tool simulate trace.vmpt --page 256 --assoc 4 --kb 128
//! vmp-trace-tool sweep trace.vmpt --assoc 4   # full geometry grid, parallel
//! vmp-trace-tool chaos --plans 100 --seed 0   # fault-injection soak
//! vmp-trace-tool timeline --out t.json        # Chrome trace of a contended run
//! vmp-trace-tool metrics --out m.json         # latency histograms + series
//! vmp-trace-tool top --n 10                   # hottest pages, ping-pong verdicts
//! vmp-trace-tool compare base.json new.json   # cross-run regression gate
//! vmp-trace-tool snapshot --workload 1 --at 500 --out s.vmpsnap
//! vmp-trace-tool resume s.vmpsnap --verify    # continue; check bit-identity
//! vmp-trace-tool state-diff a.vmpsnap b.vmpsnap  # first divergent field
//! vmp-trace-tool golden --dir golden --check  # golden-state corpus gate
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::Arc;

use vmp_cache::{classify_misses, CacheConfig};
use vmp_core::scenarios::{observed_config, soak_config, Scenario};
use vmp_core::{Machine, MachineConfig, MachineSnapshot, ObsConfig};
use vmp_faults::{FaultPlan, FaultRates};
use vmp_obs::compare::{compare_metrics, CompareThresholds};
use vmp_obs::{chrome_trace, json, metrics_json, MachineObs, TxClass};
use vmp_sweep::{CsvTable, SweepJob, SweepPool};
use vmp_trace::synth::{AtumParams, AtumWorkload};
use vmp_trace::{
    read_binary, read_text, reuse_distances, working_set_sizes, write_binary, write_text, Trace,
};
use vmp_types::{Nanos, PageSize};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  vmp-trace-tool generate [--refs N] [--seed S] --out FILE\n  \
         vmp-trace-tool convert IN OUT\n  \
         vmp-trace-tool analyze FILE [--page BYTES]\n  \
         vmp-trace-tool simulate FILE [--page BYTES] [--assoc N] [--kb N]\n  \
         vmp-trace-tool sweep FILE [--assoc N] [--threads N] [--csv FILE]\n  \
         vmp-trace-tool chaos [--plans N] [--seed S] [--threads N]\n  \
         vmp-trace-tool timeline [--procs N] [--page BYTES] [--workload W] [--out FILE]\n  \
         vmp-trace-tool metrics [--procs N] [--page BYTES] [--workload W] [--out FILE]\n  \
         vmp-trace-tool top [--n N] [--procs N] [--page BYTES] [--workload W] [--out FILE]\n  \
         vmp-trace-tool compare BASELINE CURRENT [--threshold PCT]\n  \
         vmp-trace-tool snapshot --workload N [--seed S] [--at US] --out FILE\n  \
         vmp-trace-tool resume FILE [--verify]\n  \
         vmp-trace-tool state-diff A B\n  \
         vmp-trace-tool golden [--dir DIR] [--check]\n\n\
         files ending in .txt use the text format; anything else is binary;\n\
         sweep runs the full page-size x cache-size grid in parallel\n\
         (thread count: --threads, else VMP_THREADS, else all cores), adds\n\
         per-cell contention attribution of the contended workload at each\n\
         geometry, and with --csv writes one machine-readable row per cell;\n\
         chaos soaks the machine under N seeded fault plans per workload,\n\
         asserting faults cost time but never correctness, and replays the\n\
         first failing seed with the event recorder on (timeline dumped to\n\
         chaos-wW-sS.trace.json);\n\
         timeline records a contended N-processor run (default 4) and emits\n\
         a Chrome trace-event document (load in Perfetto / chrome://tracing);\n\
         metrics emits the same run's latency histograms, windowed series,\n\
         per-page attribution and machine report as JSON; both print to\n\
         stdout without --out;\n\
         top ranks the run's hottest pages by consistency-protocol traffic\n\
         with per-CPU breakdowns and ping-pong/false-sharing verdicts\n\
         (--workload: contended (default), lock, false; --page: 128/256/512);\n\
         compare diffs two metrics JSON files (bus utilization, miss-service\n\
         p50/p99, refs/s, ping-pong episodes) against relative thresholds\n\
         (--threshold PCT applies one percentage to every metric) and exits\n\
         non-zero on regression;\n\
         snapshot runs chaos workload N (0..=3, optionally under fault seed\n\
         S) until --at simulated microseconds and saves the complete machine\n\
         state; resume loads it, finishes the run, and with --verify asserts\n\
         the result is bit-identical to the uninterrupted run; state-diff\n\
         prints the first divergent field/byte of two snapshots; golden\n\
         regenerates the committed golden-state corpus (--check byte-compares\n\
         against DIR instead of writing, resumes each committed file and\n\
         byte-compares its re-encoding, exits non-zero and state-diffs on\n\
         mismatch)"
    );
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let result = if path.ends_with(".txt") {
        read_text(BufReader::new(file))
    } else {
        read_binary(BufReader::new(file))
    };
    result.map_err(|e| format!("read {path}: {e}"))
}

fn store(path: &str, trace: &Trace) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let result = if path.ends_with(".txt") {
        write_text(BufWriter::new(file), trace)
    } else {
        write_binary(BufWriter::new(file), trace)
    };
    result.map_err(|e| format!("write {path}: {e}"))
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse_page(args: &[String]) -> Result<PageSize, String> {
    let bytes: u64 = flag(args, "--page")
        .unwrap_or_else(|| "256".into())
        .parse()
        .map_err(|e| format!("bad --page: {e}"))?;
    PageSize::new(bytes).map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("generate") => generate,
        Some("convert") => convert,
        Some("analyze") => analyze,
        Some("simulate") => simulate,
        Some("sweep") => sweep,
        Some("chaos") => chaos,
        Some("timeline") => timeline,
        Some("metrics") => metrics,
        Some("top") => top,
        Some("compare") => compare,
        Some("snapshot") => snapshot,
        Some("resume") => resume,
        Some("state-diff") => state_diff,
        Some("golden") => golden,
        _ => {
            usage();
            return Err(String::new());
        }
    };
    command(&args)
}

// One function per subcommand; each gets the whole argument list, the
// subcommand's name first.

fn generate(args: &[String]) -> Result<(), String> {
    let refs: usize = flag(args, "--refs")
        .unwrap_or_else(|| "400000".into())
        .parse()
        .map_err(|e| format!("bad --refs: {e}"))?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "1986".into())
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let out = flag(args, "--out").ok_or("generate requires --out FILE")?;
    let trace: Trace = AtumWorkload::new(AtumParams::default(), seed).take(refs).collect();
    store(&out, &trace)?;
    println!("wrote {} references to {out}", trace.len());
    println!("{}", trace.stats());
    Ok(())
}

fn convert(args: &[String]) -> Result<(), String> {
    let [_, input, output] = args else {
        return Err("convert requires IN and OUT".into());
    };
    let trace = load(input)?;
    store(output, &trace)?;
    println!("converted {} references: {input} -> {output}", trace.len());
    Ok(())
}

fn analyze(args: &[String]) -> Result<(), String> {
    let input = args.get(1).ok_or("analyze requires FILE")?;
    let page = parse_page(args)?;
    let trace = load(input)?;
    println!("{}", trace.stats());
    let h = reuse_distances(trace.iter().copied(), page);
    println!(
        "reuse distances at {page}: cold {:.2}%, miss-ratio estimates:",
        100.0 * h.cold_fraction()
    );
    for capacity in [64u64, 256, 512, 1024] {
        println!(
            "  fully-assoc LRU of {capacity:4} pages ({:4} KB): {:.3}%",
            capacity * page.bytes() / 1024,
            100.0 * h.fraction_at_least(capacity)
        );
    }
    let ws = working_set_sizes(trace.iter().copied(), page, 50_000);
    println!("working set per 50k-ref window (pages): {ws:?}");
    Ok(())
}

fn simulate(args: &[String]) -> Result<(), String> {
    let input = args.get(1).ok_or("simulate requires FILE")?;
    let page = parse_page(args)?;
    let assoc: usize = flag(args, "--assoc")
        .unwrap_or_else(|| "4".into())
        .parse()
        .map_err(|e| format!("bad --assoc: {e}"))?;
    let kb: u64 = flag(args, "--kb")
        .unwrap_or_else(|| "128".into())
        .parse()
        .map_err(|e| format!("bad --kb: {e}"))?;
    let config = CacheConfig::new(page, assoc, kb * 1024).map_err(|e| e.to_string())?;
    let trace = load(input)?;
    let c = classify_misses(config, trace.iter().copied());
    println!("{config}: miss ratio {:.3}%", 100.0 * c.miss_ratio());
    println!(
        "  cold {} + capacity {} + conflict {} = {} misses / {} refs",
        c.cold,
        c.capacity,
        c.conflict,
        c.total_misses(),
        c.refs
    );
    Ok(())
}

fn sweep(args: &[String]) -> Result<(), String> {
    let input = args.get(1).ok_or("sweep requires FILE")?;
    let assoc: usize = flag(args, "--assoc")
        .unwrap_or_else(|| "4".into())
        .parse()
        .map_err(|e| format!("bad --assoc: {e}"))?;
    let trace = Arc::new(load(input)?);

    let mut pool = SweepPool::new();
    if let Some(n) = flag(args, "--threads") {
        pool = pool.threads(n.parse().map_err(|e| format!("bad --threads: {e}"))?);
    }
    let mut jobs = Vec::new();
    let mut cells = Vec::new();
    for kb in [64u64, 128, 256] {
        for page in PageSize::PROTOTYPE_SIZES {
            let config = CacheConfig::new(page, assoc, kb * 1024).map_err(|e| e.to_string())?;
            jobs.push(SweepJob::new(format!("{kb}KB/{page}"), config));
            cells.push((kb, page));
        }
    }
    println!(
        "sweeping {} geometries over {} references on {} thread(s)",
        jobs.len(),
        trace.len(),
        pool.effective_threads()
    );
    let shared = Arc::clone(&trace);
    let start = std::time::Instant::now();
    let results = pool.run(jobs, move |job| {
        let misses = classify_misses(job.input, shared.iter().copied());
        let attrib = attrib_cell(job.input);
        (misses, attrib)
    });
    let wall = start.elapsed();
    let mut csv = CsvTable::new(&[
        "label",
        "cache_kb",
        "page_bytes",
        "refs",
        "misses",
        "miss_pct",
        "cold",
        "capacity",
        "conflict",
        "ownership_transfers",
        "ping_pong_episodes",
        "true_sharing_bounces",
        "false_sharing_bounces",
        "bus_util_pct",
    ]);
    for (&(kb, page), (c, cell)) in cells.iter().zip(&results) {
        let cell = cell.as_ref().map_err(|e| e.clone())?;
        println!(
            "  {kb:3} KB @ {page}: miss {:.3}% (cold {} + capacity {} + conflict {}); \
             contended: {} transfers, {} ping-pong ({} true / {} false), bus {:.1}%",
            100.0 * c.miss_ratio(),
            c.cold,
            c.capacity,
            c.conflict,
            cell.transfers,
            cell.episodes,
            cell.true_bounces,
            cell.false_bounces,
            100.0 * cell.bus_util
        );
        csv.row(&[
            format!("{kb}KB/{page}"),
            kb.to_string(),
            page.bytes().to_string(),
            c.refs.to_string(),
            c.total_misses().to_string(),
            format!("{:.4}", 100.0 * c.miss_ratio()),
            c.cold.to_string(),
            c.capacity.to_string(),
            c.conflict.to_string(),
            cell.transfers.to_string(),
            cell.episodes.to_string(),
            cell.true_bounces.to_string(),
            cell.false_bounces.to_string(),
            format!("{:.2}", 100.0 * cell.bus_util),
        ]);
    }
    if let Some(path) = flag(args, "--csv") {
        std::fs::write(&path, csv.render()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {} csv rows to {path}", csv.rows());
    }
    let total_refs = trace.len() as u64 * results.len() as u64;
    println!(
        "swept {total_refs} simulated references in {:.2}s ({:.1}M refs/s)",
        wall.as_secs_f64(),
        total_refs as f64 / wall.as_secs_f64() / 1e6
    );
    Ok(())
}

fn chaos(args: &[String]) -> Result<(), String> {
    let plans: u64 = flag(args, "--plans")
        .unwrap_or_else(|| "100".into())
        .parse()
        .map_err(|e| format!("bad --plans: {e}"))?;
    let base: u64 = flag(args, "--seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let mut pool = SweepPool::new();
    if let Some(n) = flag(args, "--threads") {
        pool = pool.threads(n.parse().map_err(|e| format!("bad --threads: {e}"))?);
    }

    // Zero-fault oracle per workload: the probe words every
    // faulted run must reproduce exactly.
    let oracle: Vec<Vec<Option<u32>>> = (0..CHAOS_WORKLOADS)
        .map(|w| {
            let mut m = soak_machine(w, None, false);
            m.run().map_err(|e| format!("oracle workload {w}: {e}"))?;
            m.validate().map_err(|e| format!("oracle workload {w} invalid: {e}"))?;
            Ok(Scenario::CHAOS[w].probe_words(&m))
        })
        .collect::<Result<_, String>>()?;

    let mut jobs = Vec::new();
    for w in 0..CHAOS_WORKLOADS {
        for seed in base..base + plans {
            jobs.push(SweepJob::new(format!("w{w}/s{seed}"), (w, seed)));
        }
    }
    println!(
        "soaking {} fault plans ({} workloads x {} seeds from {}) on {} thread(s)",
        jobs.len(),
        CHAOS_WORKLOADS,
        plans,
        base,
        pool.effective_threads()
    );
    let start = std::time::Instant::now();
    let outcomes = pool.run(jobs, |job| {
        let (w, seed) = job.input;
        let mut m = soak_machine(w, Some(seed), false);
        let error = m.run().err().map(|e| e.to_string());
        let invalid = m.validate().err();
        (w, seed, error, invalid, Scenario::CHAOS[w].probe_words(&m), *m.fault_stats())
    });
    let wall = start.elapsed();

    let mut failures = 0u64;
    let mut first_fail: Option<(usize, u64)> = None;
    let mut totals = vmp_core::FaultStats::default();
    for (w, seed, error, invalid, probes, faults) in &outcomes {
        let what = if let Some(e) = error {
            Some(format!("run failed: {e}"))
        } else if let Some(e) = invalid {
            Some(format!("validate failed: {e}"))
        } else if probes != &oracle[*w] {
            Some("final memory diverged from zero-fault oracle".into())
        } else {
            None
        };
        if let Some(what) = what {
            eprintln!("FAIL workload {w} seed {seed}: {what}");
            failures += 1;
            first_fail = first_fail.or(Some((*w, *seed)));
        }
        totals.injected_aborts += faults.injected_aborts;
        totals.dropped_words += faults.dropped_words;
        totals.forced_overflows += faults.forced_overflows;
        totals.copier_retries += faults.copier_retries;
        totals.stalls += faults.stalls;
    }
    println!(
        "absorbed {} faults: {} aborts, {} dropped words, {} forced overflows, \
         {} copier retries, {} stalls",
        totals.total(),
        totals.injected_aborts,
        totals.dropped_words,
        totals.forced_overflows,
        totals.copier_retries,
        totals.stalls
    );
    println!(
        "{} runs in {:.2}s: {} ok, {} failed",
        outcomes.len(),
        wall.as_secs_f64(),
        outcomes.len() as u64 - failures,
        failures
    );
    if failures > 0 {
        // Replay the first failing seed with the recorder on so
        // there is a timeline to post-mortem, not just a FAIL line.
        if let Some((w, seed)) = first_fail {
            let path = format!("chaos-w{w}-s{seed}.trace.json");
            match dump_chaos_timeline(w, seed, &path) {
                Ok(events) => eprintln!(
                    "replayed workload {w} seed {seed} with recording on: \
                     {events} events -> {path}"
                ),
                Err(e) => eprintln!("timeline replay failed: {e}"),
            }
            let snap_path = format!("chaos-w{w}-s{seed}.vmpsnap");
            match dump_chaos_snapshot(w, seed, &snap_path) {
                Ok(at) => eprintln!(
                    "captured last good machine state ({} us in) -> {snap_path} \
                     (inspect with state-diff, continue with resume)",
                    at.as_ns() / 1000
                ),
                Err(e) => eprintln!("snapshot capture failed: {e}"),
            }
        }
        return Err(format!("{failures} chaos runs violated fault transparency"));
    }
    Ok(())
}

fn timeline(args: &[String]) -> Result<(), String> {
    let (mut m, procs) = observed_machine(args)?;
    let report = m.run().map_err(|e| format!("run: {e}"))?;
    let obs = m.obs().expect("recording is enabled");
    warn_if_dropped(obs);
    let doc = chrome_trace(obs).to_string();
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(&path, &doc).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote {} events ({} dropped, {procs} cpu tracks + bus) over {} \
                 simulated us to {path}",
                recorded_events(obs),
                obs.total_dropped(),
                report.elapsed.as_ns() / 1000
            );
        }
        None => println!("{doc}"),
    }
    Ok(())
}

fn metrics(args: &[String]) -> Result<(), String> {
    let (mut m, _) = observed_machine(args)?;
    let report = m.run().map_err(|e| format!("run: {e}"))?;
    let obs = m.obs().expect("recording is enabled");
    let doc = metrics_json(obs, report.elapsed).set("report", report.to_json());
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(&path, doc.to_string()).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote metrics ({} misses timed, {} arb waits) to {path}",
                obs.miss_service.count(),
                obs.arb_wait.count()
            );
        }
        None => println!("{doc}"),
    }
    Ok(())
}

fn top(args: &[String]) -> Result<(), String> {
    let n: usize = flag(args, "--n")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|e| format!("bad --n: {e}"))?;
    let (mut m, procs) = observed_machine(args)?;
    let page_bytes = m.page_size().bytes();
    let report = m.run().map_err(|e| format!("run: {e}"))?;
    let obs = m.obs().expect("recording is enabled");
    warn_if_dropped(obs);
    let attrib = obs.attrib().expect("attribution is enabled");
    let s = attrib.summary();
    println!(
        "{procs}-processor contended run: {} us simulated, bus {:.1}% busy",
        report.elapsed.as_ns() / 1000,
        100.0 * report.bus_utilization()
    );
    println!(
        "{} pages touched; {} ownership transfers, {} ping-pong episodes \
         ({} true-sharing / {} false-sharing / {} unclassified bounces)",
        s.pages, s.transfers, s.episodes, s.true_bounces, s.false_bounces, s.unknown_bounces
    );
    println!("top {} pages by consistency-protocol traffic:", n.min(attrib.page_count()));
    println!(
        "{:>4}  {:>14}  {:>7}  {:>5} {:>5} {:>5} {:>5}  {:>6}  {:>7}  {:>5} {:>3}  verdict",
        "rank", "page", "traffic", "rs", "rp", "ao", "wb", "aborts", "svc_us", "xfers", "pp"
    );
    for (rank, (key, p)) in attrib.top_by_traffic(n).iter().enumerate() {
        println!(
            "{:>4}  {:>14}  {:>7}  {:>5} {:>5} {:>5} {:>5}  {:>6}  {:>7}  {:>5} {:>3}  {}",
            rank + 1,
            format!("{}:{:#x}", key.asid.raw(), key.vpn.raw() * page_bytes),
            p.traffic(),
            p.count(TxClass::ReadShared),
            p.count(TxClass::ReadPrivate),
            p.count(TxClass::AssertOwnership),
            p.count(TxClass::WriteBack),
            p.aborts(),
            p.service().as_ns() / 1000,
            p.transfers(),
            p.episodes(),
            p.verdict().label()
        );
        for cpu in 0..attrib.cpus() {
            if p.cpu_traffic(cpu) == 0 && p.cpu_aborts(cpu) == 0 {
                continue;
            }
            let (reads, writes) = p.cpu_accesses(cpu);
            println!(
                "      cpu{cpu}: traffic {}, aborts {}, reads {reads}, writes {writes}, \
                 footprint {:#x}",
                p.cpu_traffic(cpu),
                p.cpu_aborts(cpu),
                p.cpu_footprint(cpu)
            );
        }
    }
    if let Some(path) = flag(args, "--out") {
        let doc = metrics_json(obs, report.elapsed).set("report", report.to_json());
        std::fs::write(&path, doc.to_string()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote metrics (with attribution) to {path}");
    }
    Ok(())
}

fn compare(args: &[String]) -> Result<(), String> {
    let base_path = args.get(1).ok_or("compare requires BASELINE and CURRENT files")?;
    let cur_path = args.get(2).ok_or("compare requires BASELINE and CURRENT files")?;
    let thresholds = match flag(args, "--threshold") {
        Some(pct) => {
            let pct: f64 = pct.parse().map_err(|e| format!("bad --threshold: {e}"))?;
            if !(0.0..=1000.0).contains(&pct) {
                return Err("--threshold must be a percentage in 0..=1000".into());
            }
            CompareThresholds::uniform(pct / 100.0)
        }
        None => CompareThresholds::default(),
    };
    let read = |path: &str| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let base = read(base_path)?;
    let cur = read(cur_path)?;
    let out = compare_metrics(&base, &cur, &thresholds)?;
    println!("comparing {cur_path} against baseline {base_path}:");
    for c in &out.checks {
        println!(
            "  {:<22} {:>14.3} -> {:>14.3}  {:>+8.2}% (limit {:.0}%)  {}",
            c.metric,
            c.baseline,
            c.current,
            100.0 * c.change,
            100.0 * c.threshold,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for name in &out.skipped {
        println!("  {name:<22} skipped (absent from both documents)");
    }
    if out.passed() {
        println!("compare: PASS ({} metrics checked)", out.checks.len());
        Ok(())
    } else {
        Err(format!("compare: {} of {} metrics regressed", out.regressions(), out.checks.len()))
    }
}

fn snapshot(args: &[String]) -> Result<(), String> {
    let workload: usize = flag(args, "--workload")
        .ok_or("snapshot requires --workload N (0..=3)")?
        .parse()
        .map_err(|e| format!("bad --workload: {e}"))?;
    if workload >= CHAOS_WORKLOADS {
        return Err(format!("--workload must be 0..={}", CHAOS_WORKLOADS - 1));
    }
    let at_us: u64 = flag(args, "--at")
        .unwrap_or_else(|| "500".into())
        .parse()
        .map_err(|e| format!("bad --at: {e}"))?;
    let seed: Option<u64> = match flag(args, "--seed") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --seed: {e}"))?),
        None => None,
    };
    let out = flag(args, "--out").ok_or("snapshot requires --out FILE")?;
    let snap = take_chaos_snapshot(workload, seed, Nanos::from_us(at_us))?;
    snap.save(&out).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "snapshotted workload {workload} at {at_us} us{} -> {out} ({} bytes)",
        seed.map(|s| format!(" (fault seed {s})")).unwrap_or_default(),
        snap.to_bytes().len()
    );
    Ok(())
}

fn resume(args: &[String]) -> Result<(), String> {
    let input = args.get(1).ok_or("resume requires FILE")?;
    let snap = MachineSnapshot::load(input).map_err(|e| e.to_string())?;
    let (workload, seed) = chaos_snapshot_meta(&snap)?;
    let mut m = resume_chaos(&snap, workload, seed)?;
    let report = m.run().map_err(|e| format!("resumed run: {e}"))?;
    m.validate().map_err(|e| format!("resumed run invalid: {e}"))?;
    println!(
        "resumed workload {workload}{}: finished at {} us, {} refs, {} misses",
        seed.map(|s| format!(" (fault seed {s})")).unwrap_or_default(),
        report.elapsed.as_ns() / 1000,
        report.total_refs(),
        report.total_misses()
    );
    if args.iter().any(|a| a == "--verify") {
        let mut reference = soak_machine(workload, seed, false);
        let want = reference.run().map_err(|e| format!("reference run: {e}"))?;
        if want.to_json().to_string() != report.to_json().to_string()
            || Scenario::CHAOS[workload].probe_words(&reference)
                != Scenario::CHAOS[workload].probe_words(&m)
        {
            return Err("resumed run diverged from the uninterrupted run".into());
        }
        println!("verify: resumed run is bit-identical to the uninterrupted run");
    }
    Ok(())
}

fn state_diff(args: &[String]) -> Result<(), String> {
    let [_, a_path, b_path] = args else {
        return Err("state-diff requires two snapshot files".into());
    };
    let a = MachineSnapshot::load(a_path).map_err(|e| e.to_string())?;
    let b = MachineSnapshot::load(b_path).map_err(|e| e.to_string())?;
    match MachineSnapshot::diff(&a, &b) {
        None => {
            println!("snapshots are identical");
            Ok(())
        }
        Some(divergence) => {
            println!("first divergence: {divergence}");
            Err(format!("{a_path} and {b_path} differ"))
        }
    }
}

fn golden(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--dir").unwrap_or_else(|| "golden".into());
    let check = args.iter().any(|a| a == "--check");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
    let mut mismatches = 0u64;
    for (workload, seed, at_us) in GOLDEN_CELLS {
        let name = match seed {
            Some(s) => format!("chaos-w{workload}-s{s}.vmpsnap"),
            None => format!("chaos-w{workload}.vmpsnap"),
        };
        let path = format!("{dir}/{name}");
        let snap = take_chaos_snapshot(workload, seed, Nanos::from_us(at_us))?;
        let bytes = snap.to_bytes();
        if check {
            let committed = MachineSnapshot::load(&path).map_err(|e| e.to_string())?;
            // The decoder is gated too: resuming the committed file and
            // snapshotting at once must re-encode it byte for byte.
            let mut reencoded = resume_chaos(&committed, workload, seed)?
                .snapshot()
                .map_err(|e| format!("{name}: re-snapshot: {e}"))?;
            reencoded.set_meta(committed.meta().cloned().unwrap_or(json::Value::Null));
            if committed.to_bytes() != bytes {
                mismatches += 1;
                let divergence = MachineSnapshot::diff(&committed, &snap)
                    .unwrap_or_else(|| "container framing differs".into());
                eprintln!("  {name}: MISMATCH — first divergence: {divergence}");
            } else if reencoded.to_bytes() != bytes {
                mismatches += 1;
                let divergence = MachineSnapshot::diff(&committed, &reencoded)
                    .unwrap_or_else(|| "container framing differs".into());
                eprintln!("  {name}: RESUME MISMATCH — re-encoding differs at {divergence}");
            } else {
                println!("  {name}: ok ({} bytes, resumes and re-encodes)", bytes.len());
            }
        } else {
            std::fs::write(&path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
            println!("  wrote {path} ({} bytes)", bytes.len());
        }
    }
    if mismatches > 0 {
        Err(format!(
            "{mismatches} golden snapshots diverged — machine state drifted; \
             if intentional, regenerate with `vmp-trace-tool golden --dir {dir}`"
        ))
    } else {
        if check {
            println!("golden corpus matches ({} cells)", GOLDEN_CELLS.len());
        }
        Ok(())
    }
}

/// The committed golden-state corpus: (workload, fault seed, snapshot
/// time in simulated microseconds). Chosen to land mid-flight — caches
/// warm, locks contended, faults pending — so a byte-level match pins
/// the *entire* machine state, not just a quiesced shell.
const GOLDEN_CELLS: [(usize, Option<u64>, u64); 6] = [
    (0, None, 500),
    (1, None, 500),
    (2, None, 500),
    (3, None, 500),
    (1, Some(7), 500),
    (3, Some(13), 350),
];

/// The fault rates the chaos soak pairs with a seed (even → light,
/// odd → heavy); snapshot/resume reuse it so seeds mean the same thing.
fn chaos_rates(seed: u64) -> FaultRates {
    if seed.is_multiple_of(2) {
        FaultRates::light()
    } else {
        FaultRates::heavy()
    }
}

/// Runs chaos workload `workload` (optionally faulted) until `at` and
/// captures a snapshot, tagging it with the metadata `resume` needs.
fn take_chaos_snapshot(
    workload: usize,
    seed: Option<u64>,
    at: Nanos,
) -> Result<MachineSnapshot, String> {
    let mut m = soak_machine(workload, seed, false);
    m.run_until(at).map_err(|e| format!("run to {at}: {e}"))?;
    let mut snap = m.snapshot().map_err(|e| e.to_string())?;
    let mut meta = json::Value::obj().set("workload", workload as u64).set("at", at.as_ns());
    meta = match seed {
        Some(s) => meta.set("seed", s),
        None => meta.set("seed", json::Value::Null),
    };
    snap.set_meta(meta);
    Ok(snap)
}

/// Reads the workload/seed tag [`take_chaos_snapshot`] wrote.
fn chaos_snapshot_meta(snap: &MachineSnapshot) -> Result<(usize, Option<u64>), String> {
    let meta = snap.meta().ok_or("snapshot carries no chaos metadata (not taken by this tool?)")?;
    let workload = meta
        .get("workload")
        .and_then(json::Value::as_u64)
        .ok_or("snapshot metadata lacks a workload tag")? as usize;
    if workload >= CHAOS_WORKLOADS {
        return Err(format!("snapshot names unknown workload {workload}"));
    }
    let seed = meta.get("seed").and_then(json::Value::as_u64);
    Ok((workload, seed))
}

/// Resumes a chaos snapshot with fresh program/hook instances.
fn resume_chaos(
    snap: &MachineSnapshot,
    workload: usize,
    seed: Option<u64>,
) -> Result<Machine, String> {
    let hook = seed.map(|s| Box::new(FaultPlan::new(s, chaos_rates(s))) as _);
    Scenario::CHAOS[workload].resume(soak_config(2), snap, hook).map_err(|e| e.to_string())
}

/// Builds the deterministic contended machine the `timeline`,
/// `metrics` and `top` subcommands record, with recording and
/// attribution on. In the default mix two processors fight over a spin
/// lock and its shared counter while the remaining processors
/// false-share a pair of pages, so misses, upgrades, consistency
/// interrupts, retries and write-backs all show up on the recorded
/// tracks; `--workload lock`/`false` isolate the true- and
/// false-sharing halves, and `--page` changes the cache-page geometry.
fn observed_machine(args: &[String]) -> Result<(Machine, usize), String> {
    let procs: usize = flag(args, "--procs")
        .unwrap_or_else(|| "4".into())
        .parse()
        .map_err(|e| format!("bad --procs: {e}"))?;
    if procs < 2 {
        return Err("--procs must be at least 2".into());
    }
    let workload = match flag(args, "--workload").as_deref() {
        None | Some("contended") => Scenario::Contended,
        Some("lock") => Scenario::LockFight,
        Some("false") => Scenario::FalseSharing,
        Some(w) => return Err(format!("bad --workload {w:?} (want contended, lock or false)")),
    };
    let cache = match flag(args, "--page") {
        Some(bytes) => {
            let bytes: u64 = bytes.parse().map_err(|e| format!("bad --page: {e}"))?;
            let page = PageSize::new(bytes).map_err(|e| e.to_string())?;
            CacheConfig::new(page, 2, 8 * 1024).map_err(|e| e.to_string())?
        }
        None => MachineConfig::small().cache,
    };
    Ok((observed(workload, procs, cache)?, procs))
}

/// An observed machine: recording and attribution on, `workload` at
/// the given cache geometry.
fn observed(workload: Scenario, procs: usize, cache: CacheConfig) -> Result<Machine, String> {
    let config = MachineConfig { cache, obs: ObsConfig::with_attrib(), ..observed_config(procs) };
    workload.build(config).map_err(|e| format!("build: {e}"))
}

/// Headline attribution numbers of one sweep grid cell, measured by
/// running the deterministic contended workload at that geometry.
struct CellAttrib {
    transfers: u64,
    episodes: u64,
    true_bounces: u64,
    false_bounces: u64,
    bus_util: f64,
}

/// Runs the contended 4-processor workload at one cache geometry and
/// extracts its attribution summary (pure: safe inside the sweep pool).
fn attrib_cell(cache: CacheConfig) -> Result<CellAttrib, String> {
    let mut m = observed(Scenario::Contended, 4, cache)?;
    let report = m.run().map_err(|e| format!("attrib cell: {e}"))?;
    let s = m
        .obs()
        .and_then(|o| o.attrib())
        .map(|a| a.summary())
        .ok_or("attrib cell: attribution missing")?;
    Ok(CellAttrib {
        transfers: s.transfers,
        episodes: s.episodes,
        true_bounces: s.true_bounces,
        false_bounces: s.false_bounces,
        bus_util: report.bus_utilization(),
    })
}

/// Satellite guard: a wrapped ring means the exported timeline is
/// missing its oldest events — never let that pass silently.
fn warn_if_dropped(obs: &MachineObs) {
    let dropped = obs.total_dropped();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} events were dropped (a ring wrapped); the oldest events \
             are missing — raise ObsConfig::ring_capacity for a complete timeline"
        );
    }
}

/// Events currently held across all of a recorder's rings.
fn recorded_events(obs: &vmp_obs::MachineObs) -> u64 {
    (0..obs.processors()).map(|c| obs.cpu_recorded(c)).sum::<u64>() + obs.bus_recorded()
}

/// Replays one failing chaos run with the recorder enabled and writes
/// its Chrome trace timeline for post-mortem. Returns the event count.
fn dump_chaos_timeline(workload: usize, seed: u64, path: &str) -> Result<u64, String> {
    let mut m = soak_machine(workload, Some(seed), true);
    let _ = m.run(); // the failure is the point; record whatever happened
    let obs = m.obs().expect("chaos replay enables recording");
    std::fs::write(path, chrome_trace(obs).to_string())
        .map_err(|e| format!("write {path}: {e}"))?;
    Ok(recorded_events(obs))
}

/// Re-runs one failing chaos seed in time slices, snapshotting after
/// each slice that still completes cleanly, and writes the last good
/// snapshot — a minimized artifact that resumes straight into the
/// failure window. Returns the simulated time of the saved state.
fn dump_chaos_snapshot(workload: usize, seed: u64, path: &str) -> Result<Nanos, String> {
    let mut m = soak_machine(workload, Some(seed), false);
    let slice = Nanos::from_ns(soak_config(2).max_time.as_ns() / 16);
    let mut last = m.snapshot().map_err(|e| e.to_string())?;
    let mut last_at = Nanos::ZERO;
    for i in 1..=16u64 {
        let deadline = Nanos::from_ns(slice.as_ns() * i);
        if m.run_until(deadline).is_err() || m.validate().is_err() {
            break;
        }
        match m.snapshot() {
            Ok(snap) => {
                last = snap;
                last_at = m.now();
            }
            Err(_) => break,
        }
    }
    let mut meta = json::Value::obj().set("workload", workload as u64).set("at", last_at.as_ns());
    meta = meta.set("seed", seed);
    last.set_meta(meta);
    last.save(path).map_err(|e| format!("write {path}: {e}"))?;
    Ok(last_at)
}

/// Number of distinct workloads the `chaos` subcommand soaks.
const CHAOS_WORKLOADS: usize = Scenario::CHAOS.len();

/// Chaos workload `workload` on the soak configuration, faulted by
/// `seed`'s plan if given. `record` switches the event recorder on for
/// failing-seed replays.
fn soak_machine(workload: usize, seed: Option<u64>, record: bool) -> Machine {
    let obs = if record { ObsConfig::on() } else { ObsConfig::default() };
    let config = MachineConfig { obs, ..soak_config(2) };
    let mut m = Scenario::CHAOS[workload].build(config).expect("soak config is valid");
    if let Some(s) = seed {
        m.install_fault_hook(FaultPlan::new(s, chaos_rates(s)));
    }
    m
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            ExitCode::FAILURE
        }
    }
}

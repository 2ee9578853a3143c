//! End-to-end observability through the facade: a contended
//! multiprocessor run must export a valid Chrome trace timeline and a
//! schema-stable metrics document, wrapped rings must count their
//! drops, and enabling recording must not move a single statistic.

use vmp::bus::FaultClass;
use vmp::faults::{FaultPlan, FaultRates};
use vmp::machine::scenarios::{observed_config, soak_config, Scenario};
use vmp::machine::{DmaRequest, Machine, MachineConfig, ObsConfig};
use vmp::obs::json::{parse, Value};
use vmp::obs::{chrome_trace, metrics_json, EventKind, MachineObs};
use vmp::types::{Asid, Nanos, VirtAddr};

/// Four processors: two fighting over a spin lock, two false-sharing a
/// pair of pages — every event class shows up on the recorded tracks.
fn contended(obs: ObsConfig) -> Machine {
    Scenario::Contended.build(MachineConfig { obs, ..observed_config(4) }).unwrap()
}

#[test]
fn timeline_is_a_valid_chrome_trace() {
    let mut m = contended(ObsConfig::on());
    m.run().unwrap();
    let obs = m.obs().expect("recording is enabled");
    let doc = parse(&chrome_trace(obs).to_string()).expect("timeline must be valid JSON");

    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(events.len() > 100, "a contended run must record plenty of events");

    // One named track per processor plus one for the bus.
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
        .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(tracks, vec!["cpu0", "cpu1", "cpu2", "cpu3", "bus"]);

    // Every event is well-formed; span delimiters balance per track.
    let mut depth = [0i64; 5];
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        let tid = e.get("tid").unwrap().as_u64().unwrap() as usize;
        assert!(tid < 5);
        match ph {
            "B" => depth[tid] += 1,
            "E" => {
                depth[tid] -= 1;
                assert!(depth[tid] >= 0, "E without matching B on tid {tid}");
            }
            "X" => assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0),
            "i" => assert_eq!(e.get("s").unwrap().as_str(), Some("t")),
            "M" => continue,
            other => panic!("unexpected phase {other:?}"),
        }
        assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
    }
    assert_eq!(depth, [0; 5], "every span must close");

    // The bus track carries transactions; the CPU tracks carry misses.
    assert!(events.iter().any(|e| e.get("cat").map(Value::as_str) == Some(Some("bus"))));
    assert!(events.iter().any(|e| e.get("name").map(Value::as_str) == Some(Some("miss(read)"))));
    assert_eq!(doc.get("otherData").unwrap().get("dropped_events").unwrap().as_u64(), Some(0));
}

#[test]
fn metrics_document_is_schema_stable() {
    let mut m = contended(ObsConfig::on());
    let report = m.run().unwrap();
    let obs = m.obs().expect("recording is enabled");
    let text = metrics_json(obs, report.elapsed).set("report", report.to_json()).to_string();
    let doc = parse(&text).expect("metrics must be valid JSON");

    assert_eq!(doc.get("elapsed_ns").unwrap().as_u64(), Some(report.elapsed.as_ns()));
    let h = doc.get("histograms").unwrap();
    for key in ["miss_service_ns", "irq_latency_ns", "arb_wait_ns"] {
        let hist = h.get(key).unwrap();
        assert!(hist.get("count").unwrap().as_u64().unwrap() > 0, "{key} must be populated");
        assert!(hist.get("mean_ns").is_some() && hist.get("p99_ns").is_some());
        for b in hist.get("buckets").unwrap().as_arr().unwrap() {
            assert!(b.get("lo_ns").unwrap().as_u64() < b.get("hi_ns").unwrap().as_u64());
        }
    }
    assert_eq!(doc.get("processors").unwrap().as_arr().unwrap().len(), 4);
    assert!(!doc.get("bus_utilization").unwrap().as_arr().unwrap().is_empty());

    // The embedded machine report agrees with the live statistics.
    let r = doc.get("report").unwrap();
    assert_eq!(r.get("total_refs").unwrap().as_u64(), Some(report.total_refs()));
    let cpu0 = &r.get("processors").unwrap().as_arr().unwrap()[0];
    assert_eq!(cpu0.get("refs").unwrap().as_u64(), Some(report.processors[0].refs));
}

#[test]
fn tiny_rings_wrap_and_count_drops() {
    let obs_config = ObsConfig { ring_capacity: 16, ..ObsConfig::on() };
    let mut m = contended(obs_config);
    m.run().unwrap();
    let obs = m.obs().expect("recording is enabled");
    assert!(obs.total_dropped() > 0, "a 16-event ring must wrap on this workload");
    for cpu in 0..4 {
        assert!(obs.cpu_recorded(cpu) <= 16);
    }
    assert!(obs.bus_recorded() <= 16);
    // The exporter surfaces the loss instead of hiding it.
    let doc = parse(&chrome_trace(obs).to_string()).unwrap();
    assert_eq!(
        doc.get("otherData").unwrap().get("dropped_events").unwrap().as_u64(),
        Some(obs.total_dropped())
    );
}

#[test]
fn recording_is_transparent_to_the_run() {
    let run = |obs: ObsConfig| {
        let mut m = contended(obs);
        let report = m.run().unwrap();
        m.validate().unwrap();
        (
            report.elapsed,
            report.processors,
            report.faults,
            (report.bus.total(), report.bus.aborts, report.bus.busy.busy()),
        )
    };
    let off = run(ObsConfig::default());
    let on = run(ObsConfig::on());
    assert_eq!(off.0, on.0, "elapsed time must be identical");
    assert_eq!(off.1, on.1, "processor statistics must be identical");
    assert_eq!(off.2, on.2, "fault accounting must be identical");
    assert_eq!(off.3, on.3, "bus statistics must be identical");
}

/// A recorder on a resumed machine measures its windows from the
/// restored clocks: windows before the cut stay empty, the cut's window
/// holds only its time after the cut, and every later window reads
/// exactly what the uninterrupted run's does.
#[test]
fn resumed_recording_windows_match_the_uninterrupted_run() {
    let cut = Nanos::from_us(1500);
    let mut whole = contended(ObsConfig::on());
    whole.run().unwrap();
    let mut m = contended(ObsConfig::on());
    m.run_until(cut).unwrap();
    let snap = m.snapshot().unwrap();
    let config = MachineConfig { obs: ObsConfig::on(), ..observed_config(4) };
    let mut resumed = Scenario::Contended.resume(config, &snap, None).unwrap();
    resumed.run().unwrap();
    let series = |o: &MachineObs| {
        let cpus = (0..o.processors()).flat_map(|c| [o.cpu_useful(c), o.cpu_stall(c)]);
        std::iter::once(o.bus_utilization()).chain(cpus).cloned().collect::<Vec<_>>()
    };
    let (want, got) = (whole.obs().unwrap(), resumed.obs().unwrap());
    let cut_window = (cut.as_ns() / want.window().as_ns()) as usize;
    for (i, (a, b)) in series(want).iter().zip(&series(got)).enumerate() {
        assert!(a.windows() > cut_window + 1, "series {i}: the run must outlast the cut's window");
        assert_eq!(a.windows(), b.windows(), "series {i}");
        assert!((0..cut_window).all(|w| b.total(w) == Nanos::ZERO), "series {i}: before the cut");
        assert!(b.total(cut_window) <= a.total(cut_window), "series {i}: the cut's window");
        for w in cut_window + 1..a.windows() {
            assert_eq!(a.total(w), b.total(w), "series {i}, window {w}");
        }
    }
}

/// FNV-1a, 64-bit: a dependency-free digest of an exported document.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The contended 4-processor mix `vmp-trace-tool timeline`/`metrics`
/// record.
fn recorded_contended() -> Machine {
    let mut m = contended(ObsConfig::with_attrib());
    m.run().unwrap();
    m
}

/// A chaos-soak machine under a heavy fault plan, recording on: aborts,
/// stalls, dropped words, forced overflows and recovery scans.
fn recorded_chaos() -> Machine {
    let config = MachineConfig { obs: ObsConfig::with_attrib(), ..soak_config(2) };
    let mut m = Scenario::NotifyLock.build(config).unwrap();
    m.install_fault_hook(FaultPlan::new(3, FaultRates::heavy()));
    m.run().unwrap();
    m
}

/// Two lock workers beside a device that writes two pages into memory
/// and reads them back, under a plan that fails copier attempts.
fn recorded_dma() -> Machine {
    let config = MachineConfig { obs: ObsConfig::with_attrib(), ..observed_config(2) };
    let mut m = Scenario::SpinLock.build(config).unwrap();
    let frames: Vec<_> = [0x8000u64, 0x9000]
        .iter()
        .map(|&va| m.map_shared(&[(Asid::new(1), VirtAddr::new(va))]).unwrap())
        .collect();
    let page = m.page_size().bytes() as usize;
    let data: Vec<u8> = (0..2 * page).map(|i| i as u8).collect();
    m.queue_dma(0, DmaRequest::to_memory(frames.clone(), data.clone())).unwrap();
    let out = m.queue_dma(1, DmaRequest::from_memory(frames)).unwrap();
    m.install_fault_hook(FaultPlan::new(7, FaultRates { copier: 0.5, ..FaultRates::none() }));
    m.run().unwrap();
    assert_eq!(m.dma_result(out), Some(&data[..]), "the device reads back what it wrote");
    m
}

/// Position of an event kind in a coverage table; exhaustive, so a new
/// variant must be covered here too.
fn kind_index(kind: &EventKind) -> usize {
    match kind {
        EventKind::MissBegin { .. } => 0,
        EventKind::MissEnd { .. } => 1,
        EventKind::WriteBack { .. } => 2,
        EventKind::Retry { .. } => 3,
        EventKind::IrqBegin { .. } => 4,
        EventKind::IrqEnd { .. } => 5,
        EventKind::FifoOverflow => 6,
        EventKind::FifoRecovery { .. } => 7,
        EventKind::BusTx { .. } => 8,
        EventKind::Copier { .. } => 9,
        EventKind::Fault { .. } => 10,
    }
}

fn fault_index(class: FaultClass) -> usize {
    match class {
        FaultClass::ArbitrationStall => 0,
        FaultClass::InjectedAbort => 1,
        FaultClass::DroppedWord => 2,
        FaultClass::ForcedOverflow => 3,
        FaultClass::CopierRetry => 4,
    }
}

/// Every recorded event of `obs`, all tracks.
fn all_events(obs: &MachineObs) -> impl Iterator<Item = &EventKind> + '_ {
    (0..obs.processors()).flat_map(|c| obs.cpu_events(c)).chain(obs.bus_events()).map(|e| &e.kind)
}

/// The exported timeline and metrics documents are pinned byte for
/// byte (by digest) on three recorded runs that between them produce
/// every event kind and every fault class, so any change to what the
/// machine records, or how it is exported, shows here.
#[test]
fn exports_match_their_pinned_digests() {
    let runs =
        [("contended", recorded_contended()), ("chaos", recorded_chaos()), ("dma", recorded_dma())];
    let mut kinds = [0u64; 11];
    let mut faults = [0u64; 5];
    let mut digests = Vec::new();
    for (name, m) in &runs {
        let obs = m.obs().expect("recording is enabled");
        assert_eq!(obs.total_dropped(), 0, "{name}: the pinned timeline must be complete");
        for kind in all_events(obs) {
            kinds[kind_index(kind)] += 1;
            if let EventKind::Fault { class } = kind {
                faults[fault_index(*class)] += 1;
            }
        }
        let trace = fnv1a(chrome_trace(obs).to_string().as_bytes());
        let metrics = fnv1a(metrics_json(obs, m.now()).to_string().as_bytes());
        digests.push((*name, trace, metrics));
    }
    assert!(kinds.iter().all(|&n| n > 0), "every event kind must occur: {kinds:?}");
    assert!(faults.iter().all(|&n| n > 0), "every fault class must occur: {faults:?}");
    let pinned = [
        ("contended", 0x54f2_b4f2_7358_09cb, 0x9fa9_bf60_4fd6_fcba),
        ("chaos", 0xa31a_1d2a_4c04_b5b2, 0x5973_0cd5_cfc4_4b7b),
        ("dma", 0x8960_2dff_8569_aaab, 0x5345_0adb_5616_9ad9),
    ];
    assert_eq!(digests, pinned, "exported bytes changed; now {digests:#x?}");
}

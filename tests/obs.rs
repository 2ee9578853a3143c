//! End-to-end observability through the facade: a contended
//! multiprocessor run must export a valid Chrome trace timeline and a
//! schema-stable metrics document, wrapped rings must count their
//! drops, and enabling recording must not move a single statistic.

use vmp::machine::scenarios::{observed_config, Scenario};
use vmp::machine::{Machine, MachineConfig, ObsConfig};
use vmp::obs::json::{parse, Value};
use vmp::obs::{chrome_trace, metrics_json};

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

//! End-to-end contention attribution through the facade: on the
//! contended 4-processor workload the lock page must surface as the
//! number-one hot page with a ping-pong verdict, the metrics document
//! must embed a consistent attribution section, and the cross-run
//! compare gate must pass on identical runs and fail on regressions.

use vmp::machine::scenarios::{observed_config, Scenario};
use vmp::machine::{Machine, MachineConfig, ObsConfig};
use vmp::obs::compare::{compare_metrics, CompareThresholds};
use vmp::obs::json::parse;
use vmp::obs::{metrics_json, SharingVerdict, TxClass};
use vmp::types::VirtPageNum;

/// Four processors: two fighting over a spin lock, two false-sharing a
/// pair of pages (one writer per interleaved word).
fn contended(obs: ObsConfig) -> Machine {
    Scenario::Contended.build(MachineConfig { obs, ..observed_config(4) }).unwrap()
}

#[test]
fn lock_page_is_the_top_hot_page_with_a_ping_pong_verdict() {
    let mut m = contended(ObsConfig::with_attrib());
    let page_bytes = m.page_size().bytes();
    m.run().unwrap();
    let attrib = m.obs().and_then(|o| o.attrib()).expect("attribution is enabled");

    let top = attrib.top_by_traffic(5);
    assert!(!top.is_empty());
    let (key, lock) = &top[0];
    assert_eq!(
        key.vpn,
        VirtPageNum::new(0x1000 / page_bytes),
        "the spin lock's page must be the hottest"
    );
    assert!(lock.traffic() > 0);
    // The §5.4 signature: the lock page bounces between the two
    // fighters and the bouncing is real program sharing.
    assert!(lock.transfers() > 2, "the lock page must change owners repeatedly");
    assert!(lock.episodes() > 0, "the lock page must ping-pong");
    assert_eq!(lock.verdict(), SharingVerdict::TrueSharing);
    // Both fighters contribute; the sweepers never touch the lock.
    assert!(lock.cpu_traffic(0) > 0 && lock.cpu_traffic(1) > 0);
    assert_eq!(lock.cpu_traffic(2) + lock.cpu_traffic(3), 0);

    // The false-sharing pair shows up too, classified as such.
    let false_page = attrib
        .pages()
        .find(|(k, _)| k.vpn == VirtPageNum::new(0x4000 / page_bytes))
        .map(|(_, p)| p)
        .expect("the sweepers' page has activity");
    assert_eq!(false_page.verdict(), SharingVerdict::FalseSharing);
}

#[test]
fn attribution_counts_reconcile_with_the_bus() {
    let mut m = contended(ObsConfig::with_attrib());
    let report = m.run().unwrap();
    let attrib = m.obs().and_then(|o| o.attrib()).expect("attribution is enabled");
    for class in TxClass::ALL {
        assert_eq!(attrib.class_total(class), report.bus.count(class.kind()), "{}", class.label());
        assert_eq!(attrib.unattributed(class), 0);
    }
    let summary = attrib.summary();
    assert_eq!(
        summary.bounces,
        summary.true_bounces + summary.false_bounces + summary.unknown_bounces,
        "every bounce is classified exactly once"
    );
    assert!(summary.episodes > 0 && summary.transfers >= summary.bounces);
}

#[test]
fn metrics_document_embeds_attribution() {
    let mut m = contended(ObsConfig::with_attrib());
    let report = m.run().unwrap();
    let obs = m.obs().expect("recording is enabled");
    let attrib = obs.attrib().unwrap();
    let doc = parse(&metrics_json(obs, report.elapsed).to_string()).unwrap();

    let a = doc.get("attrib").expect("attribution section present");
    let summary = a.get("summary").unwrap();
    assert_eq!(summary.get("pages").unwrap().as_u64(), Some(attrib.page_count() as u64));
    assert_eq!(
        summary.get("ping_pong_episodes").unwrap().as_u64(),
        Some(attrib.summary().episodes)
    );
    let pages = a.get("pages").unwrap().as_arr().unwrap();
    assert!(!pages.is_empty());
    // Pages are ranked hottest-first and each carries a verdict.
    let mut last = u64::MAX;
    for p in pages {
        let traffic = p.get("traffic").unwrap().as_u64().unwrap();
        assert!(traffic <= last, "pages must be sorted by traffic");
        last = traffic;
        assert!(p.get("verdict").unwrap().as_str().is_some());
        assert_eq!(p.get("cpus").unwrap().as_arr().unwrap().len(), 4);
    }

    // A recording-only run embeds no attribution section.
    let mut plain = contended(ObsConfig::on());
    let report = plain.run().unwrap();
    let doc = parse(&metrics_json(plain.obs().unwrap(), report.elapsed).to_string()).unwrap();
    assert!(doc.get("attrib").is_none());
}

#[test]
fn compare_gate_passes_identical_runs_and_fails_regressions() {
    let doc_of = || {
        let mut m = contended(ObsConfig::with_attrib());
        let report = m.run().unwrap();
        let text = metrics_json(m.obs().unwrap(), report.elapsed).set("report", report.to_json());
        parse(&text.to_string()).unwrap()
    };
    let base = doc_of();
    let same = doc_of();
    let out = compare_metrics(&base, &same, &CompareThresholds::default()).unwrap();
    assert!(out.passed(), "identical deterministic runs must pass the gate: {:?}", out.checks);
    assert_eq!(out.checks.len(), 5, "all five metrics must be present and checked");
    for c in &out.checks {
        assert_eq!(c.change, 0.0, "{} must not drift between identical runs", c.metric);
    }

    // A doctored 'current' document with doubled latency and ping-pong
    // count must fail, and the exit path is driven by regressions().
    let worse = {
        let text = same.to_string();
        // The deterministic document renders these integers uniquely,
        // so a textual doubling is a precise perturbation.
        let p99 = base
            .get("histograms")
            .and_then(|h| h.get("miss_service_ns"))
            .and_then(|m| m.get("p99_ns"))
            .and_then(|v| v.as_u64())
            .unwrap();
        let episodes = base
            .get("attrib")
            .and_then(|a| a.get("summary"))
            .and_then(|s| s.get("ping_pong_episodes"))
            .and_then(|v| v.as_u64())
            .unwrap();
        let doctored =
            text.replace(&format!("\"p99_ns\":{p99}"), &format!("\"p99_ns\":{}", p99 * 2)).replace(
                &format!("\"ping_pong_episodes\":{episodes}"),
                &format!("\"ping_pong_episodes\":{}", episodes * 10 + 100),
            );
        parse(&doctored).unwrap()
    };
    let out = compare_metrics(&base, &worse, &CompareThresholds::default()).unwrap();
    assert!(!out.passed());
    assert!(out.regressions() >= 2, "p99 and ping-pong must both regress");
}

#[test]
fn attribution_is_transparent_to_the_run() {
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
    let on = run(ObsConfig::with_attrib());
    assert_eq!(off, on, "attribution-enabled runs must be bit-identical to disabled ones");
}

//! Property tests of the snapshot/resume contract: a machine snapshotted
//! at an arbitrary point and resumed must be *bit-identical* — same
//! elapsed time, same statistics, same fault accounting, same final
//! memory — to the uninterrupted run, across workloads × processor
//! counts × fault injection on/off × observability on/off. Snapshot
//! bytes themselves must be deterministic (same state → same bytes), and
//! the binary container must round-trip.

use proptest::prelude::*;
use vmp_core::scenarios::{soak_config, Scenario};
use vmp_core::{Machine, MachineConfig, MachineError, MachineSnapshot, ObsConfig};
use vmp_faults::{FaultPlan, FaultRates};
use vmp_obs::json::Value;
use vmp_types::Nanos;

const WORKLOADS: [Scenario; 6] = [
    Scenario::SpinLock,
    Scenario::NotifyLock,
    Scenario::DisjointSweeps,
    Scenario::FalseSharing,
    Scenario::Messages,
    Scenario::Barrier,
];

fn config(processors: usize, obs: bool) -> MachineConfig {
    let obs = if obs { ObsConfig::on() } else { ObsConfig::default() };
    MachineConfig { obs, ..soak_config(processors) }
}

fn fault_hook(seed: u64) -> FaultPlan {
    FaultPlan::new(seed, FaultRates::light())
}

/// Runs the workload start to finish with no interruption and returns
/// the canonical (report JSON, final probe words) signature.
fn uninterrupted(
    workload: Scenario,
    processors: usize,
    faults: Option<u64>,
    obs: bool,
) -> (String, Vec<Option<u32>>) {
    let mut m = workload.build(config(processors, obs)).unwrap();
    if let Some(seed) = faults {
        m.install_fault_hook(fault_hook(seed));
    }
    let report = m.run().unwrap();
    m.validate().unwrap();
    (report.to_json().to_string(), workload.probe_words(&m))
}

/// Runs until `cut`, snapshots, round-trips the container through bytes,
/// resumes into a *fresh* machine, and finishes the run there. Also
/// reports whether the resumed machine, snapshotted before it runs,
/// re-encodes to the very bytes it was decoded from.
fn interrupted(
    workload: Scenario,
    processors: usize,
    faults: Option<u64>,
    obs: bool,
    cut: Nanos,
) -> (String, Vec<Option<u32>>, bool) {
    let cfg = config(processors, obs);
    let mut m = workload.build(cfg.clone()).unwrap();
    if let Some(seed) = faults {
        m.install_fault_hook(fault_hook(seed));
    }
    m.run_until(cut).unwrap();
    let snap = m.snapshot().unwrap();
    drop(m);

    // The container must round-trip byte-exactly.
    let snap = MachineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let hook = faults.map(|seed| Box::new(fault_hook(seed)) as _);
    let mut m = workload.resume(cfg, &snap, hook).unwrap();
    let reencoded = m.snapshot().unwrap().to_bytes() == snap.to_bytes();
    let report = m.run().unwrap();
    m.validate().unwrap();
    (report.to_json().to_string(), workload.probe_words(&m), reencoded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Snapshot-at-T then resume is bit-identical to never stopping, for
    /// every workload × processor count × faults on/off × obs on/off —
    /// and the resumed machine re-encodes to the snapshot it came from.
    #[test]
    fn snapshot_resume_is_bit_identical(
        widx in 0usize..WORKLOADS.len(),
        processors in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        faults in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        obs in any::<bool>(),
        cut_us in 1u64..4000,
    ) {
        let workload = WORKLOADS[widx];
        // Messages/Barrier need at least the participating CPUs.
        let processors = if workload == Scenario::Messages { processors.max(2) } else { processors };
        let reference = uninterrupted(workload, processors, faults, obs);
        let resumed = interrupted(workload, processors, faults, obs, Nanos::from_us(cut_us));
        prop_assert_eq!(
            &reference.0, &resumed.0,
            "resumed report diverged ({:?}, {} cpus, faults {:?}, obs {})",
            workload, processors, faults, obs
        );
        prop_assert_eq!(
            &reference.1, &resumed.1,
            "resumed memory diverged ({:?}, {} cpus)", workload, processors
        );
        prop_assert!(
            resumed.2,
            "decode then encode is not the identity ({:?}, {} cpus, faults {:?}, obs {})",
            workload, processors, faults, obs
        );
    }

    /// The same machine state always serializes to the same bytes — the
    /// property the committed golden corpus rests on.
    #[test]
    fn snapshot_bytes_are_deterministic(
        widx in 0usize..WORKLOADS.len(),
        seed in any::<u64>(),
        cut_us in 1u64..2000,
    ) {
        let workload = WORKLOADS[widx];
        let take = || {
            let mut m = workload.build(config(2, false)).unwrap();
            m.install_fault_hook(fault_hook(seed));
            m.run_until(Nanos::from_us(cut_us)).unwrap();
            m.snapshot().unwrap().to_bytes()
        };
        prop_assert_eq!(take(), take(), "snapshot bytes must be deterministic");
    }
}

/// Double-resume: snapshotting the *resumed* machine again mid-flight and
/// resuming that must still land bit-identical — checkpoints compose.
#[test]
fn chained_snapshots_compose() {
    let workload = Scenario::NotifyLock;
    let cfg = config(4, false);
    let reference = uninterrupted(workload, 4, Some(5), false);

    let mut m = workload.build(cfg.clone()).unwrap();
    m.install_fault_hook(fault_hook(5));
    m.run_until(Nanos::from_us(40)).unwrap();
    let snap1 = m.snapshot().unwrap();

    let mut m = workload.resume(cfg.clone(), &snap1, Some(Box::new(fault_hook(5)))).unwrap();
    m.run_until(Nanos::from_us(160)).unwrap();
    let snap2 = m.snapshot().unwrap();

    let mut m = workload.resume(cfg, &snap2, Some(Box::new(fault_hook(5)))).unwrap();
    let report = m.run().unwrap();
    m.validate().unwrap();
    assert_eq!(reference.0, report.to_json().to_string());
    assert_eq!(reference.1, workload.probe_words(&m));
}

/// Mismatched geometry, missing programs and missing hooks are rejected
/// loudly, never silently absorbed.
#[test]
fn resume_rejects_mismatches() {
    let workload = Scenario::SpinLock;
    let cfg = config(2, false);
    let mut m = workload.build(cfg.clone()).unwrap();
    m.install_fault_hook(fault_hook(1));
    m.run_until(Nanos::from_us(50)).unwrap();
    let snap = m.snapshot().unwrap();

    // Wrong processor count.
    let err = workload.resume(config(4, false), &snap, Some(Box::new(fault_hook(1)))).unwrap_err();
    assert!(matches!(err, MachineError::SnapshotMismatch { .. }), "{err}");

    // Missing fault hook.
    let err = workload.resume(cfg.clone(), &snap, None).unwrap_err();
    assert!(matches!(err, MachineError::SnapshotMismatch { .. }), "{err}");

    // Missing programs.
    let err =
        Machine::resume(cfg, &snap, vec![None, None], Some(Box::new(fault_hook(1)))).unwrap_err();
    assert!(matches!(err, MachineError::SnapshotMismatch { .. }), "{err}");
}

/// Corrupt containers are detected, and `diff` pinpoints a doctored
/// field rather than just saying "different".
#[test]
fn corruption_is_detected_and_diff_pinpoints() {
    let mut m = Scenario::FalseSharing.build(config(2, false)).unwrap();
    m.run_until(Nanos::from_us(80)).unwrap();
    let snap = m.snapshot().unwrap();
    let bytes = snap.to_bytes();

    assert!(MachineSnapshot::from_bytes(&bytes[..10]).is_err());
    let mut doctored = bytes.clone();
    doctored[0] ^= 0xff;
    assert!(MachineSnapshot::from_bytes(&doctored).is_err(), "bad magic must be rejected");

    // Flip the blob's last byte (the 8-byte checksum follows it): the
    // checksum refuses the file.
    let mut doctored = bytes.clone();
    let last = doctored.len() - 9;
    doctored[last] ^= 0xff;
    let err = MachineSnapshot::from_bytes(&doctored).unwrap_err();
    assert!(matches!(err, MachineError::SnapshotCorrupt { .. }), "{err}");

    // A doctored field still decodes, and diff must name it.
    let mut b = MachineSnapshot::from_bytes(&bytes).unwrap();
    let Value::Obj(fields) = b.header_mut() else { panic!("the header is an object") };
    let (_, events) = fields.iter_mut().find(|(k, _)| k == "events_delivered").unwrap();
    *events = Value::UInt(events.as_u64().unwrap() + 1);
    let d = MachineSnapshot::diff(&snap, &b).expect("doctored snapshot must differ");
    assert!(d.starts_with("$.events_delivered"), "diff must carry the header path: {d}");
    assert_eq!(MachineSnapshot::diff(&snap, &snap), None);
}

//! Snapshot/resume through the facade: mid-flight captures under fault
//! injection must resume to the exact state — oracle-identical memory
//! and a bit-identical `MachineReport` — the uninterrupted run reaches,
//! and the committed golden corpus must stay loadable and resumable.

use vmp::faults::{FaultPlan, FaultRates};
use vmp::machine::scenarios::{soak_config, Scenario};
use vmp::machine::{Machine, MachineError, MachineSnapshot};
use vmp::obs::json::Value;
use vmp::types::Nanos;

/// Two spin-lock fighters plus two false-sharing sweepers: every
/// consistency-protocol path stays hot.
const MIX: Scenario = Scenario::Contended;

/// The heavy fault plan the mid-flight tests run under.
fn faults() -> FaultPlan {
    FaultPlan::new(21, FaultRates::heavy())
}

fn faulted_mix() -> Machine {
    let mut m = MIX.build(soak_config(4)).unwrap();
    m.install_fault_hook(faults());
    m
}

/// The tentpole contract, end to end under heavy injected faults: run
/// halfway (faults pending, FIFO words queued, locks contended),
/// snapshot, resume in a fresh machine, finish — and land on exactly the
/// oracle memory and a bit-identical report.
#[test]
fn mid_flight_snapshot_under_faults_resumes_exactly() {
    // The uninterrupted faulted run is the reference…
    let mut reference = faulted_mix();
    let want_report = reference.run().unwrap();
    reference.validate().unwrap();
    let want_probes = MIX.probe_words(&reference);

    // …and the zero-fault oracle pins the memory words themselves.
    let mut oracle = MIX.build(soak_config(4)).unwrap();
    oracle.run().unwrap();
    assert_eq!(MIX.probe_words(&oracle), want_probes, "faults must never change final memory");
    assert_eq!(want_probes, MIX.expected(4, oracle.page_size().bytes()), "catalogue oracle");

    // Interrupt the same faulted run mid-flight.
    let mut m = faulted_mix();
    m.run_until(Nanos::from_us(want_report.elapsed.as_ns() / 2000)).unwrap();
    let snap = m.snapshot().unwrap();
    assert!(m.fault_stats().total() > 0, "the cut must land with faults already injected");
    drop(m);

    // Resume from the serialized bytes in a brand-new machine.
    let snap = MachineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let mut m = MIX.resume(soak_config(4), &snap, Some(Box::new(faults()))).unwrap();
    let report = m.run().unwrap();
    m.validate().unwrap();

    assert_eq!(
        report.to_json().to_string(),
        want_report.to_json().to_string(),
        "resumed report must be bit-identical to the uninterrupted run"
    );
    assert_eq!(MIX.probe_words(&m), want_probes, "resumed memory must match the oracle");
}

/// A doctored snapshot is distinguishable and `diff` names the field —
/// the debugging loop the `state-diff` subcommand exposes.
#[test]
fn diff_pinpoints_doctored_state() {
    let mut m = faulted_mix();
    m.run_until(Nanos::from_us(300)).unwrap();
    let a = m.snapshot().unwrap();
    m.run_until(Nanos::from_us(600)).unwrap();
    let b = m.snapshot().unwrap();
    let d = MachineSnapshot::diff(&a, &b).expect("states at different times must differ");
    assert!(d.starts_with("$."), "diff must print a header path, got: {d}");
    assert_eq!(MachineSnapshot::diff(&a, &a), None);
    assert_eq!(MachineSnapshot::diff(&b, &b), None);
}

/// Every committed golden snapshot must load, carry its metadata, and
/// decode as the version this build writes. (CI additionally
/// byte-compares a regeneration against the corpus; this test keeps the
/// corpus at least *readable* wherever the tests run.)
#[test]
fn golden_corpus_loads() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("golden/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("vmpsnap") {
            continue;
        }
        seen += 1;
        let snap =
            MachineSnapshot::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let meta = snap.meta().unwrap_or_else(|| panic!("{}: no metadata", path.display()));
        assert!(meta.get("workload").is_some(), "{}: untagged", path.display());
        // Round-trip: the loaded container re-serializes to the file's bytes.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(snap.to_bytes(), bytes, "{}: container not byte-stable", path.display());
    }
    assert!(seen >= 6, "golden corpus has shrunk: {seen} snapshots");
}

/// Replaces the value at a dotted header path (`cpus.0.cache.slots.0.set`;
/// numeric segments index lists).
fn set_path(v: &mut Value, path: &str, new: Value) {
    let mut at = v;
    for seg in path.split('.') {
        at = match at {
            Value::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == seg).expect(path).1,
            Value::Arr(items) => &mut items[seg.parse::<usize>().expect(path)],
            _ => panic!("{path}: no such field"),
        };
    }
    *at = new;
}

/// Every index and length a snapshot header carries is range-checked
/// against the machine being rebuilt, and the rebuilt machine must pass
/// `validate()`: each doctored copy of a golden file fails to resume
/// with `SnapshotCorrupt` — never a panic.
#[test]
fn hostile_headers_are_rejected_not_panicked() {
    let golden =
        MachineSnapshot::load(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/chaos-w1.vmpsnap"))
            .expect("golden file");
    let header = golden.header().clone();
    // Free frames are `[first, length]` runs; the golden file's last run
    // reaches the top of memory.
    let kernel = header.get("kernel").expect("kernel state");
    let free = kernel.get("free").and_then(Value::as_arr);
    let last = free.and_then(|runs| runs.last()).and_then(Value::as_arr).expect("a free run");
    let (first, len) = (last[0].as_u64().unwrap(), last[1].as_u64().unwrap());
    let spaces = kernel.get("spaces").and_then(Value::as_arr).expect("address spaces");
    let page = spaces[0].get("pages").and_then(Value::as_arr).expect("pages")[0].clone();
    let mapped = page.get("frame").and_then(Value::as_u64).expect("a mapped frame");
    let runs = |list: &[(u64, u64)]| {
        Value::Arr(list.iter().map(|&(s, l)| Value::Arr(vec![s.into(), l.into()])).collect())
    };
    let word = Value::obj().set("kind", 0u64).set("frame", 0u64).set("issuer", 0u64);
    let dma = |host: u64, data_len: u64, phase: Value, blocked_on: Value| {
        let data = Value::obj().set("$blob", 0u64).set("len", data_len);
        let buffer = Value::obj().set("$blob", 0u64).set("len", 0u64);
        Value::Arr(vec![Value::obj()
            .set("id", 2u64)
            .set("host", host)
            .set("direction", "to_mem")
            .set("frames", Value::Arr(vec![Value::from(3u64)]))
            .set("data", data)
            .set("phase", phase)
            .set("blocked_on", blocked_on)
            .set("buffer", buffer)
            .set("seq", 0u64)])
    };
    let setup = |i: u64| Value::obj().set("k", "setup").set("i", i);
    let cases: Vec<(&str, Value)> = vec![
        ("cpus.0.cache.slots.0.set", 9999u64.into()),
        ("cpus.0.cache.slots.0.way", 2u64.into()),
        ("cpus.0.cache.slots.0.data.len", 64u64.into()),
        ("cpus.0.cache.slots.0.data.$blob", u64::MAX.into()),
        ("cpus.0.pending.slot.set", 32u64.into()),
        ("cpus.0.phys.0.slot.way", 7u64.into()),
        ("cpus.0.phys.0.frame", 512u64.into()),
        ("cpus.0.monitor.table.0.frame", (1u64 << 40).into()),
        ("cpus.0.monitor.table.0.code", 4u64.into()),
        ("cpus.0.monitor.fifo", Value::Arr(vec![word; 129])),
        ("cpus.0.asid", 256u64.into()),
        ("cpus.0.retry_streak", (1u64 << 32).into()),
        ("cpus.0.state", Value::obj().set("k", "dozing")),
        ("memory.0.frame", 512u64.into()),
        ("memory.0.data.len", 3u64.into()),
        ("kernel.free", runs(&[(1 << 20, 1)])),
        // One entry per rule a free run must keep: it ends at or before
        // the last frame, its length does not overflow, it is non-empty,
        // it starts strictly after the run before it ends (ascending,
        // disjoint, non-adjacent), and it holds no mapped frame.
        ("kernel.free", runs(&[(first, len + 1)])),
        ("kernel.free", runs(&[(first, u64::MAX)])),
        ("kernel.free", runs(&[(first, 0)])),
        ("kernel.free", runs(&[(first + 8, 4), (first, 4)])),
        ("kernel.free", runs(&[(first, 8), (first + 4, 4)])),
        ("kernel.free", runs(&[(first, 4), (first + 4, 4)])),
        ("kernel.free", runs(&[(mapped, 1), (first, len)])),
        ("queue.entries.0.idx", 2u64.into()),
        ("dmas", dma(2, 128, setup(0), Value::Null)),
        ("dmas", dma(0, 128, setup(1), Value::Null)),
        ("dmas", dma(0, 128, setup(0), 1u64.into())),
        ("dmas", dma(0, 0, setup(0), Value::Null)),
    ];
    // Decodable headers whose machine is inconsistent: a frame number
    // that disagrees with the cached tag, an action code that disagrees
    // with the slot's ownership, and impossible slot flag sets.
    let inconsistent: Vec<(&str, Value)> = vec![
        ("cpus.0.phys.0.frame", 1u64.into()),
        ("cpus.0.phys.0.frame", 5u64.into()),
        ("cpus.0.monitor.table.0.code", 0u64.into()),
        ("cpus.0.monitor.table.0.code", 2u64.into()),
        ("cpus.0.cache.slots.0.flags", 2u64.into()),
        ("cpus.0.cache.slots.0.flags", 3u64.into()),
        ("cpus.0.cache.slots.0.flags", 6u64.into()),
    ];
    let tagged = cases.into_iter().map(|c| (c, true));
    for ((path, value), decode_error) in tagged.chain(inconsistent.into_iter().map(|c| (c, false)))
    {
        let mut doctored = golden.clone();
        set_path(doctored.header_mut(), path, value);
        let snap = MachineSnapshot::from_bytes(&doctored.to_bytes()).unwrap();
        // The golden file is chaos workload 1, unfaulted.
        let outcome = std::panic::catch_unwind(|| {
            Scenario::CHAOS[1].resume(soak_config(2), &snap, None).err()
        });
        match outcome {
            Ok(Some(MachineError::SnapshotCorrupt { detail })) if decode_error => {
                assert!(detail.starts_with("$."), "{path}: error names no path: {detail}")
            }
            Ok(Some(MachineError::SnapshotCorrupt { detail })) => assert!(
                detail.starts_with("resumed state violates an invariant: "),
                "{path}: error names no invariant: {detail}"
            ),
            Ok(other) => panic!("{path}: expected SnapshotCorrupt, got {other:?}"),
            Err(_) => panic!("{path}: resume panicked"),
        }
    }
}

/// The container's checksum catches every damaged byte: flipping one
/// bit, or all eight, of any single byte of a golden file — magic,
/// lengths, header, blob or the checksum itself — fails to decode with
/// `SnapshotCorrupt`, never a panic or a snapshot.
#[test]
fn every_flipped_byte_is_caught() {
    let bytes = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/chaos-w1.vmpsnap"))
        .expect("golden file");
    let mut damaged = bytes.clone();
    for i in 0..bytes.len() {
        for mask in [0x01, 0xff] {
            damaged[i] ^= mask;
            match std::panic::catch_unwind(|| MachineSnapshot::from_bytes(&damaged)) {
                Ok(Err(MachineError::SnapshotCorrupt { .. })) => {}
                Ok(other) => {
                    panic!("byte {i} ^ {mask:#04x}: expected SnapshotCorrupt, got {other:?}")
                }
                Err(_) => panic!("byte {i} ^ {mask:#04x}: decoding panicked"),
            }
            damaged[i] ^= mask;
        }
    }
    let old = [b"VMPSNAP\x01".as_slice(), &bytes[8..]].concat();
    match MachineSnapshot::from_bytes(&old) {
        Err(MachineError::SnapshotCorrupt { detail }) => {
            assert!(detail.contains("format version 1"), "{detail}")
        }
        other => panic!("a version-1 file must be refused, got {other:?}"),
    }
}

//! Event-order gate: the whole machine state, byte for byte, at 16
//! evenly spread `run_until` cuts of four runs.
//!
//! A snapshot holds the event queue with its FIFO sequence numbers, every
//! processor's wake sequence, the LRU clocks, the statistics and the
//! memory image, so a digest of `MachineSnapshot::to_bytes()` moves when
//! any event is delivered in a different order, at a different time, or
//! through a different number of queue operations. The digests were
//! first taken before the event loop learned to deliver a processor's
//! next wake without the queue, and a loop that delivers events in any
//! other way must keep them all. They were re-taken once, when the
//! container became `VMPSNAP\x02` (free frames as runs, a checksum
//! trailer, no per-processor latency histogram or the fields that timed
//! it), after every cut's header and blob were checked equal to the
//! version-1 capture with the free list expanded and the dropped fields
//! removed. The four runs cover:
//!
//! - a one-processor ATUM trace replay on the prototype geometry, where
//!   nearly every reference hits;
//! - two processors sweeping disjoint pages in lockstep, so their wakes
//!   tie in time and only the queue's FIFO order separates them;
//! - every processor fighting over one spin lock with think time
//!   between sections (compute blocks and interrupt service);
//! - an out-of-contract fault plan that trips the liveness watchdog,
//!   cut once more after `run` returns the error.
//!
//! The scenario runs audit every 64 events, and the processed-event
//! count the audit keeps is pinned too.

use vmp::faults::FaultPlan;
use vmp::machine::scenarios::{soak_config, Scenario};
use vmp::machine::{Machine, MachineConfig, MachineError, TraceProgram, WatchdogViolation};
use vmp::trace::synth::{AtumParams, AtumWorkload};
use vmp::trace::Trace;
use vmp::types::Nanos;

/// Cuts per run.
const CUTS: u64 = 16;

/// FNV-1a, 64-bit: a dependency-free digest of a snapshot's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn digest(m: &Machine) -> u64 {
    fnv1a(&m.snapshot().expect("snapshot at a cut").to_bytes())
}

/// The audit's processed-event count, read from the captured state.
fn events_delivered(m: &Machine) -> u64 {
    let snap = m.snapshot().expect("snapshot at a cut");
    snap.header().get("events_delivered").and_then(|v| v.as_u64()).expect("event count")
}

/// Runs a fresh machine to `end` in [`CUTS`] even slices, digesting the
/// snapshot after each; returns the digests and the machine.
fn cut_digests(mut m: Machine, end: Nanos) -> (Vec<u64>, Machine) {
    let digests = (1..=CUTS)
        .map(|k| {
            m.run_until(Nanos::from_ns(end.as_ns() * k / CUTS)).expect("slice runs");
            digest(&m)
        })
        .collect();
    (digests, m)
}

/// One processor, prototype cache (256 KB, 4-way, 256-byte pages) and
/// 4 MB, no page-fault cost, replaying 100,000 ATUM references cold.
fn trace_machine() -> Machine {
    let trace: Trace = AtumWorkload::new(AtumParams::default(), 1986).take(100_000).collect();
    let mut config = MachineConfig { processors: 1, ..MachineConfig::default() };
    config.cpu.page_fault = Nanos::ZERO;
    let mut m = Machine::build(config).unwrap();
    m.set_program(0, TraceProgram::new(trace)).unwrap();
    m
}

/// The soak configuration without the page-fault cost, whose
/// milliseconds would otherwise leave most cuts of a short sweep run
/// between the same two events.
fn no_fault_cost(processors: usize) -> MachineConfig {
    let mut config = soak_config(processors);
    config.cpu.page_fault = Nanos::ZERO;
    config
}

/// Digests of a run that halts: the uninterrupted run fixes the end.
fn halting_run(build: impl Fn() -> Machine) -> (Vec<u64>, u64) {
    let mut whole = build();
    let end = whole.run().expect("run completes").elapsed;
    let (digests, m) = cut_digests(build(), end);
    assert_eq!(digest(&m), digest(&whole), "the sliced run ends where the whole run does");
    (digests, events_delivered(&m))
}

/// Digests of the watchdog run: 15 cuts before the violation, then one
/// after `run` has returned it.
fn watchdog_run() -> (Vec<u64>, u64) {
    let build = || {
        let mut m = Scenario::SpinLock.build(soak_config(2)).unwrap();
        m.install_fault_hook(FaultPlan::broken(0));
        m
    };
    let tripped = |m: &mut Machine| match m.run() {
        Err(MachineError::Watchdog(WatchdogViolation::RetryStreak { .. })) => {}
        other => panic!("expected a retry-streak watchdog trip, got {other:?}"),
    };
    let mut whole = build();
    tripped(&mut whole);
    let mut m = build();
    let mut digests: Vec<u64> = (1..CUTS)
        .map(|k| {
            m.run_until(Nanos::from_ns(whole.now().as_ns() * k / CUTS)).expect("slice runs");
            digest(&m)
        })
        .collect();
    tripped(&mut m);
    digests.push(digest(&m));
    assert_eq!(digest(&m), digest(&whole), "the sliced run trips where the whole run does");
    (digests, events_delivered(&m))
}

#[test]
fn snapshots_at_every_cut_match_their_pinned_digests() {
    let runs = [
        ("trace", halting_run(trace_machine)),
        ("disjoint", halting_run(|| Scenario::DisjointSweeps.build(no_fault_cost(2)).unwrap())),
        ("lock_fight", halting_run(|| Scenario::LockFight.build(soak_config(3)).unwrap())),
        ("watchdog", watchdog_run()),
    ];
    for (name, (digests, events)) in &runs {
        let list: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        eprintln!("{name}: events_delivered {events}, digests [{}]", list.join(", "));
    }
    let pinned: [(&str, [u64; CUTS as usize], u64); 4] = [
        (
            "trace",
            [
                0x9dee_12b2_f968_7cbc,
                0x1871_7580_6353_5a6a,
                0xd31f_68b4_b883_da39,
                0x8b26_0510_d585_3b69,
                0xd74a_7890_d021_88d3,
                0x9120_17d4_2fc3_282b,
                0x2194_ca04_b393_820d,
                0x90e5_c93c_558b_be00,
                0x1ba8_04d5_0bb9_7dd0,
                0x74a4_20d0_55ce_53d4,
                0xd378_901a_0ab6_acd0,
                0x98b7_b982_4251_cfe1,
                0x8b5a_94f1_11b1_431f,
                0x72e6_8aeb_929c_329f,
                0x6b2a_d8ab_1953_48c9,
                0x8779_783d_b93f_970d,
            ],
            0,
        ),
        (
            "disjoint",
            [
                0x7cd5_49ad_d848_407f,
                0x7cd5_49ad_d848_407f,
                0x7cd5_49ad_d848_407f,
                0x7cd5_49ad_d848_407f,
                0xc409_332c_0908_7c9f,
                0x671c_d8ae_7cbe_8872,
                0x42aa_59ac_e2a0_47bf,
                0x42aa_59ac_e2a0_47bf,
                0xd68a_aed8_9343_dacb,
                0xb78a_b715_a0a8_3b3a,
                0x042d_d3b1_afe9_da1d,
                0x0947_cad9_e3a1_c6b8,
                0x737b_8ad2_7548_9537,
                0x97f7_0cf5_182a_ed70,
                0x0731_61a5_ac7c_5695,
                0x0adf_b07a_7111_ec65,
            ],
            386,
        ),
        (
            "lock_fight",
            [
                0x37d3_5d70_37a3_965d,
                0x709f_5788_0a00_9a52,
                0x90d0_b257_6f94_61e8,
                0x357e_96b7_2372_c656,
                0x19b3_c0c2_6789_a692,
                0xc7ca_6313_3161_f0ef,
                0x349a_9b35_cf70_7567,
                0x1125_58d4_69bc_2998,
                0x36a4_2a7f_f076_3544,
                0x6c65_8650_d4f6_8974,
                0xf8fd_441d_4050_aaea,
                0x1b70_4d3b_5d55_8ad6,
                0x8707_3a18_c5a8_c554,
                0x2900_58e8_3d31_80ff,
                0x0d0e_1549_a89f_baa5,
                0xe450_661d_0fbd_710f,
            ],
            3355,
        ),
        (
            "watchdog",
            [
                0xf1bf_0dde_497d_a375,
                0xe747_4fad_7602_add9,
                0x26c8_d5b1_beb5_cfb0,
                0xa883_65a6_8f63_f559,
                0xf3f1_8c81_9526_77aa,
                0xbba3_3f1c_8727_8d73,
                0xe181_be90_b55b_e1ed,
                0xec32_a7f5_c05d_f719,
                0xa2ca_6b5d_5ebd_cedc,
                0xb08a_6f47_ebd9_4d78,
                0x9d96_f9a6_2745_9c26,
                0x70c7_fa3d_6fcc_1e6a,
                0xe297_4169_d72e_eaec,
                0x20f5_d29a_ec71_0c8b,
                0x271e_5d7a_f5be_8ef4,
                0x57ae_a55b_7832_5540,
            ],
            252,
        ),
    ];
    for ((name, (digests, events)), (want_name, want, want_events)) in runs.iter().zip(pinned) {
        assert_eq!(*name, want_name);
        assert_eq!(*events, want_events, "{name}: events delivered under the audit");
        for (k, (got, want)) in digests.iter().zip(want).enumerate() {
            assert_eq!(*got, want, "{name}: snapshot digest at cut {} of {CUTS}", k + 1);
        }
    }
}

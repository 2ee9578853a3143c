//! Event-order gate: the whole machine state, byte for byte, at 16
//! evenly spread `run_until` cuts of four runs.
//!
//! A snapshot holds the event queue with its FIFO sequence numbers, every
//! processor's wake sequence, the LRU clocks, the statistics and the
//! memory image, so a digest of `MachineSnapshot::to_bytes()` moves when
//! any event is delivered in a different order, at a different time, or
//! through a different number of queue operations. The digests were
//! taken before the event loop learned to deliver a processor's next
//! wake without the queue, and a loop that delivers events in any other
//! way must keep them all. The four runs cover:
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
                0xdaa1_b16a_af60_ad09,
                0xc7c9_a015_958a_5da3,
                0x520a_c406_4d80_2aad,
                0x395d_c4b8_0ede_960b,
                0x7dd7_9680_c422_194f,
                0xa0e4_872c_2c51_2809,
                0xebb0_d9cc_d1b8_c020,
                0x6bb2_7b08_68d1_e09c,
                0x6802_ac67_c216_1510,
                0x38ef_ef9a_f8cc_4353,
                0xef60_13cc_abe1_80b9,
                0x7817_dfbc_55ae_5a70,
                0x1a5e_8a9b_7565_0391,
                0x0f8b_a178_d8e2_9d88,
                0x2c26_f6ac_ad5a_d1f7,
                0xe365_f4ce_9ca2_83fc,
            ],
            0,
        ),
        (
            "disjoint",
            [
                0xcf26_3db0_342b_d456,
                0xcf26_3db0_342b_d456,
                0xcf26_3db0_342b_d456,
                0xcf26_3db0_342b_d456,
                0x9bef_c2af_47e2_b8df,
                0x82e3_c8f7_8b2d_f9c8,
                0x527a_b3d6_8a80_f05b,
                0x527a_b3d6_8a80_f05b,
                0x7ed2_527c_6bd3_ca10,
                0x8004_4357_a4d3_68cb,
                0x2230_3445_1be3_3949,
                0xe779_bf29_cac6_e4fe,
                0x92ef_fbfb_ec62_e082,
                0x9131_eb75_3a46_b8cc,
                0x095d_7f92_d58e_a500,
                0x16c3_5fe6_d286_84ca,
            ],
            386,
        ),
        (
            "lock_fight",
            [
                0x6a23_eff3_489e_4015,
                0xec0b_4d63_9af6_df2d,
                0xfd61_d8a7_f1ea_ef8a,
                0x88c3_adf7_9777_3ff0,
                0xbb46_e07f_d416_bcaf,
                0x8076_fcda_7589_a644,
                0xc058_9080_a277_8851,
                0x197f_e8bf_b661_c092,
                0x80a0_5b63_f06a_e361,
                0x472c_2ccb_2b89_9660,
                0x6070_782e_42b8_2743,
                0xf2a5_e851_07d7_54bc,
                0x87f0_84ef_a927_b8ce,
                0x7532_1259_af8e_79de,
                0x1e30_a02b_66cc_a6ce,
                0x5031_1097_fdee_7973,
            ],
            3355,
        ),
        (
            "watchdog",
            [
                0xe53e_9a1c_7cdb_d7f1,
                0x2f2c_34c5_cede_4b84,
                0x306a_0bbf_534c_a946,
                0x8a67_57cb_68c0_ffd4,
                0xb4a3_ca1c_aa22_4547,
                0xb7dd_18e1_2454_4533,
                0xb1e1_f72f_f66a_5ce3,
                0x0532_aa48_b3ca_cf3c,
                0xd549_a819_c14b_5b19,
                0x6bf9_3325_259c_5743,
                0xf03c_9f45_8226_8e36,
                0x74e5_d89d_9e97_7bc8,
                0xbfe3_58da_cee9_046e,
                0x7d58_4afb_b522_4fe0,
                0x131c_5128_b1ad_8747,
                0x5b6a_8d90_597d_4d65,
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

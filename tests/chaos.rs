//! Chaos soak: hundreds of deterministic seeded fault plans against
//! workloads with schedule-independent final state.
//!
//! The fault-transparency contract under test: injected faults (spurious
//! aborts, dropped interrupt words, forced overflows, copier errors,
//! arbitration stalls) may change *when* things happen, never *what* the
//! machine computes. Every faulted run must therefore end with
//! `validate()` clean, the periodic audit silent, the liveness watchdog
//! silent, and the final memory words identical to a zero-fault
//! reference run of the same workload. A deliberately out-of-contract
//! plan must, conversely, demonstrably trip the watchdog.

use vmp::faults::{FaultPlan, FaultRates};
use vmp::machine::scenarios::{observed_config, soak_config, Scenario};
use vmp::machine::{Machine, MachineConfig, MachineError, WatchdogViolation};
use vmp::types::Nanos;
use vmp_sweep::{SweepJob, SweepPool};

/// Seeded fault plans per workload (the soak sweeps seeds `0..PLANS`).
const PLANS: u64 = 200;

/// Every chaos workload has schedule-independent final state: its
/// oracle words are what a faulted run must end with.
fn build_machine(workload: Scenario) -> Machine {
    workload.build(soak_config(2)).unwrap()
}

/// Outcome of one faulted run, compared against the oracle on the main
/// thread so failures name their seed.
struct Outcome {
    seed: u64,
    workload: Scenario,
    error: Option<String>,
    validate: Result<(), String>,
    probes: Vec<Option<u32>>,
    faults_total: u64,
    dropped_words: u64,
    fifo_recoveries: u64,
}

fn run_faulted(workload: Scenario, seed: u64) -> Outcome {
    let rates = if seed.is_multiple_of(2) { FaultRates::light() } else { FaultRates::heavy() };
    let mut m = build_machine(workload);
    m.install_fault_hook(FaultPlan::new(seed, rates));
    let error = match m.run() {
        Ok(_) => None,
        Err(e) => Some(e.to_string()),
    };
    let stats = *m.fault_stats();
    Outcome {
        seed,
        workload,
        error,
        validate: m.validate(),
        probes: workload.probe_words(&m),
        faults_total: stats.total(),
        dropped_words: stats.dropped_words,
        fifo_recoveries: (0..m.processors()).map(|c| m.cpu_stats(c).fifo_recoveries).sum(),
    }
}

#[test]
fn chaos_soak_faults_cost_time_never_correctness() {
    // Zero-fault oracle per workload: the final probe words every
    // faulted run must reproduce.
    let oracle: Vec<(Scenario, Vec<Option<u32>>)> = Scenario::CHAOS
        .iter()
        .map(|&w| {
            let mut m = build_machine(w);
            m.run().unwrap_or_else(|e| panic!("oracle run {w:?} failed: {e}"));
            m.validate().unwrap();
            assert_eq!(m.fault_stats().total(), 0, "oracle runs inject nothing");
            let words = w.probe_words(&m);
            // The reference run lands on the words the catalogue derives.
            assert_eq!(words, w.expected(2, m.page_size().bytes()), "{w:?} reference");
            (w, words)
        })
        .collect();
    // Sanity: the lock oracles really counted 2 workers × 8 sections.
    for (w, words) in &oracle {
        if matches!(w, Scenario::SpinLock | Scenario::NotifyLock) {
            assert_eq!(words[1], Some(16), "{w:?} counter");
        }
    }

    let jobs: Vec<SweepJob<(Scenario, u64)>> = Scenario::CHAOS
        .iter()
        .flat_map(|&w| {
            (0..PLANS).map(move |seed| SweepJob::new(format!("{w:?}/{seed}"), (w, seed)))
        })
        .collect();
    let outcomes = SweepPool::new().run(jobs, |job| run_faulted(job.input.0, job.input.1));

    let mut faults_total = 0u64;
    let mut dropped_total = 0u64;
    let mut recoveries_total = 0u64;
    for o in &outcomes {
        let tag = format!("{:?} seed {}", o.workload, o.seed);
        assert!(o.error.is_none(), "{tag}: run failed: {:?}", o.error);
        assert!(o.validate.is_ok(), "{tag}: validate failed: {:?}", o.validate);
        let expected = &oracle.iter().find(|(w, _)| *w == o.workload).unwrap().1;
        assert_eq!(&o.probes, expected, "{tag}: final memory diverged from zero-fault oracle");
        faults_total += o.faults_total;
        dropped_total += o.dropped_words;
        recoveries_total += o.fifo_recoveries;
    }
    // The soak must actually exercise the machinery it certifies.
    assert!(faults_total > 10_000, "soak injected too few faults: {faults_total}");
    assert!(dropped_total > 100, "soak dropped too few words: {dropped_total}");
    assert!(recoveries_total > 100, "soak triggered too few recoveries: {recoveries_total}");
}

#[test]
fn same_seed_same_faulted_run() {
    // Determinism under faults: identical seed + workload → identical
    // elapsed time, stats and fault accounting.
    let run = || {
        let mut m = build_machine(Scenario::FalseSharing);
        m.install_fault_hook(FaultPlan::new(17, FaultRates::heavy()));
        let report = m.run().unwrap();
        (report.elapsed, report.processors, *m.fault_stats())
    };
    assert_eq!(run(), run());
}

#[test]
fn placebo_plan_is_bit_identical_to_no_hook() {
    let bare = {
        let mut m = build_machine(Scenario::SpinLock);
        let report = m.run().unwrap();
        (report.elapsed, report.processors)
    };
    let placebo = {
        let mut m = build_machine(Scenario::SpinLock);
        m.install_fault_hook(FaultPlan::new(99, FaultRates::none()));
        let report = m.run().unwrap();
        assert_eq!(m.fault_stats().total(), 0);
        (report.elapsed, report.processors)
    };
    assert_eq!(bare, placebo, "a zero-rate plan must not perturb the machine");
}

#[test]
fn broken_plan_trips_the_watchdog() {
    // Recovery disabled by construction: every retryable transaction
    // aborts forever, so no retry can ever converge. The machine must
    // not spin silently — the watchdog has to call it.
    let mut m = build_machine(Scenario::SpinLock);
    m.install_fault_hook(FaultPlan::broken(0));
    match m.run() {
        Err(MachineError::Watchdog(WatchdogViolation::RetryStreak { streak, limit, .. })) => {
            assert!(streak > limit, "reported streak must exceed the limit");
        }
        other => panic!("expected a retry-streak watchdog trip, got {other:?}"),
    }
}

#[test]
fn broken_plan_without_watchdog_hits_the_time_limit() {
    // The watchdog is opt-in: without it the same hostile plan just
    // burns simulated time until max_time — no panic, no livelock of
    // the host (every retry advances the clock).
    let config = MachineConfig { max_time: Nanos::from_ms(5), ..observed_config(2) };
    let mut m = Scenario::SpinLock.build(config).unwrap();
    m.install_fault_hook(FaultPlan::broken(1));
    match m.run() {
        Err(MachineError::TimeLimit { .. }) => {}
        other => panic!("expected the time limit, got {other:?}"),
    }
}

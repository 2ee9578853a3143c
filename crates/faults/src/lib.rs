//! Deterministic, seeded fault plans for the VMP machine.
//!
//! The paper's robustness claims (§3.2–§3.3) — aborted transactions are
//! retried, dropped interrupt words are repaired by the FIFO-overflow
//! recovery scan, and progress is guaranteed — are only worth anything
//! if the recovery machinery is actually exercised. A [`FaultPlan`]
//! implements [`vmp_bus::FaultHook`] from a single 64-bit seed and a set
//! of per-class [`FaultRates`], perturbing the machine at the
//! bus/monitor/memory boundaries:
//!
//! * **spurious aborts** of retryable acquisitions and notifies (the
//!   issuer's normal retry-with-backoff path must absorb them);
//! * **dropped interrupt words** and **forced FIFO overflows** (the §3.3
//!   recovery scan must rebuild monitor/cache agreement);
//! * **transient block-copier errors** (bounded retry in the copier
//!   path: each failed attempt costs one extra transfer time);
//! * **arbitration stalls** (starvation windows where the arbiter keeps
//!   granting other masters).
//!
//! Same seed + same rates + same workload → bit-identical fault
//! schedule, so any chaos-soak failure replays exactly.
//!
//! The *fault-transparency* contract: a plan built from
//! [`FaultRates::light`]/[`FaultRates::heavy`] may change **when**
//! things happen, never **what** the machine computes. The deliberately
//! out-of-contract [`FaultPlan::broken`] plan (aborts everything,
//! forever) exists to prove the machine's liveness watchdog detects
//! genuine starvation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vmp_bus::{BusTransaction, BusTxKind, FaultHook, InterruptWord};
use vmp_types::{Nanos, ProcessorId};

/// Per-class injection probabilities and magnitudes.
///
/// All probabilities are per *opportunity* (one candidate transaction,
/// one freshly queued word, ...), in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability of spuriously aborting a retryable transaction the
    /// monitors allowed.
    pub abort: f64,
    /// Probability of dropping a newly queued interrupt word (modelled
    /// as a FIFO overflow, so recovery repairs it).
    pub drop_word: f64,
    /// Probability of forcing a monitor's sticky overflow flag without
    /// losing a word (spurious recovery scan).
    pub force_overflow: f64,
    /// Probability that each block-copier attempt fails (attempts are
    /// drawn until one succeeds, so the expected extra transfers are
    /// `copier / (1 - copier)`).
    pub copier: f64,
    /// Probability of an arbitration stall before a transaction.
    pub stall: f64,
    /// Longest injected stall; actual stalls are uniform in
    /// `[1, stall_max]` nanoseconds.
    pub stall_max: Nanos,
}

impl FaultRates {
    /// No injection at all (placebo plan).
    pub const fn none() -> Self {
        FaultRates {
            abort: 0.0,
            drop_word: 0.0,
            force_overflow: 0.0,
            copier: 0.0,
            stall: 0.0,
            stall_max: Nanos::ZERO,
        }
    }

    /// Background radiation: rare faults of every class, the regime a
    /// production machine would actually see.
    pub const fn light() -> Self {
        FaultRates {
            abort: 0.02,
            drop_word: 0.05,
            force_overflow: 0.002,
            copier: 0.02,
            stall: 0.02,
            stall_max: Nanos::from_us(20),
        }
    }

    /// Hostile environment: every class fires often enough that most
    /// transactions see at least one perturbation nearby. Still within
    /// the recovery envelope (abort < 1 keeps retries converging).
    pub const fn heavy() -> Self {
        FaultRates {
            abort: 0.25,
            drop_word: 0.4,
            force_overflow: 0.02,
            copier: 0.2,
            stall: 0.15,
            stall_max: Nanos::from_us(100),
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("abort", self.abort),
            ("drop_word", self.drop_word),
            ("force_overflow", self.force_overflow),
            ("copier", self.copier),
            ("stall", self.stall),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} rate {p} outside [0,1]");
        }
    }
}

/// Counts of faults a plan has injected so far, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Spurious transaction aborts.
    pub aborts: u64,
    /// Interrupt words dropped from monitor FIFOs.
    pub dropped_words: u64,
    /// Sticky overflow flags forced without a drop.
    pub forced_overflows: u64,
    /// Failed block-copier attempts.
    pub copier_failures: u64,
    /// Arbitration stalls.
    pub stalls: u64,
    /// Total injected stall time.
    pub stall_time: Nanos,
}

impl InjectionCounts {
    /// Total faults of all classes.
    pub fn total(&self) -> u64 {
        self.aborts
            + self.dropped_words
            + self.forced_overflows
            + self.copier_failures
            + self.stalls
    }
}

impl fmt::Display for InjectionCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} aborts, {} drops, {} overflows, {} copier, {} stalls ({})",
            self.aborts,
            self.dropped_words,
            self.forced_overflows,
            self.copier_failures,
            self.stalls,
            self.stall_time
        )
    }
}

/// A deterministic fault schedule: seeded RNG + per-class rates.
///
/// # Examples
///
/// ```
/// use vmp_bus::{BusTransaction, BusTxKind, FaultHook};
/// use vmp_faults::{FaultPlan, FaultRates};
/// use vmp_types::{FrameNum, Nanos, ProcessorId};
///
/// let mut plan = FaultPlan::new(42, FaultRates::heavy());
/// let tx = BusTransaction::new(BusTxKind::ReadShared, FrameNum::new(1), ProcessorId::new(0));
/// let mut hits = 0;
/// for _ in 0..1000 {
///     if plan.inject_abort(Nanos::ZERO, &tx) {
///         hits += 1;
///     }
/// }
/// // heavy() aborts ~25% of candidates.
/// assert!((150..350).contains(&hits), "{hits}");
/// assert_eq!(plan.injected().aborts, hits);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    rng: StdRng,
    counts: InjectionCounts,
    /// Copier failures are clamped so one transfer never retries forever
    /// even at rates approaching 1.
    max_copier_failures: u32,
}

/// Hard cap on failed copier attempts per transfer: the "bounded retry"
/// of the copier path.
pub const MAX_COPIER_FAILURES: u32 = 8;

impl FaultPlan {
    /// Builds a plan from a seed and rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        rates.validate();
        FaultPlan {
            seed,
            rates,
            // Domain-separate the fault stream from workload generators
            // that may share the same user-facing seed.
            rng: StdRng::seed_from_u64(seed ^ 0xfa17_ab0a_7d00_0001),
            counts: InjectionCounts::default(),
            max_copier_failures: MAX_COPIER_FAILURES,
        }
    }

    /// A deliberately *out-of-contract* plan: aborts every retryable
    /// transaction, forever. No machine can make progress under it — its
    /// only purpose is to prove the liveness watchdog actually fires.
    pub fn broken(seed: u64) -> Self {
        FaultPlan::new(seed, FaultRates { abort: 1.0, ..FaultRates::none() })
    }

    /// Faults injected so far, by class.
    pub fn injected(&self) -> InjectionCounts {
        self.counts
    }
}

/// Byte tag leading a serialized [`FaultPlan`] state, so a plan never
/// accepts another hook type's bytes.
const STATE_TAG: &[u8; 8] = b"VMPFLT\x01\x00";

impl FaultPlan {
    /// Serializes the plan's mutable state — RNG position and injection
    /// counters — as little-endian words behind a type tag. The seed and
    /// rates are *not* included: they are construction parameters, and
    /// restore verifies the receiving plan was built with the same seed.
    fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 + 4 * 8 + 6 * 8);
        out.extend_from_slice(STATE_TAG);
        out.extend_from_slice(&self.seed.to_le_bytes());
        for word in self.rng.state() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for v in [
            self.counts.aborts,
            self.counts.dropped_words,
            self.counts.forced_overflows,
            self.counts.copier_failures,
            self.counts.stalls,
            self.counts.stall_time.as_ns(),
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode_state(&mut self, state: &[u8]) -> bool {
        let expected_len = 8 + 8 + 4 * 8 + 6 * 8;
        if state.len() != expected_len || &state[..8] != STATE_TAG {
            return false;
        }
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&state[8 + i * 8..16 + i * 8]);
            u64::from_le_bytes(b)
        };
        if word(0) != self.seed {
            return false;
        }
        self.rng = StdRng::from_state([word(1), word(2), word(3), word(4)]);
        self.counts = InjectionCounts {
            aborts: word(5),
            dropped_words: word(6),
            forced_overflows: word(7),
            copier_failures: word(8),
            stalls: word(9),
            stall_time: Nanos::from_ns(word(10)),
        };
        true
    }
}

impl FaultHook for FaultPlan {
    fn arbitration_stall(&mut self, _now: Nanos, _tx: &BusTransaction) -> Nanos {
        if self.rates.stall > 0.0 && self.rng.random_bool(self.rates.stall) {
            let max = self.rates.stall_max.as_ns().max(1);
            let stall = Nanos::from_ns(self.rng.random_range(1..=max));
            self.counts.stalls += 1;
            self.counts.stall_time += stall;
            stall
        } else {
            Nanos::ZERO
        }
    }

    fn inject_abort(&mut self, _now: Nanos, _tx: &BusTransaction) -> bool {
        if self.rates.abort > 0.0 && self.rng.random_bool(self.rates.abort) {
            self.counts.aborts += 1;
            true
        } else {
            false
        }
    }

    fn drop_interrupt_word(
        &mut self,
        _now: Nanos,
        _observer: ProcessorId,
        _word: &InterruptWord,
    ) -> bool {
        if self.rates.drop_word > 0.0 && self.rng.random_bool(self.rates.drop_word) {
            self.counts.dropped_words += 1;
            true
        } else {
            false
        }
    }

    fn force_overflow(&mut self, _now: Nanos, _observer: ProcessorId) -> bool {
        if self.rates.force_overflow > 0.0 && self.rng.random_bool(self.rates.force_overflow) {
            self.counts.forced_overflows += 1;
            true
        } else {
            false
        }
    }

    fn copier_failures(&mut self, _now: Nanos, tx: &BusTransaction) -> u32 {
        // Block transfers (page moves) and plain DMA streams occupy the
        // copier; control cycles (assert-ownership, notify, ...) do not.
        let moves_data = tx.kind.is_block_transfer()
            || matches!(tx.kind, BusTxKind::PlainRead | BusTxKind::PlainWrite);
        if self.rates.copier <= 0.0 || !moves_data {
            return 0;
        }
        let mut failures = 0;
        while failures < self.max_copier_failures && self.rng.random_bool(self.rates.copier) {
            failures += 1;
        }
        self.counts.copier_failures += u64::from(failures);
        failures
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.encode_state())
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        self.decode_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_bus::BusTxKind;
    use vmp_types::FrameNum;

    fn tx(kind: BusTxKind) -> BusTransaction {
        BusTransaction::new(kind, FrameNum::new(3), ProcessorId::new(1))
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::new(7, FaultRates::heavy());
        let mut b = FaultPlan::new(7, FaultRates::heavy());
        for i in 0..500 {
            let t = tx(BusTxKind::ReadPrivate);
            let now = Nanos::from_ns(i);
            assert_eq!(a.inject_abort(now, &t), b.inject_abort(now, &t));
            assert_eq!(a.arbitration_stall(now, &t), b.arbitration_stall(now, &t));
            assert_eq!(a.copier_failures(now, &t), b.copier_failures(now, &t));
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(1, FaultRates::heavy());
        let mut b = FaultPlan::new(2, FaultRates::heavy());
        let t = tx(BusTxKind::ReadShared);
        let draws_a: Vec<bool> = (0..64).map(|_| a.inject_abort(Nanos::ZERO, &t)).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.inject_abort(Nanos::ZERO, &t)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn none_rates_inject_nothing() {
        let mut p = FaultPlan::new(99, FaultRates::none());
        let t = tx(BusTxKind::ReadPrivate);
        let w = InterruptWord { kind: t.kind, frame: t.frame, issuer: t.issuer };
        for _ in 0..200 {
            assert!(!p.inject_abort(Nanos::ZERO, &t));
            assert_eq!(p.arbitration_stall(Nanos::ZERO, &t), Nanos::ZERO);
            assert!(!p.drop_interrupt_word(Nanos::ZERO, ProcessorId::new(0), &w));
            assert!(!p.force_overflow(Nanos::ZERO, ProcessorId::new(0)));
            assert_eq!(p.copier_failures(Nanos::ZERO, &t), 0);
        }
        assert_eq!(p.injected().total(), 0);
    }

    #[test]
    fn broken_plan_aborts_everything() {
        let mut p = FaultPlan::broken(0);
        let t = tx(BusTxKind::AssertOwnership);
        for _ in 0..100 {
            assert!(p.inject_abort(Nanos::ZERO, &t));
        }
        assert_eq!(p.injected().aborts, 100);
        assert_eq!(p.injected().dropped_words, 0);
    }

    #[test]
    fn copier_failures_bounded_and_block_only() {
        let mut p = FaultPlan::new(5, FaultRates { copier: 1.0, ..FaultRates::none() });
        assert_eq!(
            p.copier_failures(Nanos::ZERO, &tx(BusTxKind::ReadShared)),
            MAX_COPIER_FAILURES,
            "copier rate 1.0 saturates at the bound"
        );
        assert_eq!(
            p.copier_failures(Nanos::ZERO, &tx(BusTxKind::Notify)),
            0,
            "control cycles have no copier"
        );
        assert_eq!(
            p.copier_failures(Nanos::ZERO, &tx(BusTxKind::PlainWrite)),
            MAX_COPIER_FAILURES,
            "DMA streams go through the copier too"
        );
    }

    #[test]
    fn stalls_respect_ceiling() {
        let rates = FaultRates { stall: 1.0, stall_max: Nanos::from_ns(500), ..FaultRates::none() };
        let mut p = FaultPlan::new(11, rates);
        for _ in 0..200 {
            let s = p.arbitration_stall(Nanos::ZERO, &tx(BusTxKind::ReadShared));
            assert!(s > Nanos::ZERO && s <= Nanos::from_ns(500), "{s}");
        }
        assert_eq!(p.injected().stalls, 200);
    }

    #[test]
    fn rates_validated() {
        let r = FaultRates { abort: 1.5, ..FaultRates::none() };
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0, r)).is_err());
    }

    #[test]
    fn counts_display() {
        let c = InjectionCounts { aborts: 2, stalls: 1, ..InjectionCounts::default() };
        let s = c.to_string();
        assert!(s.contains("2 aborts") && s.contains("1 stalls"));
        assert_eq!(c.total(), 3);
    }
}

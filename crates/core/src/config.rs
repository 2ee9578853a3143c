//! Machine configuration.

use vmp_bus::BusTimings;
use vmp_cache::CacheConfig;
use vmp_mem::MemTimings;
use vmp_obs::ObsConfig;
use vmp_types::{ConfigError, Nanos, PageSize};

/// Software timing of the cache-management routines running on each CPU.
///
/// The miss-handler phase split (`miss_pre`/`miss_mid`/`miss_post`)
/// matches `vmp_analytic::MissCostModel::paper`: ≈13.6 µs total, with the
/// `mid` phase overlappable with a victim write-back (§5.1, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimings {
    /// Mean time per memory reference at full speed (2.4 MIPS ×
    /// 1.2 refs/instr → ≈347 ns).
    pub ref_cycle: Nanos,
    /// Miss-handler software before any transfer can start (exception
    /// entry, state save, decode).
    pub miss_pre: Nanos,
    /// Miss-handler software overlappable with a write-back transfer
    /// (translation, victim bookkeeping).
    pub miss_mid: Nanos,
    /// Miss-handler software after which the read transfer still
    /// completes (flag setup, RTE).
    pub miss_post: Nanos,
    /// Software cost of the write-permission upgrade trap
    /// (assert-ownership negotiation: trap + RTE, no transfer).
    pub upgrade_software: Nanos,
    /// Software cost of servicing one consistency-interrupt word.
    pub consistency_service: Nanos,
    /// Operating-system cost of a real page fault (demand-zero fill).
    pub page_fault: Nanos,
    /// Delay between an aborted bus transaction and the re-trap that
    /// retries the faulting instruction.
    pub retry_backoff: Nanos,
    /// Software cost of the FIFO-overflow recovery sweep, per valid
    /// cache slot examined.
    pub overflow_recovery_per_slot: Nanos,
    /// Timeout for a parked [`crate::Op::WaitNotify`]: the kernel
    /// "suspends for a timeout period" (§5.4), which also covers the
    /// missed-wakeup race between watch setup and notification.
    pub notify_timeout: Nanos,
    /// Cap on the exponential retry-backoff streak: the backoff grows as
    /// `retry_backoff << min(streak, max_retry_streak)`. Larger caps
    /// spread contending retriers further apart at the cost of latency
    /// after a burst of aborts.
    pub max_retry_streak: u32,
}

impl Default for CpuTimings {
    fn default() -> Self {
        CpuTimings {
            ref_cycle: Nanos::from_ns(347),
            miss_pre: Nanos::from_ns(6_000),
            miss_mid: Nanos::from_ns(3_400),
            miss_post: Nanos::from_ns(4_200),
            upgrade_software: Nanos::from_ns(10_200),
            consistency_service: Nanos::from_ns(3_000),
            page_fault: Nanos::from_ns(100_000),
            retry_backoff: Nanos::from_ns(1_000),
            overflow_recovery_per_slot: Nanos::from_ns(200),
            notify_timeout: Nanos::from_us(500),
            max_retry_streak: 3,
        }
    }
}

/// Liveness-watchdog thresholds.
///
/// Each limit of `0` (or [`Nanos::ZERO`]) means "derive a generous
/// default from the machine's timing configuration" — see the field
/// docs. The derived limits are far beyond anything a healthy machine
/// produces under the protocol's own recovery paths, so a watchdog trip
/// always indicates genuine starvation (or an out-of-contract fault
/// plan), never an unlucky-but-recovering run.
///
/// # Examples
///
/// ```
/// use vmp_core::{CpuTimings, WatchdogConfig};
///
/// let w = WatchdogConfig::default();
/// let cpu = CpuTimings::default();
/// assert_eq!(w.effective_retry_streak_limit(&cpu), 128);
/// assert_eq!(w.effective_zero_yield_limit(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogConfig {
    /// A single reference aborting and retrying this many consecutive
    /// times is starvation. `0` derives `32 × (max_retry_streak + 1)`.
    pub retry_streak_limit: u64,
    /// An interrupt word (or sticky overflow flag) left unserviced this
    /// long is a dropped wakeup. Zero derives `100 × notify_timeout`.
    pub interrupt_lag_limit: Nanos,
    /// A processor acquiring this many pages in a row with zero
    /// successful references between them is thrashing without progress.
    /// `0` derives `64`.
    pub zero_yield_limit: u64,
}

impl WatchdogConfig {
    /// The retry-streak limit after derivation.
    pub fn effective_retry_streak_limit(&self, cpu: &CpuTimings) -> u64 {
        if self.retry_streak_limit != 0 {
            self.retry_streak_limit
        } else {
            32 * (u64::from(cpu.max_retry_streak) + 1)
        }
    }

    /// The interrupt-service lag limit after derivation.
    pub fn effective_interrupt_lag_limit(&self, cpu: &CpuTimings) -> Nanos {
        if self.interrupt_lag_limit != Nanos::ZERO {
            self.interrupt_lag_limit
        } else {
            cpu.notify_timeout * 100
        }
    }

    /// The zero-yield acquisition limit after derivation.
    pub fn effective_zero_yield_limit(&self) -> u64 {
        if self.zero_yield_limit != 0 {
            self.zero_yield_limit
        } else {
            64
        }
    }
}

/// Configuration of a whole VMP machine.
///
/// # Examples
///
/// ```
/// use vmp_core::MachineConfig;
///
/// let config = MachineConfig::default();
/// assert_eq!(config.processors, 4);
/// let small = MachineConfig::small();
/// assert!(small.memory_bytes < config.memory_bytes);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processor boards.
    pub processors: usize,
    /// Per-processor cache geometry.
    pub cache: CacheConfig,
    /// Shared main-memory size in bytes (the prototype allows up to 8 MB).
    pub memory_bytes: u64,
    /// Bus timing parameters.
    pub bus: BusTimings,
    /// Main-memory block-transfer timing.
    pub mem_timings: MemTimings,
    /// CPU and handler software timing.
    pub cpu: CpuTimings,
    /// Run the protocol invariant validator after every processor step
    /// (slow; intended for tests).
    pub validate_each_step: bool,
    /// Run the protocol invariant validator every N delivered events,
    /// surfacing violations as [`crate::MachineError::AuditFailed`]. A
    /// cheaper production-style middle ground between `validate_each_step`
    /// and no checking at all. `None` disables the audit.
    pub audit_every: Option<u64>,
    /// Liveness watchdog thresholds; `None` disables the watchdog (the
    /// default, so benign runs are bit-identical with or without this
    /// subsystem compiled in).
    pub watchdog: Option<WatchdogConfig>,
    /// Observability: structured event recording, latency histograms and
    /// windowed series. Disabled by default; recording never feeds back
    /// into simulation state, so enabling it cannot perturb a run.
    pub obs: ObsConfig,
    /// Stop the simulation at this time even if programs have not halted.
    pub max_time: Nanos,
}

impl Default for MachineConfig {
    /// Four processors with the prototype cache (256 KB, 4-way, 256-byte
    /// pages) and 4 MB of main memory.
    fn default() -> Self {
        MachineConfig {
            processors: 4,
            cache: CacheConfig::prototype(),
            memory_bytes: 4 * 1024 * 1024,
            bus: BusTimings::default(),
            mem_timings: MemTimings::default(),
            cpu: CpuTimings::default(),
            validate_each_step: false,
            audit_every: None,
            watchdog: None,
            obs: ObsConfig::default(),
            max_time: Nanos::from_ms(10_000),
        }
    }
}

impl MachineConfig {
    /// A small configuration for unit tests and examples: two processors,
    /// an 8 KB 2-way cache of 128-byte pages, 64 KB of memory, with
    /// per-step validation enabled.
    pub fn small() -> Self {
        MachineConfig {
            processors: 2,
            cache: CacheConfig::new(PageSize::S128, 2, 8 * 1024)
                .expect("small geometry is statically valid"),
            memory_bytes: 64 * 1024,
            validate_each_step: true,
            ..MachineConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if there are no processors, memory is
    /// smaller than one cache page, or memory is not a whole number of
    /// cache pages.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.processors == 0 {
            return Err(ConfigError::ZeroCount { what: "processors" });
        }
        let page = self.cache.page_size().bytes();
        if self.memory_bytes < page {
            return Err(ConfigError::Inconsistent { what: "memory smaller than one cache page" });
        }
        if !self.memory_bytes.is_multiple_of(page) {
            return Err(ConfigError::Inconsistent {
                what: "memory must be a whole number of cache pages",
            });
        }
        if self.audit_every == Some(0) {
            return Err(ConfigError::ZeroCount { what: "audit_every interval" });
        }
        if self.obs.enabled {
            if self.obs.ring_capacity == 0 {
                return Err(ConfigError::ZeroCount { what: "obs ring capacity" });
            }
            if self.obs.histogram_buckets == 0 || self.obs.histogram_buckets > 65 {
                return Err(ConfigError::Inconsistent {
                    what: "obs histogram buckets must be in 1..=65",
                });
            }
            if self.obs.window == Nanos::ZERO {
                return Err(ConfigError::ZeroCount { what: "obs window width" });
            }
            if self.obs.attrib && self.obs.attrib_window == Nanos::ZERO {
                return Err(ConfigError::ZeroCount { what: "obs attribution window" });
            }
            debug_assert!(self.obs.validate().is_ok());
        }
        Ok(())
    }

    /// Number of page frames in main memory.
    pub fn frames(&self) -> u64 {
        self.memory_bytes / self.cache.page_size().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        MachineConfig::default().check().unwrap();
        MachineConfig::small().check().unwrap();
    }

    #[test]
    fn default_matches_prototype() {
        let c = MachineConfig::default();
        assert_eq!(c.cache.total_bytes(), 256 * 1024);
        assert_eq!(c.frames(), 4 * 1024 * 1024 / 256);
    }

    #[test]
    fn rejects_bad_configs() {
        let c = MachineConfig { processors: 0, ..MachineConfig::default() };
        assert!(c.check().is_err());
        let c = MachineConfig { memory_bytes: 100, ..MachineConfig::default() };
        assert!(c.check().is_err());
        let c = MachineConfig { memory_bytes: 256 * 3 + 1, ..MachineConfig::default() };
        assert!(c.check().is_err());
    }

    #[test]
    fn cpu_timings_match_analytic_model() {
        let t = CpuTimings::default();
        assert_eq!((t.miss_pre + t.miss_mid + t.miss_post).as_micros_f64(), 13.6);
        assert_eq!(t.upgrade_software, t.miss_pre + t.miss_post);
    }

    #[test]
    fn audit_interval_must_be_positive() {
        let c = MachineConfig { audit_every: Some(0), ..MachineConfig::default() };
        assert!(c.check().is_err());
        let c = MachineConfig { audit_every: Some(1), ..MachineConfig::default() };
        c.check().unwrap();
    }

    #[test]
    fn obs_config_is_validated_when_enabled() {
        let with_obs = |obs| MachineConfig { obs, ..MachineConfig::default() };
        let c = with_obs(ObsConfig { enabled: true, ring_capacity: 0, ..ObsConfig::default() });
        assert!(c.check().is_err());
        let c =
            with_obs(ObsConfig { enabled: true, histogram_buckets: 66, ..ObsConfig::default() });
        assert!(c.check().is_err());
        let c = with_obs(ObsConfig { enabled: true, window: Nanos::ZERO, ..ObsConfig::default() });
        assert!(c.check().is_err());
        // The same parameters pass when recording is off (they are unused)
        // and when recording is on with sane values.
        let c = with_obs(ObsConfig { attrib: true, attrib_window: Nanos::ZERO, ..ObsConfig::on() });
        assert!(c.check().is_err());
        with_obs(ObsConfig::with_attrib()).check().unwrap();
        let c = with_obs(ObsConfig { enabled: false, ring_capacity: 0, ..ObsConfig::default() });
        c.check().unwrap();
        with_obs(ObsConfig::on()).check().unwrap();
    }

    #[test]
    fn watchdog_limits_derive_from_timings() {
        let cpu = CpuTimings::default();
        let w = WatchdogConfig::default();
        assert_eq!(w.effective_retry_streak_limit(&cpu), 32 * 4);
        assert_eq!(w.effective_interrupt_lag_limit(&cpu), Nanos::from_ms(50));
        assert_eq!(w.effective_zero_yield_limit(), 64);
        // Explicit limits win over derivation.
        let w = WatchdogConfig {
            retry_streak_limit: 7,
            interrupt_lag_limit: Nanos::from_us(3),
            zero_yield_limit: 2,
        };
        assert_eq!(w.effective_retry_streak_limit(&cpu), 7);
        assert_eq!(w.effective_interrupt_lag_limit(&cpu), Nanos::from_us(3));
        assert_eq!(w.effective_zero_yield_limit(), 2);
    }
}

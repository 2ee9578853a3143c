//! Per-processor and machine-level run statistics.

use core::fmt;

use vmp_bus::{BusStats, BusTxKind};
use vmp_obs::json::Value;
use vmp_types::{Nanos, ProcessorId};

/// Counters for one processor over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Memory references executed (reads + writes + TAS).
    pub refs: u64,
    /// Reads (including TAS reads).
    pub reads: u64,
    /// Writes (including TAS writes).
    pub writes: u64,
    /// Cache read misses (block fetch via read-shared).
    pub read_misses: u64,
    /// Cache write misses (block fetch via read-private).
    pub write_misses: u64,
    /// Write-permission upgrades (assert-ownership on a shared page).
    pub upgrades: u64,
    /// Nested misses taken on page-table (PTE) pages during translation.
    pub pte_misses: u64,
    /// Real page faults (demand-zero fills) taken.
    pub page_faults: u64,
    /// Victim write-backs performed by the miss handler.
    pub writebacks: u64,
    /// Own bus transactions aborted by some monitor (each causes a
    /// re-trap and retry).
    pub retries: u64,
    /// Consistency-interrupt words serviced.
    pub consistency_interrupts: u64,
    /// Pages invalidated by consistency service.
    pub invalidations: u64,
    /// Pages downgraded private→shared by consistency service.
    pub downgrades: u64,
    /// Notifications delivered.
    pub notifies: u64,
    /// FIFO-overflow recoveries executed.
    pub fifo_recoveries: u64,
    /// Protocol-violation words observed (foreign write-back on a page
    /// we hold) — should stay zero.
    pub violations: u64,
    /// Time spent computing / executing references at full speed.
    pub useful_time: Nanos,
    /// Time spent in miss handling, retries and consistency service.
    pub stall_time: Nanos,
}

impl ProcessorStats {
    /// Total cache misses of all kinds (excluding upgrades).
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss ratio over executed references.
    pub fn miss_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses() as f64 / self.refs as f64
        }
    }

    /// Normalized processor performance: useful time over total busy
    /// time (the machine analogue of Figure 3's y-axis).
    pub fn performance(&self) -> f64 {
        let total = self.useful_time + self.stall_time;
        if total == Nanos::ZERO {
            1.0
        } else {
            self.useful_time.as_ns() as f64 / total.as_ns() as f64
        }
    }

    /// Renders the counters plus the derived ratios as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .set("refs", self.refs)
            .set("reads", self.reads)
            .set("writes", self.writes)
            .set("read_misses", self.read_misses)
            .set("write_misses", self.write_misses)
            .set("upgrades", self.upgrades)
            .set("pte_misses", self.pte_misses)
            .set("page_faults", self.page_faults)
            .set("writebacks", self.writebacks)
            .set("retries", self.retries)
            .set("consistency_interrupts", self.consistency_interrupts)
            .set("invalidations", self.invalidations)
            .set("downgrades", self.downgrades)
            .set("notifies", self.notifies)
            .set("fifo_recoveries", self.fifo_recoveries)
            .set("violations", self.violations)
            .set("useful_ns", self.useful_time.as_ns())
            .set("stall_ns", self.stall_time.as_ns())
            .set("miss_ratio", self.miss_ratio())
            .set("performance", self.performance())
    }
}

impl fmt::Display for ProcessorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs={} misses={} ({:.3}%) upgrades={} retries={} irqs={} perf={:.1}%",
            self.refs,
            self.misses(),
            100.0 * self.miss_ratio(),
            self.upgrades,
            self.retries,
            self.consistency_interrupts,
            100.0 * self.performance(),
        )
    }
}

/// Machine-side accounting of injected faults, by class: what the
/// machine *absorbed* through its recovery paths. Mirrors the injecting
/// hook's own counts (`vmp-faults` tracks what it handed out; these
/// track what the machine actually paid for), so a chaos harness can
/// cross-check the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transactions spuriously aborted by the fault hook (also folded
    /// into the bus's injected-abort counter).
    pub injected_aborts: u64,
    /// Interrupt words dropped from monitor FIFOs (each marks the FIFO
    /// overflowed, forcing a §3.3 recovery scan).
    pub dropped_words: u64,
    /// Sticky overflow flags forced without losing a word.
    pub forced_overflows: u64,
    /// Failed block-copier attempts absorbed by bounded retry.
    pub copier_retries: u64,
    /// Extra transfer time paid for those copier retries.
    pub copier_retry_time: Nanos,
    /// Arbitration stalls suffered.
    pub stalls: u64,
    /// Total injected arbitration-stall time.
    pub stall_time: Nanos,
}

impl FaultStats {
    /// Total fault events of all classes.
    pub fn total(&self) -> u64 {
        self.injected_aborts
            + self.dropped_words
            + self.forced_overflows
            + self.copier_retries
            + self.stalls
    }

    /// Renders the per-class counters as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .set("injected_aborts", self.injected_aborts)
            .set("dropped_words", self.dropped_words)
            .set("forced_overflows", self.forced_overflows)
            .set("copier_retries", self.copier_retries)
            .set("copier_retry_ns", self.copier_retry_time.as_ns())
            .set("stalls", self.stalls)
            .set("stall_ns", self.stall_time.as_ns())
            .set("total", self.total())
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults: {} aborts, {} drops, {} overflows, {} copier ({}), {} stalls ({})",
            self.injected_aborts,
            self.dropped_words,
            self.forced_overflows,
            self.copier_retries,
            self.copier_retry_time,
            self.stalls,
            self.stall_time,
        )
    }
}

/// The result of a completed machine run.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Simulated time at completion.
    pub elapsed: Nanos,
    /// Per-processor counters, indexed by processor.
    pub processors: Vec<ProcessorStats>,
    /// Shared-bus statistics.
    pub bus: BusStats,
    /// Faults absorbed over the run (all zero without a fault hook).
    pub faults: FaultStats,
}

impl MachineReport {
    /// Aggregate references across processors.
    pub fn total_refs(&self) -> u64 {
        self.processors.iter().map(|p| p.refs).sum()
    }

    /// Aggregate misses across processors.
    pub fn total_misses(&self) -> u64 {
        self.processors.iter().map(|p| p.misses()).sum()
    }

    /// Bus utilization over the run.
    pub fn bus_utilization(&self) -> f64 {
        self.bus.utilization(self.elapsed)
    }

    /// Processors that executed at least one reference.
    pub fn active_processors(&self) -> Vec<ProcessorId> {
        self.processors
            .iter()
            .enumerate()
            .filter(|(_, p)| p.refs > 0)
            .map(|(i, _)| ProcessorId::new(i))
            .collect()
    }

    /// Renders the whole report — per-processor counters, bus statistics
    /// and absorbed faults — as one machine-readable JSON document.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .set("elapsed_ns", self.elapsed.as_ns())
            .set("total_refs", self.total_refs())
            .set("total_misses", self.total_misses())
            .set("bus_utilization", self.bus_utilization())
            .set(
                "processors",
                self.processors.iter().map(ProcessorStats::to_json).collect::<Vec<_>>(),
            )
            .set("bus", bus_stats_json(&self.bus))
            .set("faults", self.faults.to_json())
    }
}

/// Renders shared-bus statistics as a JSON object with per-kind
/// completed/aborted transaction counts keyed by the kind labels.
fn bus_stats_json(bus: &BusStats) -> Value {
    let mut counts = Value::obj();
    let mut aborts = Value::obj();
    for kind in BusTxKind::ALL {
        counts = counts.set(kind.label(), bus.count(kind));
        aborts = aborts.set(kind.label(), bus.abort_count(kind));
    }
    Value::obj()
        .set("completed", bus.total())
        .set("counts", counts)
        .set("aborts", bus.aborts)
        .set("injected_aborts", bus.injected_aborts)
        .set("protocol_aborts", bus.protocol_aborts())
        .set("abort_counts", aborts)
        .set("busy_ns", bus.busy.busy().as_ns())
        .set(
            "arbitration",
            Value::obj()
                .set("reservations", bus.reservations)
                .set("wait_total_ns", bus.arb_wait_total.as_ns())
                .set("wait_max_ns", bus.arb_wait_max.as_ns())
                .set("wait_mean_ns", bus.mean_arb_wait().as_ns()),
        )
}

impl fmt::Display for MachineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "elapsed {} | bus util {:.1}%", self.elapsed, 100.0 * self.bus_utilization())?;
        for (i, p) in self.processors.iter().enumerate() {
            writeln!(f, "  cpu{i}: {p}")?;
        }
        write!(f, "  {}", self.bus)?;
        if self.faults.total() > 0 {
            write!(f, "\n  {}", self.faults)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = ProcessorStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.performance(), 1.0);
        s.refs = 1000;
        s.read_misses = 3;
        s.write_misses = 2;
        s.useful_time = Nanos::from_us(90);
        s.stall_time = Nanos::from_us(10);
        assert_eq!(s.misses(), 5);
        assert!((s.miss_ratio() - 0.005).abs() < 1e-12);
        assert!((s.performance() - 0.9).abs() < 1e-12);
        assert!(s.to_string().contains("0.500%"));
    }

    #[test]
    fn report_aggregates() {
        let a = ProcessorStats { refs: 10, read_misses: 1, ..ProcessorStats::default() };
        let b = ProcessorStats::default();
        let report = MachineReport {
            elapsed: Nanos::from_us(100),
            processors: vec![a, b],
            bus: BusStats::default(),
            faults: FaultStats::default(),
        };
        assert_eq!(report.total_refs(), 10);
        assert_eq!(report.total_misses(), 1);
        assert_eq!(report.active_processors(), vec![ProcessorId::new(0)]);
        assert_eq!(report.bus_utilization(), 0.0);
        assert!(report.to_string().contains("cpu0"));
        assert!(!report.to_string().contains("faults:"), "quiet runs omit the fault line");
    }

    #[test]
    fn report_serializes_to_json() {
        let p = ProcessorStats {
            refs: 100,
            read_misses: 4,
            useful_time: Nanos::from_us(30),
            stall_time: Nanos::from_us(10),
            ..ProcessorStats::default()
        };
        let report = MachineReport {
            elapsed: Nanos::from_us(40),
            processors: vec![p],
            bus: BusStats::default(),
            faults: FaultStats { injected_aborts: 2, ..FaultStats::default() },
        };
        let text = report.to_json().to_string();
        let doc = vmp_obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("elapsed_ns").unwrap().as_u64(), Some(40_000));
        assert_eq!(doc.get("total_refs").unwrap().as_u64(), Some(100));
        let cpu = &doc.get("processors").unwrap().as_arr().unwrap()[0];
        assert_eq!(cpu.get("read_misses").unwrap().as_u64(), Some(4));
        assert!((cpu.get("performance").unwrap().as_f64().unwrap() - 0.75).abs() < 1e-12);
        let bus = doc.get("bus").unwrap();
        assert_eq!(bus.get("counts").unwrap().get("read-shared").unwrap().as_u64(), Some(0));
        assert_eq!(bus.get("arbitration").unwrap().get("reservations").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("faults").unwrap().get("injected_aborts").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn fault_stats_total_and_display() {
        let f = FaultStats {
            injected_aborts: 3,
            dropped_words: 2,
            stalls: 1,
            stall_time: Nanos::from_us(4),
            ..FaultStats::default()
        };
        assert_eq!(f.total(), 6);
        let s = f.to_string();
        assert!(s.contains("3 aborts") && s.contains("2 drops") && s.contains("1 stalls"), "{s}");
        let report = MachineReport {
            elapsed: Nanos::from_us(1),
            processors: vec![],
            bus: BusStats::default(),
            faults: f,
        };
        assert!(report.to_string().contains("faults:"));
    }
}

//! Snoopy write-broadcast coherence (the §6 alternative).

use std::collections::{HashMap, HashSet};

use vmp_mem::MemTimings;
use vmp_types::Nanos;

use crate::{Access, CoherenceModel, TrafficStats};

/// A write-broadcast (write-update) snoopy cache system.
///
/// Each processor caches small *lines*; on a write to a line present in
/// any other cache, the word is broadcast on the bus and every holder
/// updates in place — the behaviour the paper argues against: it needs a
/// bus-to-cache data path at memory-reference speed, word-granularity
/// bus operations on every shared write, and small lines (§6).
///
/// The model is infinite-capacity per processor (capacity misses are the
/// same for both protocols and would only blur the *sharing-traffic*
/// comparison the paper makes).
///
/// # Examples
///
/// ```
/// use vmp_baselines::{Access, CoherenceModel, SnoopySystem};
///
/// let mut s = SnoopySystem::new(2, 16);
/// s.access(Access { cpu: 0, addr: 0, write: false }); // line fill
/// s.access(Access { cpu: 1, addr: 0, write: true });  // fill + broadcast
/// assert_eq!(s.traffic().word_ops, 1);
/// ```
#[derive(Debug)]
pub struct SnoopySystem {
    line_bytes: u64,
    timings: MemTimings,
    /// line → set of caches holding it.
    holders: HashMap<u64, HashSet<usize>>,
    processors: usize,
    stats: TrafficStats,
}

impl SnoopySystem {
    /// Creates a system of `processors` caches with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two ≥ 4 and
    /// `processors > 0`.
    pub fn new(processors: usize, line_bytes: u64) -> Self {
        assert!(processors > 0, "need at least one processor");
        assert!(line_bytes >= 4 && line_bytes.is_power_of_two(), "bad line size");
        SnoopySystem {
            line_bytes,
            timings: MemTimings::default(),
            holders: HashMap::new(),
            processors,
            stats: TrafficStats::default(),
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    fn line_fill_time(&self) -> Nanos {
        self.timings.block_transfer(self.line_bytes / 4)
    }
}

impl CoherenceModel for SnoopySystem {
    fn access(&mut self, a: Access) {
        assert!(a.cpu < self.processors, "processor out of range");
        self.stats.accesses += 1;
        let line = self.line_of(a.addr);
        let holders = self.holders.entry(line).or_default();
        if !holders.contains(&a.cpu) {
            // Line fill from memory.
            holders.insert(a.cpu);
            self.stats.block_transfers += 1;
            let t = self.line_fill_time();
            self.stats.bus_time += t;
        }
        if a.write && self.holders[&line].len() > 1 {
            // Write broadcast: one word on the bus, snooped by the other
            // holders, which update in place.
            self.stats.word_ops += 1;
            self.stats.bus_time += self.timings.first_word;
        }
    }

    fn traffic(&self) -> &TrafficStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_data_costs_one_fill() {
        let mut s = SnoopySystem::new(2, 16);
        for i in 0..100 {
            s.access(Access { cpu: 0, addr: i % 16, write: i % 2 == 0 });
        }
        let t = s.traffic();
        assert_eq!(t.block_transfers, 1);
        assert_eq!(t.word_ops, 0, "unshared writes broadcast nothing");
    }

    #[test]
    fn every_shared_write_broadcasts() {
        let mut s = SnoopySystem::new(2, 16);
        s.access(Access { cpu: 0, addr: 0, write: false });
        s.access(Access { cpu: 1, addr: 0, write: false });
        let fills = s.traffic().block_transfers;
        for _ in 0..50 {
            s.access(Access { cpu: 0, addr: 4, write: true });
        }
        let t = s.traffic();
        assert_eq!(t.block_transfers, fills, "no further fills");
        assert_eq!(t.word_ops, 50, "one broadcast per shared write");
    }

    #[test]
    fn line_granularity() {
        let mut s = SnoopySystem::new(1, 16);
        s.access(Access { cpu: 0, addr: 0, write: false });
        s.access(Access { cpu: 0, addr: 15, write: false }); // same line
        s.access(Access { cpu: 0, addr: 16, write: false }); // next line
        assert_eq!(s.traffic().block_transfers, 2);
    }

    #[test]
    #[should_panic(expected = "bad line size")]
    fn rejects_bad_line() {
        let _ = SnoopySystem::new(1, 10);
    }
}

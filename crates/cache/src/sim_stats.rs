//! Statistics gathered by trace-driven cache simulation.

use core::fmt;

/// Counters for a trace-driven cache-simulation run (Figure 4 of the
/// paper, and the §5.2 observation that OS references are ≈25 % of
/// references but ≈50 % of misses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSimStats {
    /// Total references simulated.
    pub refs: u64,
    /// Total misses.
    pub misses: u64,
    /// References made in supervisor mode.
    pub supervisor_refs: u64,
    /// Misses on supervisor-mode references.
    pub supervisor_misses: u64,
    /// Misses whose replacement victim was modified (needed write-back).
    pub dirty_evictions: u64,
    /// Misses that replaced a valid (but clean) page.
    pub clean_evictions: u64,
    /// Misses that filled a previously invalid slot (cold fills).
    pub cold_fills: u64,
    /// Writes that hit a clean page (transition clean → modified).
    pub write_hits_clean: u64,
}

impl CacheSimStats {
    /// Overall miss ratio (0 when no references were simulated).
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.misses, self.refs)
    }

    /// Fraction of all misses attributable to supervisor references.
    pub fn supervisor_miss_share(&self) -> f64 {
        ratio(self.supervisor_misses, self.misses)
    }

    /// Fraction of replacement victims that were *not* modified.
    ///
    /// The paper's Table 2 assumes 75 % of replaced pages are unmodified;
    /// this counter lets simulation check that mix. Cold fills (no victim)
    /// are excluded.
    pub fn clean_replacement_fraction(&self) -> f64 {
        ratio(self.clean_evictions, self.clean_evictions + self.dirty_evictions)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for CacheSimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs={} misses={} ({:.3}%) sup-share={:.1}% clean-repl={:.1}%",
            self.refs,
            self.misses,
            100.0 * self.miss_ratio(),
            100.0 * self.supervisor_miss_share(),
            100.0 * self.clean_replacement_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = CacheSimStats {
            refs: 1000,
            misses: 10,
            supervisor_refs: 250,
            supervisor_misses: 5,
            dirty_evictions: 2,
            clean_evictions: 6,
            cold_fills: 2,
            write_hits_clean: 7,
        };
        assert!((s.miss_ratio() - 0.01).abs() < 1e-12);
        assert!((s.supervisor_miss_share() - 0.5).abs() < 1e-12);
        assert!((s.clean_replacement_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_is_all_zero() {
        let s = CacheSimStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.supervisor_miss_share(), 0.0);
        assert_eq!(s.clean_replacement_fraction(), 0.0);
        assert!(!s.to_string().is_empty());
    }
}

//! Migratory-sharing cost model (§3.3's worst case, §5.4's warning).
//!
//! When several processors take turns writing one cache page — a lock
//! word, a shared counter — every turn migrates ownership: the previous
//! owner's write-back plus the new owner's read-private, ≈2 block
//! transfers of bus time and one abort/retry of latency. Spread over
//! many accesses per turn that is cheap; at one access per turn it is
//! the "enormous consistency overhead" of test-and-set spinning.

use vmp_mem::MemTimings;
use vmp_types::{Nanos, PageSize};

use crate::MissCostModel;

/// Per-turn costs of migratory sharing of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCost {
    /// Bus occupancy per ownership migration (write-back + read-private).
    pub bus: Nanos,
    /// Latency the new owner pays before its first access completes
    /// (one aborted attempt, the owner's flush, the successful fetch).
    pub latency: Nanos,
}

/// Cost model for a page whose ownership migrates between processors.
#[derive(Debug, Clone, Copy)]
pub struct MigratorySharing {
    page: PageSize,
    mem: MemTimings,
    miss: MissCostModel,
}

impl MigratorySharing {
    /// Builds the model from the paper's constants for `page`.
    pub fn paper(page: PageSize) -> Self {
        MigratorySharing { page, mem: MemTimings::default(), miss: MissCostModel::paper(page) }
    }

    /// Cost of one ownership migration.
    pub fn migration(&self) -> MigrationCost {
        let transfer = self.mem.page_transfer(self.page);
        MigrationCost {
            bus: transfer * 2,
            // One full (dirty-victim-free) miss plus the abort round trip
            // while the old owner flushes.
            latency: self.miss.elapsed(false) + self.miss.elapsed(true) / 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_costs_two_transfers_on_bus() {
        let m = MigratorySharing::paper(PageSize::S256).migration();
        assert_eq!(m.bus, Nanos::from_ns(2 * 6_600));
        assert!(m.latency > Nanos::from_us(20));
    }

    #[test]
    fn larger_pages_migrate_dearer() {
        let small = MigratorySharing::paper(PageSize::S128).migration();
        let large = MigratorySharing::paper(PageSize::S512).migration();
        assert!(large.bus > small.bus);
        assert!(large.latency > small.latency);
    }
}

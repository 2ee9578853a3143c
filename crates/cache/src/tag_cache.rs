//! Fast tag-only cache simulator for trace-driven miss-ratio studies.

use vmp_trace::MemRef;

use crate::{CacheConfig, CacheSimStats, SlotFlags, Tag, TagArray};

/// Result of presenting one reference to a [`TagCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The reference hit in the cache.
    Hit,
    /// The reference missed; a page was loaded, possibly evicting another.
    Miss {
        /// The victim slot held a valid page that had been written.
        evicted_modified: bool,
        /// The victim slot held a valid (clean or dirty) page.
        evicted_valid: bool,
    },
}

impl AccessOutcome {
    /// Returns `true` on a hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Tags-only cache simulator: replays a reference trace against the VMP
/// cache geometry and accumulates [`CacheSimStats`].
///
/// This is the uniprocessor, cold-start simulation the paper uses for
/// Figure 4 ("cold-start simulation results of a 4-way set associative
/// cache", §5.2). Writes use a write-back policy: they dirty the resident
/// page, and a replacement of a dirty page is recorded as requiring
/// write-back — feeding the Table 1/2 miss-cost mix.
///
/// # Examples
///
/// ```
/// use vmp_cache::{CacheConfig, TagCache};
/// use vmp_trace::MemRef;
/// use vmp_types::{Asid, PageSize, VirtAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = TagCache::new(CacheConfig::new(PageSize::S256, 4, 64 * 1024)?);
/// for i in 0..1000u64 {
///     c.access(MemRef::read(Asid::new(1), VirtAddr::new(i * 4)));
/// }
/// // 1000 sequential word reads touch ~16 pages of 256 B.
/// assert!(c.stats().miss_ratio() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TagCache {
    tags: TagArray,
    stats: CacheSimStats,
}

impl TagCache {
    /// Creates an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        TagCache { tags: TagArray::new(config), stats: CacheSimStats::default() }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        self.tags.config()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheSimStats {
        &self.stats
    }

    /// Presents one reference; updates tags, LRU and statistics.
    pub fn access(&mut self, r: MemRef) -> AccessOutcome {
        let supervisor = r.privilege.is_supervisor();
        self.stats.refs += 1;
        self.stats.supervisor_refs += u64::from(supervisor);
        if let Some(id) = self.tags.lookup(r.asid, r.addr) {
            // A write dirties the page; counted without a branch on the
            // reference kind, which the trace mixes unpredictably.
            let write = r.kind.is_write();
            let mut f = self.tags.flags(id);
            self.stats.write_hits_clean += u64::from(write & !f.modified);
            f.modified |= write;
            self.tags.set_flags(id, f);
            return AccessOutcome::Hit;
        }
        // Miss: load the page into the hardware-suggested victim slot.
        self.stats.misses += 1;
        if supervisor {
            self.stats.supervisor_misses += 1;
        }
        let victim = self.tags.victim_for(r.asid, r.addr);
        let (evicted_valid, evicted_modified) = match victim.evicted {
            Some(_) => {
                if victim.modified {
                    self.stats.dirty_evictions += 1;
                } else {
                    self.stats.clean_evictions += 1;
                }
                (true, victim.modified)
            }
            None => {
                self.stats.cold_fills += 1;
                (false, false)
            }
        };
        let mut flags = SlotFlags::shared_clean();
        if r.kind.is_write() {
            flags.modified = true;
            flags.user_write = true;
        }
        let vpn = self.config().page_size().vpn_of(r.addr);
        self.tags.install(victim.slot, Tag::new(r.asid, vpn), flags);
        AccessOutcome::Miss { evicted_modified, evicted_valid }
    }

    /// Invalidates every slot while keeping the accumulated statistics —
    /// what a cache without ASID tags must do on context switch (§2
    /// footnote 1), and the primitive behind the flush-on-switch
    /// ablation.
    pub fn flush(&mut self) {
        self.tags.invalidate_all();
    }

    /// Replays an entire reference stream, returning the final statistics.
    pub fn run<I: IntoIterator<Item = MemRef>>(&mut self, refs: I) -> CacheSimStats {
        for r in refs {
            self.access(r);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};
    use vmp_types::{Asid, PageSize, VirtAddr};

    fn cache(page: PageSize, assoc: usize, kb: u64) -> TagCache {
        TagCache::new(CacheConfig::new(page, assoc, kb * 1024).unwrap())
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = cache(PageSize::S128, 4, 64);
        let r = MemRef::read(Asid::new(1), VirtAddr::new(0x42));
        assert!(!c.access(r).is_hit());
        for _ in 0..100 {
            assert!(c.access(r).is_hit());
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().refs, 101);
        assert_eq!(c.stats().cold_fills, 1);
    }

    #[test]
    fn same_page_different_word_hits() {
        let mut c = cache(PageSize::S256, 4, 64);
        c.access(MemRef::read(Asid::new(1), VirtAddr::new(0x100)));
        assert!(c.access(MemRef::read(Asid::new(1), VirtAddr::new(0x1fc))).is_hit());
        assert!(!c.access(MemRef::read(Asid::new(1), VirtAddr::new(0x200))).is_hit());
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        // Direct-mapped single-set cache of one page for forced eviction.
        let mut c = TagCache::new(CacheConfig::new(PageSize::S128, 1, 128).unwrap());
        c.access(MemRef::write(Asid::new(1), VirtAddr::new(0)));
        let out = c.access(MemRef::read(Asid::new(1), VirtAddr::new(0x80)));
        assert_eq!(out, AccessOutcome::Miss { evicted_modified: true, evicted_valid: true });
        assert_eq!(c.stats().dirty_evictions, 1);
        // Evicting the now-clean page reports clean.
        let out = c.access(MemRef::read(Asid::new(1), VirtAddr::new(0x100)));
        assert_eq!(out, AccessOutcome::Miss { evicted_modified: false, evicted_valid: true });
        assert_eq!(c.stats().clean_evictions, 1);
    }

    #[test]
    fn write_hit_on_clean_counted_once() {
        let mut c = cache(PageSize::S128, 4, 64);
        c.access(MemRef::read(Asid::new(1), VirtAddr::new(0)));
        c.access(MemRef::write(Asid::new(1), VirtAddr::new(4)));
        c.access(MemRef::write(Asid::new(1), VirtAddr::new(8)));
        assert_eq!(c.stats().write_hits_clean, 1);
    }

    #[test]
    fn asid_keeps_spaces_separate() {
        let mut c = cache(PageSize::S256, 4, 64);
        c.access(MemRef::read(Asid::new(1), VirtAddr::new(0)));
        assert!(!c.access(MemRef::read(Asid::new(2), VirtAddr::new(0))).is_hit());
        assert!(c.access(MemRef::read(Asid::new(1), VirtAddr::new(0))).is_hit());
    }

    #[test]
    fn capacity_working_set_fits_no_misses_after_warmup() {
        let mut c = cache(PageSize::S256, 4, 64);
        let pages = 64 * 1024 / 256; // exactly capacity
        for round in 0..3 {
            for p in 0..pages {
                c.access(MemRef::read(Asid::new(1), VirtAddr::new(p * 256)));
            }
            if round == 0 {
                assert_eq!(c.stats().misses, pages);
            }
        }
        // LRU + sequential sweep at exact capacity: all rounds hit after warmup.
        assert_eq!(c.stats().misses, pages);
    }

    #[test]
    fn thrashing_beyond_capacity_misses() {
        let mut c = TagCache::new(CacheConfig::new(PageSize::S128, 1, 128).unwrap());
        // Two pages mapping to the same single slot: always miss.
        for _ in 0..10 {
            assert!(!c.access(MemRef::read(Asid::new(1), VirtAddr::new(0))).is_hit());
            assert!(!c.access(MemRef::read(Asid::new(1), VirtAddr::new(0x80))).is_hit());
        }
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = cache(PageSize::S128, 4, 64);
        let r = MemRef::read(Asid::new(1), VirtAddr::new(0));
        c.access(r);
        assert!(c.access(r).is_hit());
        c.flush();
        assert!(!c.access(r).is_hit(), "flushed entry must miss");
        assert_eq!(c.stats().refs, 3);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn run_consumes_iterator() {
        let mut c = cache(PageSize::S256, 4, 64);
        let refs: Vec<MemRef> =
            (0..100).map(|i| MemRef::read(Asid::new(1), VirtAddr::new(i * 8))).collect();
        let stats = c.run(refs);
        assert_eq!(stats.refs, 100);
        assert!(stats.misses >= 1);
    }

    /// Reference model: per-set LRU list of ⟨asid, vpn⟩ keys, each with
    /// the dirty bit a write sets, and the statistics the simulator keeps.
    struct LruModel {
        page: PageSize,
        sets: usize,
        assoc: usize,
        lists: HashMap<usize, VecDeque<(u8, u64, bool)>>,
        stats: CacheSimStats,
    }

    impl LruModel {
        fn new(page: PageSize, assoc: usize, total: u64) -> Self {
            let sets = (total / (page.bytes() * assoc as u64)) as usize;
            LruModel { page, sets, assoc, lists: HashMap::new(), stats: CacheSimStats::default() }
        }

        /// Returns true on hit.
        fn access(&mut self, asid: u8, addr: u64, write: bool) -> bool {
            self.stats.refs += 1;
            let vpn = self.page.page_of(addr);
            let set = (vpn as usize) & (self.sets - 1);
            let list = self.lists.entry(set).or_default();
            if let Some(pos) = list.iter().position(|&(a, v, _)| (a, v) == (asid, vpn)) {
                let (_, _, dirty) = list.remove(pos).expect("position is in range");
                if write && !dirty {
                    self.stats.write_hits_clean += 1;
                }
                list.push_front((asid, vpn, dirty || write));
                true
            } else {
                self.stats.misses += 1;
                if list.len() == self.assoc {
                    match list.pop_back() {
                        Some((_, _, true)) => self.stats.dirty_evictions += 1,
                        _ => self.stats.clean_evictions += 1,
                    }
                } else {
                    self.stats.cold_fills += 1;
                }
                list.push_front((asid, vpn, write));
                false
            }
        }

        fn flush(&mut self) {
            self.lists.clear();
        }
    }

    /// Bases of the address regions the reference-model test draws from:
    /// low memory, both sides of VPN 2^56 − 1 (the first page number that
    /// no longer fits beside an 8-bit ASID in a 64-bit slot key), page
    /// numbers far past it, and the top of the address space.
    fn region_base(page: PageSize, region: usize) -> u64 {
        let vpn = match region {
            0 => 0,
            1 => (1 << 56) - 6,
            2 => 1 << 56,
            3 => 1 << 60,
            _ => u64::MAX >> page.offset_bits(),
        };
        // A few pages below the region's page number, so the pages drawn
        // straddle it.
        vpn.saturating_sub(4) << page.offset_bits()
    }

    proptest::proptest! {
        /// The tag cache must agree hit-for-hit and counter-for-counter
        /// with a straightforward per-set LRU model on arbitrary reads,
        /// writes and flushes, at every associativity up to 8 and for
        /// page numbers across the whole address space, including the
        /// same page under several ASIDs in one set.
        #[test]
        fn matches_lru_reference_model(
            ops in proptest::collection::vec(
                (0u8..20, 0usize..4, 0usize..5, 0u64..24),
                1..600,
            ),
            assoc in 1usize..=8,
            tiny_pages in proptest::prelude::any::<bool>(),
        ) {
            let page = if tiny_pages { PageSize::new(4).unwrap() } else { PageSize::S128 };
            let total = (page.bytes() * assoc as u64) * 4; // 4 sets
            let mut sim = TagCache::new(CacheConfig::new(page, assoc, total).unwrap());
            let mut model = LruModel::new(page, assoc, total);
            for &(op, asid, region, p) in &ops {
                let asid = [0u8, 1, 2, 255][asid];
                if op == 0 {
                    sim.flush();
                    model.flush();
                    continue;
                }
                let write = op % 3 == 0;
                let addr = region_base(page, region)
                    .wrapping_add(p * page.bytes())
                    .wrapping_add(p % page.bytes());
                let (a, va) = (Asid::new(asid), VirtAddr::new(addr));
                let r = if write { MemRef::write(a, va) } else { MemRef::read(a, va) };
                let got = sim.access(r).is_hit();
                let want = model.access(asid, addr, write);
                proptest::prop_assert_eq!(got, want, "divergence at {:?}", (asid, addr, write));
                proptest::prop_assert_eq!(*sim.stats(), model.stats);
            }
        }

        /// Miss count is monotonically non-increasing in associativity for
        /// a fixed number of sets... not true in general (Belady), but
        /// refs+misses bookkeeping must always balance.
        #[test]
        fn stats_balance(
            refs in proptest::collection::vec((0u8..2, 0u64..4096), 1..400),
        ) {
            let mut sim = cache(PageSize::S128, 2, 64);
            for &(asid, addr) in &refs {
                sim.access(MemRef::read(Asid::new(asid), VirtAddr::new(addr)));
            }
            let s = *sim.stats();
            proptest::prop_assert_eq!(s.refs, refs.len() as u64);
            proptest::prop_assert_eq!(
                s.misses,
                s.cold_fills + s.clean_evictions + s.dirty_evictions
            );
            proptest::prop_assert!(s.misses <= s.refs);
        }
    }
}

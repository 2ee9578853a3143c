//! Byte-accurate cache for the full machine model.

use vmp_types::{Asid, VirtAddr};

use crate::{CacheConfig, SlotFlags, SlotId, Tag, TagArray, Victim};

/// A cache that holds real page contents alongside its tags.
///
/// The full VMP machine model moves actual bytes through block transfers
/// so that the consistency protocol's correctness is *observable*: an
/// integration test can assert that every read returns the value written
/// by the most recent protocol-ordered write. The tag/flag/LRU behaviour
/// is identical to [`crate::TagCache`].
///
/// Writes through [`DataCache::write`] set the slot's `modified` flag, as
/// the cache controller hardware does; all other flag transitions are the
/// software cache manager's job, as in the real machine.
///
/// # Examples
///
/// ```
/// use vmp_cache::{CacheConfig, DataCache, SlotFlags, Tag};
/// use vmp_types::{Asid, PageSize, VirtAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = CacheConfig::new(PageSize::S128, 2, 4096)?;
/// let mut cache = DataCache::new(config);
/// let asid = Asid::new(1);
/// let va = VirtAddr::new(0x100);
/// let victim = cache.victim_for(asid, va);
/// let tag = Tag::new(asid, PageSize::S128.vpn_of(va));
/// cache.install(victim.slot, tag, SlotFlags::private_page(), vec![0; 128]);
/// let slot = cache.lookup(asid, va).expect("resident");
/// cache.write(slot, 4, &[1, 2, 3, 4]);
/// assert_eq!(cache.read(slot, 4, 4), &[1, 2, 3, 4]);
/// assert!(cache.flags(slot).modified);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DataCache {
    tags: TagArray,
    /// Every slot's page, slot `i` at `i·page .. (i+1)·page`: one flat
    /// arena, so filling, writing back or invalidating a slot copies
    /// bytes in place and never allocates.
    data: Vec<u8>,
    page: usize,
}

impl DataCache {
    /// Creates an empty cache with zeroed slot buffers.
    pub fn new(config: CacheConfig) -> Self {
        let page = config.page_size().bytes() as usize;
        let data = vec![0u8; page * config.total_slots()];
        DataCache { tags: TagArray::new(config), data, page }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        self.tags.config()
    }

    /// The arena range of `len` bytes at `offset` within a slot's page.
    fn range(&self, id: SlotId, offset: usize, len: usize) -> std::ops::Range<usize> {
        assert!(offset + len <= self.page, "access crosses the cache page");
        let base = (id.set * self.config().associativity() + id.way) * self.page;
        base + offset..base + offset + len
    }

    /// Copies exactly one page into a slot.
    fn fill(&mut self, id: SlotId, bytes: &[u8], what: &str) {
        assert_eq!(bytes.len(), self.page, "{what} requires exactly one cache page of data");
        let r = self.range(id, 0, self.page);
        self.data[r].copy_from_slice(bytes);
    }

    /// Looks up ⟨`asid`, `va`⟩, updating LRU on a hit.
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<SlotId> {
        self.tags.lookup(asid, va)
    }

    /// Looks up without disturbing LRU state.
    pub fn probe(&self, asid: Asid, va: VirtAddr) -> Option<SlotId> {
        self.tags.probe(asid, va)
    }

    /// The hardware-suggested victim slot for a missing page.
    pub fn victim_for(&self, asid: Asid, va: VirtAddr) -> Victim {
        self.tags.victim_for(asid, va)
    }

    /// Installs a page: tag, flags and a copy of exactly one page of
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one cache page long.
    pub fn install(&mut self, id: SlotId, tag: Tag, flags: SlotFlags, bytes: impl AsRef<[u8]>) {
        self.fill(id, bytes.as_ref(), "install");
        self.tags.install(id, tag, flags);
    }

    /// Invalidates a slot, returning its tag and flags if it was valid.
    /// The page is zeroed for the next occupant, so a caller writing back
    /// a modified page copies it out through [`DataCache::read`] first.
    pub fn invalidate(&mut self, id: SlotId) -> Option<(Tag, SlotFlags)> {
        let flags = self.tags.flags(id);
        let tag = self.tags.invalidate(id)?;
        let r = self.range(id, 0, self.page);
        self.data[r].fill(0);
        Some((tag, flags))
    }

    /// Reads `len` bytes at `offset` within a slot's page.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn read(&self, id: SlotId, offset: usize, len: usize) -> &[u8] {
        &self.data[self.range(id, offset, len)]
    }

    /// Writes bytes at `offset` within a slot's page and sets `modified`,
    /// as the cache hardware does on a write hit.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn write(&mut self, id: SlotId, offset: usize, bytes: &[u8]) {
        let r = self.range(id, offset, bytes.len());
        self.data[r].copy_from_slice(bytes);
        let mut f = self.tags.flags(id);
        f.modified = true;
        self.tags.set_flags(id, f);
    }

    /// Returns the flags of a slot.
    pub fn flags(&self, id: SlotId) -> SlotFlags {
        self.tags.flags(id)
    }

    /// Replaces the flags of a slot.
    pub fn set_flags(&mut self, id: SlotId, flags: SlotFlags) {
        self.tags.set_flags(id, flags);
    }

    /// Returns the tag of a valid slot.
    pub fn tag(&self, id: SlotId) -> Option<Tag> {
        self.tags.tag(id)
    }

    /// Iterates over all valid slots.
    pub fn iter_valid(&self) -> impl Iterator<Item = (SlotId, Tag, SlotFlags)> + '_ {
        self.tags.iter_valid()
    }

    /// Number of valid slots.
    pub fn valid_count(&self) -> usize {
        self.tags.valid_count()
    }

    /// The LRU clock, for checkpointing (see [`TagArray::clock`]).
    pub fn clock(&self) -> u64 {
        self.tags.clock()
    }

    /// The LRU timestamp of a slot (see [`TagArray::last_use`]).
    pub fn last_use(&self, id: SlotId) -> u64 {
        self.tags.last_use(id)
    }

    /// Restores one slot verbatim — tag, flags, LRU timestamp and a copy
    /// of the page bytes — without bumping the LRU clock (see
    /// [`TagArray::restore_slot`]).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one cache page long.
    pub fn restore_slot(
        &mut self,
        id: SlotId,
        tag: Tag,
        flags: SlotFlags,
        last_use: u64,
        bytes: impl AsRef<[u8]>,
    ) {
        self.fill(id, bytes.as_ref(), "restore");
        self.tags.restore_slot(id, tag, flags, last_use);
    }

    /// Restores the LRU clock (see [`TagArray::restore_clock`]).
    pub fn restore_clock(&mut self, clock: u64) {
        self.tags.restore_clock(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_types::PageSize;

    fn setup() -> (DataCache, Asid, VirtAddr, SlotId) {
        let config = CacheConfig::new(PageSize::S128, 2, 1024).unwrap();
        let mut c = DataCache::new(config);
        let asid = Asid::new(1);
        let va = VirtAddr::new(0x200);
        let v = c.victim_for(asid, va);
        let tag = Tag::new(asid, PageSize::S128.vpn_of(va));
        c.install(
            v.slot,
            tag,
            SlotFlags::shared_clean(),
            (0..128).map(|i| i as u8).collect::<Vec<u8>>(),
        );
        (c, asid, va, v.slot)
    }

    #[test]
    fn install_then_read() {
        let (mut c, asid, va, slot) = setup();
        assert_eq!(c.lookup(asid, va), Some(slot));
        assert_eq!(c.read(slot, 0, 4), &[0, 1, 2, 3]);
        assert_eq!(c.read(slot, 124, 4), &[124, 125, 126, 127]);
    }

    #[test]
    fn write_sets_modified() {
        let (mut c, _, _, slot) = setup();
        assert!(!c.flags(slot).modified);
        c.write(slot, 8, &[0xaa, 0xbb]);
        assert!(c.flags(slot).modified);
        assert_eq!(c.read(slot, 8, 2), &[0xaa, 0xbb]);
        assert_eq!(c.read(slot, 10, 1), &[10]); // neighbours untouched
    }

    #[test]
    fn invalidate_returns_contents() {
        let (mut c, asid, va, slot) = setup();
        c.write(slot, 0, &[9]);
        // The page's bytes, read before invalidation (a write-back's copy).
        assert_eq!(c.read(slot, 0, 1), &[9]);
        assert_eq!(c.read(slot, 1, 127), (1..128).map(|i| i as u8).collect::<Vec<u8>>());
        let (tag, flags) = c.invalidate(slot).unwrap();
        assert_eq!(tag.asid, asid);
        assert!(flags.modified);
        assert!(c.lookup(asid, va).is_none());
        assert!(c.invalidate(slot).is_none());
        // Buffer is zeroed for the next occupant.
        assert_eq!(c.read(slot, 0, 128), &[0; 128]);
    }

    #[test]
    fn arena_slots_are_disjoint() {
        let config = CacheConfig::new(PageSize::S128, 2, 1024).unwrap();
        let mut c = DataCache::new(config);
        let asid = Asid::new(1);
        let slots: Vec<SlotId> =
            (0..config.total_slots()).map(|i| SlotId { set: i / 2, way: i % 2 }).collect();
        for (i, &id) in slots.iter().enumerate() {
            // The page number that maps to this slot's set.
            let va = VirtAddr::new((id.set + id.way * config.sets()) as u64 * 128);
            let tag = Tag::new(asid, PageSize::S128.vpn_of(va));
            // Both a borrowed slice and an owned page are accepted.
            if i % 2 == 0 {
                c.restore_slot(id, tag, SlotFlags::shared_clean(), 0, &[i as u8; 128][..]);
            } else {
                c.restore_slot(id, tag, SlotFlags::shared_clean(), 0, vec![i as u8; 128]);
            }
        }
        let (mid, last) = (slots[3], slots[slots.len() - 1]);
        c.write(mid, 0, &[0xee; 128]);
        c.write(last, 124, &[0xdd; 4]);
        for (i, &id) in slots.iter().enumerate() {
            let page = c.read(id, 0, 128);
            if id == mid {
                assert_eq!(page, &[0xee; 128]);
            } else if id == last {
                assert_eq!(&page[..124], &[i as u8; 124]);
                assert_eq!(&page[124..], &[0xdd; 4]);
            } else {
                assert_eq!(page, &[i as u8; 128], "slot {i} disturbed by a neighbour");
            }
        }
        c.invalidate(mid);
        assert_eq!(c.read(slots[2], 0, 128), &[2; 128]);
        assert_eq!(c.read(slots[4], 0, 128), &[4; 128]);
    }

    #[test]
    #[should_panic(expected = "crosses the cache page")]
    fn read_past_the_page_panics() {
        let (c, _, _, slot) = setup();
        c.read(slot, 126, 4);
    }

    #[test]
    #[should_panic(expected = "exactly one cache page")]
    fn install_rejects_wrong_size() {
        let (mut c, asid, _, _) = setup();
        let va = VirtAddr::new(0x400);
        let v = c.victim_for(asid, va);
        let tag = Tag::new(asid, PageSize::S128.vpn_of(va));
        c.install(v.slot, tag, SlotFlags::shared_clean(), vec![0; 64]);
    }

    #[test]
    fn valid_count_and_iter() {
        let (c, _, _, _) = setup();
        assert_eq!(c.valid_count(), 1);
        assert_eq!(c.iter_valid().count(), 1);
    }
}

//! The tag/flag array shared by both cache front-ends.

use core::fmt;
use std::collections::BTreeMap;

use vmp_types::{Asid, VirtAddr, VirtPageNum};

use crate::{CacheConfig, SlotFlags};

/// A cache tag: the ⟨ASID, virtual page⟩ pair a slot matches on.
///
/// Because the tag includes the full virtual page number, the same
/// physical frame mapped at two virtual addresses occupies two distinct
/// slots — the *alias* situation whose consistency the bus monitor
/// resolves (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Address space of the cached page.
    pub asid: Asid,
    /// Virtual page number of the cached page.
    pub vpn: VirtPageNum,
}

impl Tag {
    /// Creates a tag.
    pub const fn new(asid: Asid, vpn: VirtPageNum) -> Self {
        Tag { asid, vpn }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.asid, self.vpn)
    }
}

/// Identifies one cache slot by set and way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    /// Set index.
    pub set: usize,
    /// Way within the set.
    pub way: usize,
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot[{},{}]", self.set, self.way)
    }
}

/// The hardware's suggested replacement victim for a missing page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The slot to replace.
    pub slot: SlotId,
    /// Tag currently in the slot, if the slot is valid.
    pub evicted: Option<Tag>,
    /// Whether the current occupant is modified (needs write-back).
    pub modified: bool,
}

/// The key of an empty slot. No tag packs to it.
const EMPTY: u64 = u64::MAX;
/// The key of a valid slot whose page number is too wide to pack; the
/// slot's tag is kept whole in [`TagArray::wide`].
const WIDE: u64 = u64::MAX - 1;
/// Page numbers below this pack with their 8-bit ASID into a key below
/// [`WIDE`]. With 4-byte pages a 64-bit address has 62 page-number bits,
/// so the rest take the cold path.
const PACKED_VPNS: u64 = (1 << 56) - 1;

/// The comparable key of a tag: `vpn << 8 | asid` when it fits, else
/// [`WIDE`].
#[inline]
fn key_of(tag: Tag) -> u64 {
    let vpn = tag.vpn.raw();
    if vpn < PACKED_VPNS {
        vpn << 8 | u64::from(tag.asid.raw())
    } else {
        WIDE
    }
}

/// The flags and LRU timestamp of one slot, read and written together on
/// a hit.
#[derive(Debug, Clone, Copy)]
struct Meta {
    last_use: u64,
    flags: SlotFlags,
}

/// The tag, flag and LRU state of every cache slot.
///
/// Mirrors what the VMP cache controller implements in hardware: tag
/// match on ⟨ASID, VA⟩, per-slot flag word, and an LRU-based *suggested*
/// victim on miss (paper §4). All mutation of flags and tags is performed
/// by the (software) caller, as in the real machine.
///
/// Each slot holds one `u64` key packing ⟨VPN, ASID⟩, and a set is
/// matched like the hardware's parallel comparators: every way's equality
/// is ORed into a bit mask, without an early exit, and the lowest set bit
/// names the way. A slot is valid exactly when its key is not the empty
/// key. A page number too wide to pack (2^56 − 1 and above, reachable only
/// with pages under 256 bytes) keys as a reserved wide key and its tag is
/// matched whole on a cold path, so every tag matches exactly.
///
/// # Examples
///
/// ```
/// use vmp_cache::{CacheConfig, SlotFlags, Tag, TagArray};
/// use vmp_types::{Asid, PageSize, VirtAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tags = TagArray::new(CacheConfig::new(PageSize::S128, 2, 4096)?);
/// let va = VirtAddr::new(0x80);
/// assert!(tags.lookup(Asid::new(1), va).is_none());
/// let victim = tags.victim_for(Asid::new(1), va);
/// tags.install(victim.slot, Tag::new(Asid::new(1), PageSize::S128.vpn_of(va)),
///              SlotFlags::shared_clean());
/// assert!(tags.lookup(Asid::new(1), va).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    config: CacheConfig,
    /// Slot `set · ways + way`'s key: [`key_of`] its tag, or [`EMPTY`].
    keys: Vec<u64>,
    /// Slot `set · ways + way`'s flags and LRU timestamp.
    meta: Vec<Meta>,
    /// The tags of the slots keyed [`WIDE`], by slot index.
    wide: BTreeMap<usize, Tag>,
    clock: u64,
}

impl TagArray {
    /// Creates an empty (all-invalid) tag array.
    pub fn new(config: CacheConfig) -> Self {
        let slots = config.total_slots();
        TagArray {
            config,
            keys: vec![EMPTY; slots],
            meta: vec![Meta { last_use: 0, flags: SlotFlags::invalid() }; slots],
            wide: BTreeMap::new(),
            clock: 0,
        }
    }

    /// The geometry this array was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn idx(&self, id: SlotId) -> usize {
        debug_assert!(id.set < self.config.sets() && id.way < self.config.associativity());
        id.set * self.config.associativity() + id.way
    }

    /// The tag of slot index `i`, if the slot is valid.
    #[inline]
    fn tag_at(&self, i: usize) -> Option<Tag> {
        (self.keys[i] != EMPTY).then(|| self.valid_tag(i))
    }

    /// The tag of slot index `i`, which is valid.
    #[inline]
    fn valid_tag(&self, i: usize) -> Tag {
        match self.keys[i] {
            WIDE => self.wide_tag(i),
            key => Tag::new(Asid::new(key as u8), VirtPageNum::new(key >> 8)),
        }
    }

    #[cold]
    #[inline(never)]
    fn wide_tag(&self, i: usize) -> Tag {
        *self.wide.get(&i).expect("a slot keyed WIDE has its tag in `wide`")
    }

    /// Writes slot index `i`'s key and flags: `tag`'s key while the flags
    /// are valid, else the empty key.
    #[inline]
    fn write(&mut self, i: usize, tag: Tag, flags: SlotFlags) {
        let key = if flags.valid { key_of(tag) } else { EMPTY };
        if key == WIDE || self.keys[i] == WIDE {
            self.rekey_wide(i, (key == WIDE).then_some(tag));
        }
        self.keys[i] = key;
        self.meta[i].flags = flags;
    }

    /// Keeps [`TagArray::wide`] in step when slot index `i` takes a wide
    /// tag (`Some`) or loses one (`None`).
    #[cold]
    #[inline(never)]
    fn rekey_wide(&mut self, i: usize, tag: Option<Tag>) {
        match tag {
            Some(tag) => self.wide.insert(i, tag),
            None => self.wide.remove(&i),
        };
    }

    /// Looks up the slot holding `va` in address space `asid`, updating
    /// LRU state on a hit.
    #[inline(always)]
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<SlotId> {
        let id = self.probe(asid, va)?;
        self.touch(id);
        Some(id)
    }

    /// Looks up without disturbing LRU state (for inspection/validation).
    #[inline(always)]
    pub fn probe(&self, asid: Asid, va: VirtAddr) -> Option<SlotId> {
        let vpn = self.config.page_size().vpn_of(va);
        let set = self.config.set_of_vpn(vpn);
        let tag = Tag::new(asid, vpn);
        let assoc = self.config.associativity();
        let base = set * assoc;
        let key = key_of(tag);
        let way = if key == WIDE {
            self.match_wide(base, tag)
        } else {
            match_set(&self.keys[base..base + assoc], key)
        }?;
        Some(SlotId { set, way })
    }

    /// The lowest way of the set starting at slot index `base` that holds
    /// `tag`, a tag too wide to pack.
    #[cold]
    #[inline(never)]
    fn match_wide(&self, base: usize, tag: Tag) -> Option<usize> {
        (0..self.config.associativity())
            .find(|&w| self.keys[base + w] == WIDE && self.wide.get(&(base + w)) == Some(&tag))
    }

    /// Records a use of `id` for LRU purposes.
    #[inline]
    pub fn touch(&mut self, id: SlotId) {
        self.clock += 1;
        let i = self.idx(id);
        self.meta[i].last_use = self.clock;
    }

    /// The hardware-suggested victim for a miss on ⟨`asid`, `va`⟩:
    /// the lowest invalid way if one exists, otherwise the least recently
    /// used way of the set (the lowest such way on a tie).
    #[inline]
    pub fn victim_for(&self, asid: Asid, va: VirtAddr) -> Victim {
        let _ = asid;
        let set = self.config.set_of(va);
        let assoc = self.config.associativity();
        let base = set * assoc;
        let (keys, meta) = (&self.keys[base..base + assoc], &self.meta[base..base + assoc]);
        let mut way = 0;
        for (w, (&key, m)) in keys.iter().zip(meta).enumerate() {
            if key == EMPTY {
                return Victim { slot: SlotId { set, way: w }, evicted: None, modified: false };
            }
            if m.last_use < meta[way].last_use {
                way = w;
            }
        }
        let i = base + way;
        Victim {
            slot: SlotId { set, way },
            evicted: Some(self.valid_tag(i)),
            modified: self.meta[i].flags.modified,
        }
    }

    /// Installs `tag` with `flags` into `id`, returning the tag the slot
    /// held if it was valid.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the tag would not map to `id.set` or the
    /// same tag is already valid in another way of the set (a duplicate
    /// would make lookups ambiguous).
    #[inline]
    pub fn install(&mut self, id: SlotId, tag: Tag, flags: SlotFlags) -> Option<Tag> {
        debug_assert_eq!(self.config.set_of_vpn(tag.vpn), id.set, "tag must map to its set");
        #[cfg(debug_assertions)]
        for way in 0..self.config.associativity() {
            if way != id.way {
                let other = self.tag_at(self.idx(SlotId { set: id.set, way }));
                debug_assert!(other != Some(tag), "duplicate tag {tag} in set {}", id.set);
            }
        }
        self.clock += 1;
        let i = self.idx(id);
        let prev = self.tag_at(i);
        self.write(i, tag, flags);
        self.meta[i].last_use = self.clock;
        prev
    }

    /// Invalidates a slot, returning its previous tag if it was valid.
    #[inline]
    pub fn invalidate(&mut self, id: SlotId) -> Option<Tag> {
        let i = self.idx(id);
        let was = self.tag_at(i);
        if self.keys[i] == WIDE {
            self.rekey_wide(i, None);
        }
        self.keys[i] = EMPTY;
        self.meta[i].flags = SlotFlags::invalid();
        was
    }

    /// Returns the flags of a slot.
    #[inline]
    pub fn flags(&self, id: SlotId) -> SlotFlags {
        self.meta[self.idx(id)].flags
    }

    /// Replaces the flags of a slot. Validity changes only through
    /// [`TagArray::install`], [`TagArray::invalidate`] and their kin.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `flags.valid` differs from the slot's.
    #[inline]
    pub fn set_flags(&mut self, id: SlotId, flags: SlotFlags) {
        let i = self.idx(id);
        debug_assert_eq!(flags.valid, self.keys[i] != EMPTY, "set_flags must keep {id}'s validity");
        self.meta[i].flags = flags;
    }

    /// Iterates over all valid slots as `(SlotId, Tag, SlotFlags)`.
    pub fn iter_valid(&self) -> impl Iterator<Item = (SlotId, Tag, SlotFlags)> + '_ {
        let assoc = self.config.associativity();
        (0..self.keys.len()).filter_map(move |i| {
            let tag = self.tag_at(i)?;
            Some((SlotId { set: i / assoc, way: i % assoc }, tag, self.meta[i].flags))
        })
    }

    /// Number of valid slots.
    pub fn valid_count(&self) -> usize {
        self.keys.iter().filter(|&&k| k != EMPTY).count()
    }

    /// Invalidates every slot (not needed on context switch thanks to
    /// ASID tags; used for address-space teardown tests and resets).
    pub fn invalidate_all(&mut self) {
        self.keys.fill(EMPTY);
        self.wide.clear();
        for m in &mut self.meta {
            m.flags = SlotFlags::invalid();
        }
    }

    /// The LRU clock value, for checkpointing. Together with per-slot
    /// [`TagArray::last_use`] values this pins down future victim
    /// selection exactly.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The LRU timestamp of a slot (meaningful only while the slot is
    /// valid; victim selection never consults invalid slots).
    pub fn last_use(&self, id: SlotId) -> u64 {
        self.meta[self.idx(id)].last_use
    }

    /// Writes a slot's tag, flags and LRU timestamp verbatim, without
    /// bumping the clock the way [`TagArray::install`] does — checkpoint
    /// restore must reproduce the saved LRU ordering, not invent a new
    /// one. A slot restored with invalid flags is empty.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the tag would not map to `id.set`.
    pub fn restore_slot(&mut self, id: SlotId, tag: Tag, flags: SlotFlags, last_use: u64) {
        debug_assert_eq!(self.config.set_of_vpn(tag.vpn), id.set, "tag must map to its set");
        let i = self.idx(id);
        self.write(i, tag, flags);
        self.meta[i].last_use = last_use;
    }

    /// Restores the LRU clock captured by [`TagArray::clock`].
    pub fn restore_clock(&mut self, clock: u64) {
        self.clock = clock;
    }
}

/// The lowest way of a set whose key equals `key`. Every way is compared
/// and the results are folded into a bit mask, so which way matches never
/// steers a branch. The prototype's four ways (paper §4) are compared
/// inline at a width the compiler unrolls; other associativities go out
/// of line, so the hit path stays small enough to inline.
#[inline]
fn match_set(ways: &[u64], key: u64) -> Option<usize> {
    match <&[u64; 4]>::try_from(ways) {
        Ok(four) => lowest(hit_mask(four, key)),
        Err(_) => match_any_set(ways, key),
    }
}

/// [`match_set`] for any associativity, in runs of 64 ways.
#[inline(never)]
fn match_any_set(ways: &[u64], key: u64) -> Option<usize> {
    let mut runs = ways.chunks(64).enumerate();
    runs.find_map(|(c, run)| lowest(hit_mask(run, key)).map(|w| c * 64 + w))
}

/// Bit `w` set when way `w` of (at most 64) `ways` holds `key`.
#[inline(always)]
fn hit_mask(ways: &[u64], key: u64) -> u64 {
    ways.iter().enumerate().fold(0, |m, (w, &k)| m | u64::from(k == key) << w)
}

/// The index of the lowest set bit, if any.
#[inline(always)]
fn lowest(mask: u64) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_types::PageSize;

    fn small() -> TagArray {
        // 2 sets × 2 ways × 128 B pages.
        TagArray::new(CacheConfig::new(PageSize::S128, 2, 512).unwrap())
    }

    fn tag_for(arr: &TagArray, asid: u8, va: u64) -> Tag {
        Tag::new(Asid::new(asid), arr.config().page_size().vpn_of(VirtAddr::new(va)))
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut a = small();
        let va = VirtAddr::new(0x100);
        assert!(a.lookup(Asid::new(1), va).is_none());
        let v = a.victim_for(Asid::new(1), va);
        assert!(v.evicted.is_none());
        let t = tag_for(&a, 1, 0x100);
        a.install(v.slot, t, SlotFlags::shared_clean());
        let hit = a.lookup(Asid::new(1), va).unwrap();
        assert_eq!(hit, v.slot);
        assert_eq!(a.iter_valid().collect::<Vec<_>>(), [(hit, t, SlotFlags::shared_clean())]);
        assert_eq!(a.valid_count(), 1);
    }

    #[test]
    fn asid_disambiguates_identical_addresses() {
        let mut a = small();
        let va = VirtAddr::new(0x80);
        let v = a.victim_for(Asid::new(1), va);
        a.install(v.slot, tag_for(&a, 1, 0x80), SlotFlags::shared_clean());
        assert!(a.lookup(Asid::new(1), va).is_some());
        assert!(a.lookup(Asid::new(2), va).is_none());
    }

    #[test]
    fn victim_prefers_invalid_way() {
        let mut a = small();
        let v0 = a.victim_for(Asid::new(1), VirtAddr::new(0));
        a.install(v0.slot, tag_for(&a, 1, 0), SlotFlags::shared_clean());
        let v1 = a.victim_for(Asid::new(1), VirtAddr::new(0x100)); // same set (2 sets of 128B)
        assert_ne!(v0.slot, v1.slot);
        assert!(v1.evicted.is_none());
    }

    #[test]
    fn victim_is_lru_when_set_full() {
        let mut a = small();
        // Set 0 holds pages 0 and 2 (vpn % 2 == 0).
        let t0 = tag_for(&a, 1, 0);
        let t2 = tag_for(&a, 1, 0x100);
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0));
        a.install(v.slot, t0, SlotFlags::shared_clean());
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0x100));
        a.install(v.slot, t2, SlotFlags::shared_clean());
        // Touch t0 so t2 becomes LRU.
        a.lookup(Asid::new(1), VirtAddr::new(0)).unwrap();
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0x200));
        assert_eq!(v.evicted, Some(t2));
        // Touch order flipped: now t0 is LRU.
        a.lookup(Asid::new(1), VirtAddr::new(0x100)).unwrap();
        a.lookup(Asid::new(1), VirtAddr::new(0x100)).unwrap();
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0x200));
        assert_eq!(v.evicted, Some(t0));
    }

    #[test]
    fn victim_reports_modified() {
        let mut a = TagArray::new(CacheConfig::new(PageSize::S128, 1, 128).unwrap());
        let t = tag_for(&a, 1, 0);
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0));
        let mut flags = SlotFlags::private_page();
        flags.modified = true;
        a.install(v.slot, t, flags);
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0x80));
        assert_eq!(v.evicted, Some(t));
        assert!(v.modified);
    }

    #[test]
    fn invalidate_frees_slot() {
        let mut a = small();
        let va = VirtAddr::new(0);
        let v = a.victim_for(Asid::new(1), va);
        a.install(v.slot, tag_for(&a, 1, 0), SlotFlags::private_page());
        let t = a.invalidate(v.slot);
        assert_eq!(t, Some(tag_for(&a, 1, 0)));
        assert!(a.lookup(Asid::new(1), va).is_none());
        assert_eq!(a.invalidate(v.slot), None);
        assert_eq!(a.valid_count(), 0);
    }

    #[test]
    fn flags_roundtrip_and_iter() {
        let mut a = small();
        let v = a.victim_for(Asid::new(3), VirtAddr::new(0x80));
        a.install(v.slot, tag_for(&a, 3, 0x80), SlotFlags::shared_clean());
        let mut f = a.flags(v.slot);
        f.modified = true;
        a.set_flags(v.slot, f);
        assert!(a.flags(v.slot).modified);
        let all: Vec<_> = a.iter_valid().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, v.slot);
        a.invalidate_all();
        assert_eq!(a.iter_valid().count(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate tag")]
    fn install_rejects_duplicate_tag_in_set() {
        let mut a = small();
        let t = tag_for(&a, 1, 0);
        a.install(SlotId { set: 0, way: 0 }, t, SlotFlags::shared_clean());
        a.install(SlotId { set: 0, way: 1 }, t, SlotFlags::shared_clean());
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut a = small();
        let t0 = tag_for(&a, 1, 0);
        let t2 = tag_for(&a, 1, 0x100);
        a.install(SlotId { set: 0, way: 0 }, t0, SlotFlags::shared_clean());
        a.install(SlotId { set: 0, way: 1 }, t2, SlotFlags::shared_clean());
        // t0 is older. Probing it must not promote it.
        assert!(a.probe(Asid::new(1), VirtAddr::new(0)).is_some());
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0x200));
        assert_eq!(v.evicted, Some(t0));
    }

    /// Every way of set 0 of a 4-way array, in way order.
    fn ways(a: &TagArray) -> Vec<SlotId> {
        (0..a.config().associativity()).map(|way| SlotId { set: 0, way }).collect()
    }

    #[test]
    fn vacated_slots_never_match() {
        // 1 set × 4 ways, so every page maps to set 0.
        let mut a = TagArray::new(CacheConfig::new(PageSize::S128, 4, 512).unwrap());
        let va = |p: u64| VirtAddr::new(p * 128);
        let tag = |a: &TagArray, p: u64| tag_for(a, 1, p * 128);
        for (way, id) in ways(&a).into_iter().enumerate() {
            a.install(id, tag(&a, way as u64), SlotFlags::shared_clean());
        }
        // An invalidated way no longer matches its page, and the victim
        // is that way, reported empty.
        assert_eq!(a.invalidate(SlotId { set: 0, way: 2 }), Some(tag(&a, 2)));
        assert!(a.probe(Asid::new(1), va(2)).is_none());
        assert!(a.lookup(Asid::new(1), va(2)).is_none());
        let v = a.victim_for(Asid::new(1), va(2));
        assert_eq!((v.slot.way, v.evicted, v.modified), (2, None, false));
        for p in [0, 1, 3] {
            assert!(a.probe(Asid::new(1), va(p)).is_some());
        }
        // Restoring a slot with invalid flags leaves it empty: no match,
        // not listed, and the first choice of victim.
        a.restore_slot(SlotId { set: 0, way: 1 }, tag(&a, 1), SlotFlags::invalid(), 9);
        assert!(a.probe(Asid::new(1), va(1)).is_none());
        assert_eq!(a.valid_count(), 2);
        assert!(a.iter_valid().all(|(id, _, _)| id.way == 0 || id.way == 3));
        assert_eq!(a.victim_for(Asid::new(1), va(7)).slot.way, 1);
        // After invalidate_all nothing matches, and refilling starts at way 0.
        a.invalidate_all();
        for p in 0..4 {
            assert!(a.probe(Asid::new(1), va(p)).is_none());
        }
        assert_eq!(a.valid_count(), 0);
        assert_eq!(a.victim_for(Asid::new(1), va(0)).slot.way, 0);
    }

    #[test]
    fn lru_tie_evicts_the_lowest_way() {
        let mut a = TagArray::new(CacheConfig::new(PageSize::S128, 4, 512).unwrap());
        let stamps = [7, 3, 5, 3];
        for (way, id) in ways(&a).into_iter().enumerate() {
            let t = tag_for(&a, 1, way as u64 * 128);
            a.restore_slot(id, t, SlotFlags::shared_clean(), stamps[way]);
        }
        let v = a.victim_for(Asid::new(1), VirtAddr::new(0x1000));
        assert_eq!(v.slot.way, 1);
        assert_eq!(v.evicted, Some(tag_for(&a, 1, 128)));
        // All four tied: way 0.
        for (way, id) in ways(&a).into_iter().enumerate() {
            let t = tag_for(&a, 1, way as u64 * 128);
            a.restore_slot(id, t, SlotFlags::shared_clean(), 4);
        }
        assert_eq!(a.victim_for(Asid::new(1), VirtAddr::new(0x1000)).slot.way, 0);
    }

    #[test]
    fn page_numbers_across_the_whole_address_space_match_exactly() {
        // 4-byte pages give page numbers up to 2^62 − 1. One set of
        // 8 ways holds the same page number under several ASIDs, page
        // numbers on both sides of 2^56 − 1 (the first that does not pack) and
        // the very last page.
        let page = PageSize::new(4).unwrap();
        let mut a = TagArray::new(CacheConfig::new(page, 8, 32).unwrap());
        let last = u64::MAX >> 2;
        let pages = [(1 << 56) - 2, (1 << 56) - 1, 1 << 56, last];
        let mut tags = Vec::new();
        for &vpn in &pages {
            for asid in [0, 255] {
                tags.push(Tag::new(Asid::new(asid), VirtPageNum::new(vpn)));
            }
        }
        for (way, &t) in tags.iter().enumerate() {
            let va = page.vpn_base(t.vpn);
            assert!(a.probe(t.asid, va).is_none(), "{t} before install");
            assert_eq!(a.victim_for(t.asid, va).slot.way, way);
            a.install(SlotId { set: 0, way }, t, SlotFlags::shared_clean());
        }
        for (way, &t) in tags.iter().enumerate() {
            let va = page.vpn_base(t.vpn);
            assert_eq!(a.probe(t.asid, va), Some(SlotId { set: 0, way }), "{t}");
            for other in [1, 254] {
                assert!(a.probe(Asid::new(other), va).is_none(), "{t} under ASID {other}");
            }
        }
        for vpn in [0, (1 << 56) - 3, (1 << 56) + 1, last - 1, last >> 8] {
            for asid in [0, 255] {
                assert!(a.probe(Asid::new(asid), page.vpn_base(VirtPageNum::new(vpn))).is_none());
            }
        }
        let listed: Vec<Tag> = a.iter_valid().map(|(_, t, _)| t).collect();
        assert_eq!(listed, tags);
        // The least recently used way is 0; its victim report and its
        // invalidation hand back the exact tag.
        let v = a.victim_for(Asid::new(3), VirtAddr::new(0));
        assert_eq!((v.slot.way, v.evicted), (0, Some(tags[0])));
        let top = SlotId { set: 0, way: 7 };
        assert_eq!(a.invalidate(top), Some(tags[7]));
        assert!(a.probe(tags[7].asid, page.vpn_base(tags[7].vpn)).is_none());
        assert_eq!(a.install(top, tags[7], SlotFlags::shared_clean()), None);
        assert_eq!(a.probe(tags[7].asid, page.vpn_base(tags[7].vpn)), Some(top));
    }

    #[test]
    fn sets_wider_than_64_ways_match_every_way() {
        // One set of 80 ways of 4-byte pages: runs of 64 and 16 ways.
        let page = PageSize::new(4).unwrap();
        let mut a = TagArray::new(CacheConfig::new(page, 80, 320).unwrap());
        let va = |p: u64| VirtAddr::new(p * 4);
        for way in 0..80 {
            let t = Tag::new(Asid::new(way as u8 % 3), VirtPageNum::new(way as u64 / 3));
            assert_eq!(a.victim_for(t.asid, va(0)).slot.way, way);
            a.install(SlotId { set: 0, way }, t, SlotFlags::shared_clean());
        }
        for way in 0..80 {
            let asid = Asid::new(way as u8 % 3);
            assert_eq!(a.probe(asid, va(way as u64 / 3)), Some(SlotId { set: 0, way }));
        }
        assert!(a.probe(Asid::new(3), va(0)).is_none());
        assert!(a.probe(Asid::new(0), va(27)).is_none());
        a.invalidate(SlotId { set: 0, way: 70 });
        assert!(a.probe(Asid::new(1), va(23)).is_none());
        assert_eq!(a.victim_for(Asid::new(1), va(23)).slot.way, 70);
    }
}

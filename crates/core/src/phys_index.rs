//! The software physical→cache-slot index kept in local memory.

use std::collections::HashMap;

use vmp_cache::SlotId;
use vmp_types::FrameNum;

/// The miss handler's record of which cache slots hold which physical
/// frames.
///
/// The cache itself is virtually indexed, but consistency interrupts
/// arrive with *physical* addresses, so "information about the state of
/// each cache page and the mapping from physical address to cache page is
/// maintained by the processor in the local memory" (paper §3.3). Because
/// of virtual-address aliasing one frame may occupy several slots.
///
/// Layout is tuned for the consistency hot path, which performs one
/// frame→slots lookup per snooped bus transaction: slots per frame live
/// in small sorted `Vec`s handed out by reference (no per-lookup
/// allocation, unlike the former `BTreeSet` + collect), and the reverse
/// slot→frame map is a flat array indexed by `set * ways + way` (one
/// load, no hashing). A frame whose last slot is removed keeps its
/// emptied `Vec`, so the ownership ping-pong that evicts and refills the
/// same frames reuses the buffer instead of allocating one per fill; the
/// map is bounded by the number of memory frames. Build it with
/// [`PhysIndex::with_geometry`] when the cache shape is known;
/// [`PhysIndex::new`] grows the flat array on demand.
///
/// # Examples
///
/// ```
/// use vmp_cache::SlotId;
/// use vmp_core::PhysIndex;
/// use vmp_types::FrameNum;
///
/// let mut idx = PhysIndex::new();
/// idx.insert(FrameNum::new(3), SlotId { set: 0, way: 1 });
/// assert_eq!(idx.slots(FrameNum::new(3)).len(), 1);
/// idx.remove(FrameNum::new(3), SlotId { set: 0, way: 1 });
/// assert!(idx.slots(FrameNum::new(3)).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysIndex {
    by_frame: HashMap<FrameNum, Vec<SlotId>>,
    /// Frame held by each slot, linearized as `set * ways + way`.
    by_slot: Vec<Option<FrameNum>>,
    ways: usize,
}

impl PhysIndex {
    /// Creates an empty index whose reverse map grows as slots appear.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty index pre-sized for a `sets` × `ways` cache, so
    /// the reverse map never reallocates during simulation.
    pub fn with_geometry(sets: usize, ways: usize) -> Self {
        let ways = ways.max(1);
        PhysIndex { by_frame: HashMap::new(), by_slot: vec![None; sets * ways], ways }
    }

    fn linear(&self, slot: SlotId) -> usize {
        slot.set * self.ways + slot.way
    }

    /// Grows the reverse map so `slot` has a cell, re-linearizing the
    /// existing entries if the way count increases. Cold: only reachable
    /// through [`PhysIndex::new`] with geometry unknown up front.
    fn ensure_cell(&mut self, slot: SlotId) {
        if slot.way >= self.ways {
            let ways = (slot.way + 1).max(self.ways * 2);
            let mut by_slot = vec![None; self.by_slot.len() / self.ways.max(1) * ways];
            for (lin, frame) in self.by_slot.iter().enumerate() {
                if let Some(f) = frame {
                    let (set, way) = (lin / self.ways, lin % self.ways);
                    let new_lin = set * ways + way;
                    if by_slot.len() <= new_lin {
                        by_slot.resize(new_lin + 1, None);
                    }
                    by_slot[new_lin] = Some(*f);
                }
            }
            self.by_slot = by_slot;
            self.ways = ways;
        }
        let lin = self.linear(slot);
        if lin >= self.by_slot.len() {
            self.by_slot.resize(lin + 1, None);
        }
    }

    /// Records that `slot` now holds `frame`.
    ///
    /// If the slot previously held another frame, that stale entry is
    /// removed first (replacement without explicit invalidation).
    pub fn insert(&mut self, frame: FrameNum, slot: SlotId) {
        self.ensure_cell(slot);
        let lin = self.linear(slot);
        if let Some(old) = self.by_slot[lin].replace(frame) {
            if old != frame {
                Self::detach(&mut self.by_frame, old, slot);
            }
        }
        let slots = self.by_frame.entry(frame).or_default();
        if let Err(pos) = slots.binary_search(&slot) {
            slots.insert(pos, slot);
        }
    }

    /// Removes the record for `slot` holding `frame`.
    pub fn remove(&mut self, frame: FrameNum, slot: SlotId) {
        if self.ways > 0 {
            let lin = self.linear(slot);
            if slot.way < self.ways && lin < self.by_slot.len() && self.by_slot[lin] == Some(frame)
            {
                self.by_slot[lin] = None;
            }
        }
        Self::detach(&mut self.by_frame, frame, slot);
    }

    fn detach(by_frame: &mut HashMap<FrameNum, Vec<SlotId>>, frame: FrameNum, slot: SlotId) {
        if let Some(slots) = by_frame.get_mut(&frame) {
            if let Ok(pos) = slots.binary_search(&slot) {
                slots.remove(pos);
            }
        }
    }

    /// All slots (aliases) currently holding `frame`, sorted.
    ///
    /// Borrows from the index — the per-reference consistency path calls
    /// this once per snooped transaction, so it must not allocate.
    pub fn slots(&self, frame: FrameNum) -> &[SlotId] {
        self.by_frame.get(&frame).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The frame a slot holds, if recorded.
    pub fn frame_of(&self, slot: SlotId) -> Option<FrameNum> {
        if self.ways == 0 || slot.way >= self.ways {
            return None;
        }
        self.by_slot.get(self.linear(slot)).copied().flatten()
    }

    /// Number of distinct frames with at least one cached copy.
    pub fn frames_cached(&self) -> usize {
        self.by_frame.values().filter(|slots| !slots.is_empty()).count()
    }

    /// Iterates over `(frame, slot)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (FrameNum, SlotId)> + '_ {
        let mut frames: Vec<_> = self.by_frame.iter().filter(|(_, s)| !s.is_empty()).collect();
        frames.sort_by_key(|(f, _)| **f);
        frames.into_iter().flat_map(|(f, slots)| slots.iter().map(move |s| (*f, *s)))
    }

    /// Forgets everything (address-space teardown, overflow recovery).
    pub fn clear(&mut self) {
        self.by_frame.clear();
        self.by_slot.iter_mut().for_each(|c| *c = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(set: usize, way: usize) -> SlotId {
        SlotId { set, way }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = PhysIndex::new();
        idx.insert(FrameNum::new(1), slot(0, 0));
        idx.insert(FrameNum::new(1), slot(2, 1)); // alias
        idx.insert(FrameNum::new(2), slot(3, 0));
        assert_eq!(idx.slots(FrameNum::new(1)), vec![slot(0, 0), slot(2, 1)]);
        assert_eq!(idx.frame_of(slot(3, 0)), Some(FrameNum::new(2)));
        assert_eq!(idx.frames_cached(), 2);
        idx.remove(FrameNum::new(1), slot(0, 0));
        assert_eq!(idx.slots(FrameNum::new(1)), vec![slot(2, 1)]);
        idx.remove(FrameNum::new(1), slot(2, 1));
        assert_eq!(idx.frames_cached(), 1);
        assert_eq!(idx.frame_of(slot(0, 0)), None);
    }

    #[test]
    fn reinsert_slot_with_new_frame_clears_stale() {
        let mut idx = PhysIndex::new();
        idx.insert(FrameNum::new(1), slot(0, 0));
        // Replacement: same slot now holds a different frame.
        idx.insert(FrameNum::new(9), slot(0, 0));
        assert!(idx.slots(FrameNum::new(1)).is_empty());
        assert_eq!(idx.slots(FrameNum::new(9)), vec![slot(0, 0)]);
        assert_eq!(idx.frame_of(slot(0, 0)), Some(FrameNum::new(9)));
    }

    #[test]
    fn remove_with_wrong_frame_is_safe() {
        let mut idx = PhysIndex::new();
        idx.insert(FrameNum::new(1), slot(0, 0));
        idx.remove(FrameNum::new(2), slot(0, 0)); // mismatched: no effect on by_slot
        assert_eq!(idx.frame_of(slot(0, 0)), Some(FrameNum::new(1)));
    }

    #[test]
    fn iter_deterministic_and_clear() {
        let mut idx = PhysIndex::new();
        idx.insert(FrameNum::new(5), slot(1, 0));
        idx.insert(FrameNum::new(3), slot(0, 0));
        let pairs: Vec<_> = idx.iter().collect();
        assert_eq!(pairs[0].0, FrameNum::new(3));
        assert_eq!(pairs[1].0, FrameNum::new(5));
        idx.clear();
        assert_eq!(idx.frames_cached(), 0);
        assert_eq!(idx.frame_of(slot(1, 0)), None);
    }

    #[test]
    fn with_geometry_matches_grown_index() {
        let mut pre = PhysIndex::with_geometry(8, 2);
        let mut grown = PhysIndex::new();
        for (f, s) in [(1, slot(0, 0)), (1, slot(7, 1)), (4, slot(3, 1)), (2, slot(3, 0))] {
            pre.insert(FrameNum::new(f), s);
            grown.insert(FrameNum::new(f), s);
        }
        for f in [1u64, 2, 4, 9] {
            assert_eq!(pre.slots(FrameNum::new(f)), grown.slots(FrameNum::new(f)));
        }
        for s in [slot(0, 0), slot(7, 1), slot(3, 1), slot(3, 0), slot(5, 0)] {
            assert_eq!(pre.frame_of(s), grown.frame_of(s));
        }
        assert_eq!(pre.iter().collect::<Vec<_>>(), grown.iter().collect::<Vec<_>>());
    }

    #[test]
    fn emptied_frame_is_invisible_and_reusable() {
        let mut idx = PhysIndex::with_geometry(4, 2);
        idx.insert(FrameNum::new(7), slot(1, 1));
        idx.insert(FrameNum::new(7), slot(2, 0));
        idx.insert(FrameNum::new(3), slot(0, 0));
        idx.remove(FrameNum::new(7), slot(1, 1));
        idx.remove(FrameNum::new(7), slot(2, 0));
        assert!(idx.slots(FrameNum::new(7)).is_empty());
        assert_eq!(idx.frames_cached(), 1);
        assert_eq!(idx.iter().collect::<Vec<_>>(), vec![(FrameNum::new(3), slot(0, 0))]);
        idx.insert(FrameNum::new(7), slot(3, 1));
        assert_eq!(idx.slots(FrameNum::new(7)), vec![slot(3, 1)]);
        assert_eq!(idx.frame_of(slot(3, 1)), Some(FrameNum::new(7)));
        assert_eq!(idx.frames_cached(), 2);
        assert_eq!(idx.iter().count(), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut idx = PhysIndex::with_geometry(4, 2);
        idx.insert(FrameNum::new(7), slot(1, 1));
        idx.insert(FrameNum::new(7), slot(1, 1));
        assert_eq!(idx.slots(FrameNum::new(7)), vec![slot(1, 1)]);
        idx.remove(FrameNum::new(7), slot(1, 1));
        assert!(idx.slots(FrameNum::new(7)).is_empty());
        assert_eq!(idx.frames_cached(), 0);
    }
}

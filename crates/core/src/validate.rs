//! Protocol invariant validation.
//!
//! Checks the two-state consistency invariants of §3.1 over a whole
//! machine. Because invalidations are delivered asynchronously through
//! the monitor FIFOs, a frame is *in transition* at a given cache while
//! an unserviced interrupt word for it sits in that cache's FIFO; the
//! invariants exempt exactly those windows — anything else is a
//! simulator bug.

use std::collections::BTreeSet;

use vmp_bus::ActionCode;
use vmp_types::FrameNum;

use crate::Machine;

impl Machine {
    /// Validates the consistency invariants; returns a description of
    /// the first violation found.
    ///
    /// Invariants (per physical frame `f`):
    ///
    /// 1. at most one cache holds `f` with `exclusive` set, in exactly
    ///    one slot;
    /// 2. if some cache owns `f`, no other cache holds any copy —
    ///    except caches with a pending interrupt word for `f`;
    /// 3. every non-exclusive copy of `f` is byte-identical to main
    ///    memory — same exemption;
    /// 4. `modified` implies `exclusive`;
    /// 5. action tables agree with cache state: `10` ⇔ ownership (or
    ///    DMA protection, or a pending word), `01` ⇒ a shared copy is
    ///    present (or a pending word), `11` ⇒ no copy cached;
    /// 6. the software phys-index agrees with the cache tag array.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.cpus.len();

        // Frames with unserviced interrupt words, per cpu. A monitor whose
        // FIFO overflowed may have dropped words for *any* frame; until
        // the processor runs its recovery sweep (§3.3), every frame it
        // caches is potentially in transition.
        let overflowed: Vec<bool> = self.cpus.iter().map(|c| c.monitor.overflowed()).collect();
        let pending: Vec<BTreeSet<FrameNum>> = self
            .cpus
            .iter()
            .map(|c| c.monitor.pending_words().map(|w| w.frame).collect())
            .collect();
        let in_transition =
            |cpu: usize, frame: FrameNum| overflowed[cpu] || pending[cpu].contains(&frame);

        // Gather copies per frame: (cpu, slot, flags).
        let mut copies: Vec<(usize, vmp_cache::SlotId, vmp_cache::SlotFlags, FrameNum)> =
            Vec::new();
        for (i, cpu) in self.cpus.iter().enumerate() {
            let mut seen_slots = 0usize;
            for (slot, _tag, flags) in cpu.cache.iter_valid() {
                seen_slots += 1;
                let Some(frame) = cpu.phys.frame_of(slot) else {
                    return Err(format!("cpu{i} {slot} valid but missing from phys index"));
                };
                if flags.modified && !flags.exclusive {
                    return Err(format!("cpu{i} {slot} modified but not exclusive ({frame})"));
                }
                copies.push((i, slot, flags, frame));
            }
            // Index must not contain stale entries either.
            let indexed = cpu.phys.iter().count();
            if indexed != seen_slots {
                return Err(format!(
                    "cpu{i} phys index has {indexed} entries but cache has {seen_slots} valid slots"
                ));
            }
        }

        // Per-frame ownership analysis.
        let frames: BTreeSet<FrameNum> = copies.iter().map(|c| c.3).collect();
        for f in frames {
            let holders: Vec<&(usize, vmp_cache::SlotId, vmp_cache::SlotFlags, FrameNum)> =
                copies.iter().filter(|c| c.3 == f).collect();
            let owners: Vec<usize> =
                holders.iter().filter(|c| c.2.exclusive).map(|c| c.0).collect();
            if owners.len() > 1 {
                return Err(format!("{f} owned exclusively by multiple cpus: {owners:?}"));
            }
            if let Some(&owner) = owners.first() {
                if holders.iter().filter(|c| c.0 == owner).count() > 1 {
                    return Err(format!("{f} held privately by cpu{owner} in multiple slots"));
                }
                for c in &holders {
                    if c.0 != owner && !in_transition(c.0, f) {
                        return Err(format!(
                            "{f} owned by cpu{owner} but cpu{} holds a copy with no pending invalidation",
                            c.0
                        ));
                    }
                }
            }
            // Shared copies must match memory.
            for c in &holders {
                if !c.2.exclusive && !in_transition(c.0, f) {
                    let page = self.page_bytes();
                    let mem = self.memory.read(f, 0, page);
                    if self.cpus[c.0].cache.read(c.1, 0, page) != mem {
                        return Err(format!("{f} shared copy at cpu{} diverges from memory", c.0));
                    }
                }
            }
        }

        // Action-table consistency.
        for i in 0..n {
            for (f, code) in self.cpus[i].monitor.table().iter_active() {
                let my_copies: Vec<_> = copies.iter().filter(|c| c.0 == i && c.3 == f).collect();
                match code {
                    ActionCode::Protect => {
                        let owns = my_copies.iter().any(|c| c.2.exclusive);
                        let dma = self.dma_protected.get(&f) == Some(&i);
                        if !owns && !dma && !in_transition(i, f) {
                            return Err(format!(
                                "cpu{i} protects {f} but neither owns nor DMA-protects it"
                            ));
                        }
                    }
                    ActionCode::InterruptOnOwnership => {
                        if my_copies.is_empty() && !in_transition(i, f) {
                            return Err(format!("cpu{i} marks {f} shared but caches no copy"));
                        }
                    }
                    ActionCode::NotifyWatch => {
                        if !my_copies.is_empty() {
                            return Err(format!("cpu{i} watches {f} while caching it"));
                        }
                    }
                    ActionCode::Ignore => {}
                }
            }
            // Converse: cached frames must have a matching code.
            for c in copies.iter().filter(|c| c.0 == i) {
                let code = self.cpus[i].monitor.table().get(c.3);
                let expected_private = c.2.exclusive;
                match code {
                    ActionCode::Protect if !expected_private && !in_transition(i, c.3) => {
                        return Err(format!("cpu{i} caches {} shared but protects it", c.3));
                    }
                    ActionCode::InterruptOnOwnership
                        if expected_private && !in_transition(i, c.3) =>
                    {
                        return Err(format!("cpu{i} owns {} but marks it shared", c.3));
                    }
                    ActionCode::Ignore if !in_transition(i, c.3) => {
                        return Err(format!(
                            "cpu{i} caches {} but its action table ignores it",
                            c.3
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

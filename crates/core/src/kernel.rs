//! The operating-system layer: address spaces and demand paging.

use std::collections::BTreeMap;

use vmp_types::{Asid, FrameNum, PageSize, VirtAddr, VirtPageNum};
use vmp_vm::{AddressSpace, FrameAllocator, Pte};

use crate::MachineError;

/// The kernel's memory-management state, shared by all processors.
///
/// In the real machine this state lives in (cacheable) shared memory and
/// is guarded by kernel locks; the simulator keeps it as one structure
/// and charges the *cache traffic* of page-table access separately, via
/// the PTE virtual addresses the miss handler references
/// ([`AddressSpace::pte_va`]).
///
/// # Examples
///
/// ```
/// use vmp_core::Kernel;
/// use vmp_types::{Asid, PageSize, VirtAddr};
///
/// let mut k = Kernel::new(PageSize::S256, 64, 0);
/// let vpn = PageSize::S256.vpn_of(VirtAddr::new(0x4000));
/// let frame = k.fault_in(Asid::new(1), vpn, VirtAddr::new(0x4000)).unwrap();
/// assert_eq!(k.translate(Asid::new(1), vpn).unwrap().frame, frame);
/// ```
#[derive(Debug)]
pub struct Kernel {
    page_size: PageSize,
    spaces: BTreeMap<Asid, AddressSpace>,
    allocator: FrameAllocator,
}

impl Kernel {
    /// Creates a kernel managing `frames` physical frames, with the
    /// first `reserved` frames excluded from allocation (boot, devices).
    pub fn new(page_size: PageSize, frames: u64, reserved: u64) -> Self {
        Kernel {
            page_size,
            spaces: BTreeMap::new(),
            allocator: FrameAllocator::with_reserved(frames, reserved),
        }
    }

    /// The translation page size.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Looks up an existing space.
    pub fn space(&self, asid: Asid) -> Option<&AddressSpace> {
        self.spaces.get(&asid)
    }

    /// Returns the space for `asid`, creating it on first use.
    pub fn space_mut(&mut self, asid: Asid) -> &mut AddressSpace {
        let page_size = self.page_size;
        self.spaces.entry(asid).or_insert_with(|| AddressSpace::new(asid, page_size))
    }

    /// Translates without faulting.
    pub fn translate(&self, asid: Asid, vpn: VirtPageNum) -> Option<Pte> {
        self.spaces.get(&asid)?.translate(vpn).copied()
    }

    /// Demand-zero fault: allocates a frame and maps `vpn` read-write.
    /// Returns the existing mapping's frame if one is already present.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfMemory`] when no frame is free.
    pub fn fault_in(
        &mut self,
        asid: Asid,
        vpn: VirtPageNum,
        addr: VirtAddr,
    ) -> Result<FrameNum, MachineError> {
        if let Some(pte) = self.translate(asid, vpn) {
            return Ok(pte.frame);
        }
        let frame = self.allocator.alloc().ok_or(MachineError::OutOfMemory { asid, addr })?;
        let pte = if asid.is_kernel() { Pte::kernel_rw(frame) } else { Pte::user_rw(frame) };
        self.space_mut(asid).map(vpn, pte);
        Ok(frame)
    }

    /// Installs an explicit mapping (shared memory, aliases), returning
    /// any previous PTE.
    pub fn map(&mut self, asid: Asid, vpn: VirtPageNum, pte: Pte) -> Option<Pte> {
        self.space_mut(asid).map(vpn, pte)
    }

    /// Removes a mapping without freeing the frame (the caller decides,
    /// since frames may be shared between spaces).
    pub fn unmap(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<Pte> {
        self.spaces.get_mut(&asid)?.unmap(vpn)
    }

    /// The kernel virtual address of the PTE for ⟨asid, vpn⟩ — the
    /// address the miss handler references during translation.
    pub fn pte_va(&mut self, asid: Asid, vpn: VirtPageNum) -> VirtAddr {
        self.space_mut(asid).pte_va(vpn)
    }

    /// Marks the referenced (and optionally modified) bit of a mapping.
    pub fn mark_used(&mut self, asid: Asid, vpn: VirtPageNum, written: bool) {
        if let Some(space) = self.spaces.get_mut(&asid) {
            if let Some(pte) = space.translate_mut(vpn) {
                pte.referenced = true;
                if written {
                    pte.modified = true;
                }
            }
        }
    }

    /// Clears the referenced and modified bits of a mapping, returning
    /// whether it had been referenced since the last sweep — the
    /// page-out daemon's working-set probe (§3.4).
    pub fn clear_referenced(&mut self, asid: Asid, vpn: VirtPageNum) -> bool {
        let Some(space) = self.spaces.get_mut(&asid) else { return false };
        let Some(pte) = space.translate_mut(vpn) else { return false };
        let was = pte.referenced;
        pte.referenced = false;
        pte.modified = false;
        was
    }

    /// Sets or clears the §5.4 non-shared hint on a mapping. Returns
    /// `false` if the page is not mapped.
    pub fn set_private_hint(&mut self, asid: Asid, vpn: VirtPageNum, hint: bool) -> bool {
        let Some(space) = self.spaces.get_mut(&asid) else { return false };
        let Some(pte) = space.translate_mut(vpn) else { return false };
        pte.hint_private = hint;
        true
    }

    /// All resident pages of a space, for teardown (§3.4).
    pub fn resident_pages(&self, asid: Asid) -> Vec<(VirtPageNum, FrameNum)> {
        self.spaces
            .get(&asid)
            .map(|s| s.iter().map(|(vpn, pte)| (vpn, pte.frame)).collect())
            .unwrap_or_default()
    }

    /// Unmaps one page and frees its frame unless another mapping still
    /// uses it. Returns the freed frame (the page-out daemon's reclaim
    /// step, §3.4).
    pub fn reclaim(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<FrameNum> {
        let pte = self.unmap(asid, vpn)?;
        let shared = self.spaces.values().any(|s| !s.reverse_lookup(pte.frame).is_empty());
        if shared {
            None
        } else {
            let _ = self.allocator.free(pte.frame);
            Some(pte.frame)
        }
    }

    /// Destroys a space, freeing every frame exclusively mapped by it.
    ///
    /// Frames also mapped by another space are left allocated. Returns
    /// the frames that were freed.
    pub fn destroy_space(&mut self, asid: Asid) -> Vec<FrameNum> {
        let Some(space) = self.spaces.remove(&asid) else {
            return Vec::new();
        };
        let mut freed = Vec::new();
        for (_, pte) in space.iter() {
            let shared_elsewhere =
                self.spaces.values().any(|other| !other.reverse_lookup(pte.frame).is_empty());
            if !shared_elsewhere && self.allocator.free(pte.frame).is_ok() {
                freed.push(pte.frame);
            }
        }
        freed.sort();
        freed.dedup();
        freed
    }

    /// Frames still unallocated.
    pub fn free_frames(&self) -> u64 {
        self.allocator.free_frames()
    }

    /// Every ASID with a live address space, ascending — the snapshot
    /// layer serializes each space's mappings under this order.
    pub fn asids(&self) -> Vec<Asid> {
        self.spaces.keys().copied().collect()
    }

    /// The frame allocator's free runs as `(first frame, length)`,
    /// ascending, for checkpointing.
    pub fn free_runs(&self) -> impl Iterator<Item = (FrameNum, u64)> + '_ {
        self.allocator.free_runs()
    }

    /// Replaces the allocator's free list with checkpointed
    /// [`Kernel::free_runs`] so the lowest-first allocation sequence
    /// continues identically. Restore the address spaces first: no run
    /// may hold a frame a page table maps.
    ///
    /// # Errors
    ///
    /// Describes the first malformed run (see
    /// [`FrameAllocator::restore_free_runs`]) or the first mapped frame
    /// a run holds; the free list is then unchanged.
    pub fn restore_free_runs(&mut self, runs: Vec<(FrameNum, u64)>) -> Result<(), String> {
        let mut allocator = FrameAllocator::new(self.allocator.total_frames());
        allocator.restore_free_runs(runs)?;
        for space in self.spaces.values() {
            if let Some((vpn, pte)) = space.iter().find(|(_, pte)| allocator.is_free(pte.frame)) {
                let asid = space.asid();
                return Err(format!("free {} is mapped by {asid} at {vpn}", pte.frame));
            }
        }
        self.allocator = allocator;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(PageSize::S256, 16, 0)
    }

    #[test]
    fn demand_zero_faults_allocate_once() {
        let mut k = kernel();
        let vpn = VirtPageNum::new(4);
        let f1 = k.fault_in(Asid::new(1), vpn, VirtAddr::new(0x400)).unwrap();
        let f2 = k.fault_in(Asid::new(1), vpn, VirtAddr::new(0x400)).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(k.free_frames(), 15);
    }

    #[test]
    fn kernel_space_gets_supervisor_mappings() {
        let mut k = kernel();
        let vpn = VirtPageNum::new(1);
        k.fault_in(Asid::KERNEL, vpn, VirtAddr::new(0x100)).unwrap();
        assert!(k.translate(Asid::KERNEL, vpn).unwrap().supervisor_only);
        assert!(!k
            .fault_in(Asid::new(2), vpn, VirtAddr::new(0x100))
            .map(|_| k.translate(Asid::new(2), vpn).unwrap().supervisor_only)
            .unwrap());
    }

    #[test]
    fn out_of_memory_reported() {
        let mut k = Kernel::new(PageSize::S256, 2, 0);
        k.fault_in(Asid::new(1), VirtPageNum::new(0), VirtAddr::new(0)).unwrap();
        k.fault_in(Asid::new(1), VirtPageNum::new(1), VirtAddr::new(256)).unwrap();
        let err = k.fault_in(Asid::new(1), VirtPageNum::new(2), VirtAddr::new(512));
        assert!(matches!(err, Err(MachineError::OutOfMemory { .. })));
    }

    #[test]
    fn destroy_space_frees_exclusive_frames_only() {
        let mut k = kernel();
        let f_shared = k.fault_in(Asid::new(1), VirtPageNum::new(0), VirtAddr::new(0)).unwrap();
        let _f_priv = k.fault_in(Asid::new(1), VirtPageNum::new(1), VirtAddr::new(256)).unwrap();
        // Space 2 shares frame f_shared at a different virtual page.
        k.map(Asid::new(2), VirtPageNum::new(9), Pte::user_ro(f_shared));
        let freed = k.destroy_space(Asid::new(1));
        assert_eq!(freed.len(), 1, "only the exclusive frame is freed");
        assert_ne!(freed[0], f_shared);
        assert!(k.space(Asid::new(1)).is_none());
        assert!(k.translate(Asid::new(2), VirtPageNum::new(9)).is_some());
    }

    #[test]
    fn mark_used_sets_bits() {
        let mut k = kernel();
        let vpn = VirtPageNum::new(3);
        k.fault_in(Asid::new(1), vpn, VirtAddr::new(0x300)).unwrap();
        k.mark_used(Asid::new(1), vpn, false);
        let pte = k.translate(Asid::new(1), vpn).unwrap();
        assert!(pte.referenced && !pte.modified);
        k.mark_used(Asid::new(1), vpn, true);
        assert!(k.translate(Asid::new(1), vpn).unwrap().modified);
    }

    #[test]
    fn resident_pages_lists_mappings() {
        let mut k = kernel();
        k.fault_in(Asid::new(1), VirtPageNum::new(0), VirtAddr::new(0)).unwrap();
        k.fault_in(Asid::new(1), VirtPageNum::new(7), VirtAddr::new(7 * 256)).unwrap();
        let pages = k.resident_pages(Asid::new(1));
        assert_eq!(pages.len(), 2);
        assert!(k.resident_pages(Asid::new(9)).is_empty());
    }

    #[test]
    fn clear_referenced_and_hint() {
        let mut k = kernel();
        let vpn = VirtPageNum::new(2);
        k.fault_in(Asid::new(1), vpn, VirtAddr::new(0x200)).unwrap();
        assert!(!k.clear_referenced(Asid::new(1), vpn), "fresh page unreferenced");
        k.mark_used(Asid::new(1), vpn, true);
        assert!(k.clear_referenced(Asid::new(1), vpn));
        assert!(!k.translate(Asid::new(1), vpn).unwrap().modified);
        assert!(k.set_private_hint(Asid::new(1), vpn, true));
        assert!(k.translate(Asid::new(1), vpn).unwrap().hint_private);
        assert!(!k.set_private_hint(Asid::new(9), vpn, true), "unmapped");
    }

    #[test]
    fn reclaim_frees_exclusive_frames() {
        let mut k = kernel();
        let vpn = VirtPageNum::new(3);
        let frame = k.fault_in(Asid::new(1), vpn, VirtAddr::new(0x300)).unwrap();
        let before = k.free_frames();
        assert_eq!(k.reclaim(Asid::new(1), vpn), Some(frame));
        assert_eq!(k.free_frames(), before + 1);
        assert!(k.translate(Asid::new(1), vpn).is_none());
        // Shared frame: unmapped but not freed.
        let f2 = k.fault_in(Asid::new(1), VirtPageNum::new(4), VirtAddr::new(0x400)).unwrap();
        k.map(Asid::new(2), VirtPageNum::new(8), Pte::user_ro(f2));
        assert_eq!(k.reclaim(Asid::new(1), VirtPageNum::new(4)), None);
        assert!(k.translate(Asid::new(2), VirtPageNum::new(8)).is_some());
    }

    #[test]
    fn pte_va_distinct_per_space() {
        let mut k = kernel();
        let a = k.pte_va(Asid::new(1), VirtPageNum::new(0));
        let b = k.pte_va(Asid::new(2), VirtPageNum::new(0));
        assert_ne!(a, b);
    }
}

//! Property-based tests of the two-level page table against a flat
//! HashMap model.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use vmp_types::{Asid, FrameNum, PageSize, VirtPageNum};
use vmp_vm::{AddressSpace, FrameAllocator, FreeError, Pte};

#[derive(Debug, Clone)]
enum SpaceOp {
    Map(u64, u64),
    Unmap(u64),
    Touch(u64, bool),
}

fn arb_op() -> impl Strategy<Value = SpaceOp> {
    prop_oneof![
        (0u64..500, 0u64..64).prop_map(|(v, f)| SpaceOp::Map(v, f)),
        (0u64..500).prop_map(SpaceOp::Unmap),
        (0u64..500, any::<bool>()).prop_map(|(v, w)| SpaceOp::Touch(v, w)),
    ]
}

proptest! {
    /// The sparse two-level table behaves exactly like a flat map.
    #[test]
    fn space_matches_hashmap_model(ops in proptest::collection::vec(arb_op(), 0..300)) {
        let mut space = AddressSpace::new(Asid::new(1), PageSize::S256);
        let mut model: HashMap<u64, Pte> = HashMap::new();
        for op in ops {
            match op {
                SpaceOp::Map(v, f) => {
                    let pte = Pte::user_rw(FrameNum::new(f));
                    let got = space.map(VirtPageNum::new(v), pte);
                    let want = model.insert(v, pte);
                    prop_assert_eq!(got, want);
                }
                SpaceOp::Unmap(v) => {
                    let got = space.unmap(VirtPageNum::new(v));
                    let want = model.remove(&v);
                    prop_assert_eq!(got, want);
                }
                SpaceOp::Touch(v, w) => {
                    if let Some(pte) = space.translate_mut(VirtPageNum::new(v)) {
                        pte.referenced = true;
                        pte.modified |= w;
                    }
                    if let Some(pte) = model.get_mut(&v) {
                        pte.referenced = true;
                        pte.modified |= w;
                    }
                }
            }
            prop_assert_eq!(space.mapped_pages(), model.len());
        }
        // Full sweep comparison at the end.
        for v in 0..500u64 {
            prop_assert_eq!(
                space.translate(VirtPageNum::new(v)).copied(),
                model.get(&v).copied()
            );
        }
        // Reverse lookup agrees with a scan of the model.
        for f in 0..64u64 {
            let mut want: Vec<u64> = model
                .iter()
                .filter(|(_, pte)| pte.frame == FrameNum::new(f))
                .map(|(&v, _)| v)
                .collect();
            want.sort_unstable();
            let got: Vec<u64> =
                space.reverse_lookup(FrameNum::new(f)).into_iter().map(|v| v.raw()).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The frame allocator never double-allocates and exactly conserves
    /// its frame count.
    #[test]
    fn allocator_conserves_frames(script in proptest::collection::vec(any::<bool>(), 0..200)) {
        let total = 32u64;
        let mut alloc = FrameAllocator::new(total);
        let mut held: Vec<FrameNum> = Vec::new();
        for take in script {
            if take {
                if let Some(f) = alloc.alloc() {
                    prop_assert!(!held.contains(&f), "double allocation of {f}");
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                alloc.free(f).unwrap();
            }
            prop_assert_eq!(alloc.free_frames() + held.len() as u64, total);
        }
    }
}

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc,
    Free(u64),
}

fn arb_alloc_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![Just(AllocOp::Alloc), (0u64..44).prop_map(AllocOp::Free)]
}

proptest! {
    /// The run-keeping allocator hands out, refuses and holds exactly
    /// the frames a one-entry-per-frame `BTreeSet` model does, and its
    /// runs stay ascending, disjoint, non-adjacent and non-empty.
    #[test]
    fn allocator_matches_btreeset_model(
        reserved in 0u64..12,
        ops in proptest::collection::vec(arb_alloc_op(), 0..400),
    ) {
        let total = 40u64;
        let mut alloc = FrameAllocator::with_reserved(total, reserved);
        let mut model: BTreeSet<u64> = (reserved..total).collect();
        for op in ops {
            match op {
                AllocOp::Alloc => {
                    let want = model.pop_first().map(FrameNum::new);
                    prop_assert_eq!(alloc.alloc(), want);
                }
                AllocOp::Free(f) => {
                    let frame = FrameNum::new(f);
                    let want = if f >= total {
                        Err(FreeError::OutOfRange(frame))
                    } else if !model.insert(f) {
                        Err(FreeError::NotAllocated(frame))
                    } else {
                        Ok(())
                    };
                    prop_assert_eq!(alloc.free(frame), want);
                }
            }
            let runs: Vec<(FrameNum, u64)> = alloc.free_runs().collect();
            let mut held = Vec::new();
            for (i, &(start, len)) in runs.iter().enumerate() {
                prop_assert!(len > 0, "empty run {i}");
                if i > 0 {
                    let (prev, prev_len) = runs[i - 1];
                    prop_assert!(prev.raw() + prev_len < start.raw(), "runs {} and {i} touch", i - 1);
                }
                held.extend(start.raw()..start.raw() + len);
            }
            prop_assert_eq!(held, model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(alloc.free_frames(), model.len() as u64);
        }
        // A restored copy continues the same allocation sequence.
        let mut copy = FrameAllocator::new(total);
        copy.restore_free_runs(alloc.free_runs().collect::<Vec<_>>()).unwrap();
        while let Some(want) = alloc.alloc() {
            prop_assert_eq!(copy.alloc(), Some(want));
        }
        prop_assert_eq!(copy.alloc(), None);
    }
}

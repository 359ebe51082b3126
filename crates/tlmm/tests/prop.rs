//! Property tests for the TLMM simulation: a region's view of memory must
//! always agree with a straightforward model of "page table over an arena".

// Property suites are orders of magnitude too slow under the Miri
// interpreter; the crates' inline unit tests cover the same paths there.
#![cfg(not(miri))]

use std::collections::HashMap;
use std::sync::Arc;

use cilkm_tlmm::{PageArena, PageDesc, TlmmAddr, TlmmRegion, PAGE_SIZE, PD_NULL};

use cilkm_base::rng::{cases, Xoshiro256};

/// Operations a fuzzer can drive against one region.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate a page and map it at the given region page.
    MapFresh { page: u8 },
    /// Unmap whatever is at the given region page (page stays live).
    Unmap { page: u8 },
    /// Write a byte through the region.
    Write { page: u8, offset: u16, val: u8 },
}

fn gen_op(rng: &mut Xoshiro256) -> Op {
    let arm = rng.below(3);
    let page = rng.below(16) as u8;
    match arm {
        0 => Op::MapFresh { page },
        1 => Op::Unmap { page },
        _ => Op::Write {
            page,
            offset: rng.below(PAGE_SIZE as u64) as u16,
            val: rng.next_u64() as u8,
        },
    }
}

/// Region reads always agree with a shadow model keyed by
/// (mapped descriptor, offset); unmapped pages resolve to null.
#[test]
fn region_matches_shadow_model() {
    cases(1, 64, |rng| {
        let ops: Vec<Op> = (0..1 + rng.below(59)).map(|_| gen_op(rng)).collect();
        let arena = Arc::new(PageArena::new());
        let mut region = TlmmRegion::new(Arc::clone(&arena));
        // Shadow: region page -> descriptor, and (descriptor, offset) -> byte.
        let mut mapping: HashMap<u8, PageDesc> = HashMap::new();
        let mut bytes: HashMap<(u32, u16), u8> = HashMap::new();
        let mut all_pds: Vec<PageDesc> = Vec::new();

        for op in &ops {
            match *op {
                Op::MapFresh { page } => {
                    let pd = arena.palloc();
                    all_pds.push(pd);
                    region.pmap(page as usize, &[pd]);
                    mapping.insert(page, pd);
                }
                Op::Unmap { page } => {
                    region.pmap(page as usize, &[PD_NULL]);
                    mapping.remove(&page);
                }
                Op::Write { page, offset, val } => {
                    let addr = TlmmAddr::from_parts(page as usize, offset as usize);
                    if let Some(&pd) = mapping.get(&page) {
                        region.write_byte(addr, val);
                        bytes.insert((pd.raw(), offset), val);
                    } else {
                        assert!(region.resolve(addr).is_null());
                    }
                }
            }
        }

        // Final check: every mapped page reads back exactly the shadow bytes.
        for (&page, &pd) in &mapping {
            for off in [0u16, 1, 17, (PAGE_SIZE - 1) as u16] {
                let expect = bytes.get(&(pd.raw(), off)).copied().unwrap_or(0);
                let addr = TlmmAddr::from_parts(page as usize, off as usize);
                assert_eq!(region.read_byte(addr), expect);
            }
        }

        for pd in all_pds {
            arena.pfree(pd);
        }
        assert_eq!(arena.live_pages(), 0);
    });
}

/// Descriptors published by one region can be mapped by another and the
/// two alias the same bytes, at possibly different region addresses.
#[test]
fn descriptor_sharing_aliases() {
    cases(2, 64, |rng| {
        let offsets: Vec<usize> = (0..1 + rng.below(15))
            .map(|_| rng.below(PAGE_SIZE as u64) as usize)
            .collect();
        let arena = Arc::new(PageArena::new());
        let mut r0 = TlmmRegion::new(Arc::clone(&arena));
        let mut r1 = TlmmRegion::new(Arc::clone(&arena));
        let pd = arena.palloc();
        r0.pmap(0, &[pd]);
        r1.pmap(9, &[pd]);
        for (i, &off) in offsets.iter().enumerate() {
            r0.write_byte(TlmmAddr::from_parts(0, off), i as u8);
            assert_eq!(r1.read_byte(TlmmAddr::from_parts(9, off)), i as u8);
        }
        arena.pfree(pd);
    });
}

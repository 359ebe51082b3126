//! A thread's private TLMM region (the "user side" of TLMM).

use std::sync::Arc;

use crate::{PageArena, PageDesc, PAGE_SIZE, PD_NULL};

/// A byte address inside the TLMM region, relative to the region base.
///
/// In real TLMM the region occupies a fixed 512-GByte slice of every
/// thread's virtual address space (one root-page-directory entry, §4), so
/// a TLMM address is globally meaningful: the same numeric address names
/// "the same slot" in *every* worker's private region. We model that by
/// making `TlmmAddr` a plain offset; the memory-mapped reducer stores one
/// in each reducer object as its `tlmm_addr` field (§6).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TlmmAddr(pub usize);

impl TlmmAddr {
    /// The region page index containing this address.
    #[inline]
    pub fn page(self) -> usize {
        self.0 / PAGE_SIZE
    }

    /// The byte offset within the page.
    #[inline]
    pub fn offset(self) -> usize {
        self.0 % PAGE_SIZE
    }

    /// Builds an address from a page index and in-page offset.
    #[inline]
    pub fn from_parts(page: usize, offset: usize) -> TlmmAddr {
        debug_assert!(offset < PAGE_SIZE);
        TlmmAddr(page * PAGE_SIZE + offset)
    }
}

/// One thread's private TLMM region.
///
/// The region is a table from region page index to mapped page descriptor,
/// plus a flat array of cached page base pointers that plays the role of
/// the hardware TLB: resolving an address is a single indexed load
/// followed by pointer arithmetic. (The memory-mapped reducer backend
/// keeps its SPA maps in a slot space of its own and does not use a
/// region; the simulation serves the probes and ablation programs.)
///
/// Mutating the mapping goes through [`TlmmRegion::pmap`], the analogue of
/// `sys_pmap`, which is charged as a simulated kernel crossing.
///
/// A region is owned by exactly one worker thread at a time (it is `Send`
/// but deliberately not `Sync`); sharing page *contents* across workers is
/// done by publishing page descriptors, never by sharing the region.
pub struct TlmmRegion {
    arena: Arc<PageArena>,
    /// Region page index -> mapped descriptor (PD_NULL where unmapped).
    table: Vec<PageDesc>,
    /// Cached translation: region page index -> page base (null where
    /// unmapped). Kept in lock-step with `table`.
    bases: Vec<*mut u8>,
    /// Number of `pmap` calls made by this region (per-region view of the
    /// global counter, for per-worker accounting).
    pmap_calls: u64,
}

// SAFETY: a region owns no memory of its own beyond indices; the
// pointers refer to arena pages which are kept alive by the `Arc`.
// Moving a region between threads (e.g. handing it to a worker at pool
// start) is sound.
unsafe impl Send for TlmmRegion {}

impl TlmmRegion {
    /// Creates an empty region backed by `arena`.
    pub fn new(arena: Arc<PageArena>) -> Self {
        TlmmRegion {
            arena,
            table: Vec::new(),
            bases: Vec::new(),
            pmap_calls: 0,
        }
    }

    /// The arena backing this region.
    pub fn arena(&self) -> &Arc<PageArena> {
        &self.arena
    }

    /// Simulated `sys_pmap`: maps `descs` at consecutive pages starting at
    /// region page `base_page`; [`PD_NULL`] entries remove mappings.
    ///
    /// One call is charged as a single kernel crossing regardless of the
    /// number of descriptors, mirroring the batched interface of §4 that
    /// lets Cilk-M amortize remapping against steals.
    ///
    /// # Panics
    ///
    /// Panics if any non-null descriptor is not live in the arena.
    pub fn pmap(&mut self, base_page: usize, descs: &[PageDesc]) {
        self.arena.crossings().charge_pmap(descs.len() as u64);
        self.pmap_calls += 1;

        let end = base_page + descs.len();
        if end > self.table.len() {
            self.table.resize(end, PD_NULL);
            self.bases.resize(end, std::ptr::null_mut());
        }
        for (i, &pd) in descs.iter().enumerate() {
            let page = base_page + i;
            if pd.is_null() {
                self.table[page] = PD_NULL;
                self.bases[page] = std::ptr::null_mut();
            } else {
                let base = self.arena.page_base(pd);
                debug_assert!(
                    !self
                        .table
                        .iter()
                        .enumerate()
                        .any(|(other, &mapped)| other != page && mapped == pd),
                    "descriptor {pd:?} mapped at two pages of one region"
                );
                self.table[page] = pd;
                self.bases[page] = base;
            }
        }
    }

    /// Simulated scattered `sys_pmap`: installs `(page, descriptor)`
    /// entries at arbitrary (not necessarily contiguous) region pages in
    /// one call — still a **single** kernel crossing charged with one
    /// page-table entry per element, the same §4 batching argument as
    /// [`TlmmRegion::pmap`]. [`PD_NULL`] entries remove mappings. No
    /// code in the workspace calls it since the exchange-based view
    /// transferal was deleted; it is kept for the benchmark's
    /// `tlmm.pmap_scatter16_ns` probe.
    ///
    /// # Panics
    ///
    /// Panics if any non-null descriptor is not live in the arena.
    pub fn pmap_scatter(&mut self, entries: &[(usize, PageDesc)]) {
        self.arena.crossings().charge_pmap(entries.len() as u64);
        self.pmap_calls += 1;

        let end = entries.iter().map(|&(p, _)| p + 1).max().unwrap_or(0);
        if end > self.table.len() {
            self.table.resize(end, PD_NULL);
            self.bases.resize(end, std::ptr::null_mut());
        }
        for &(page, pd) in entries {
            if pd.is_null() {
                self.table[page] = PD_NULL;
                self.bases[page] = std::ptr::null_mut();
            } else {
                let base = self.arena.page_base(pd);
                debug_assert!(
                    !self
                        .table
                        .iter()
                        .enumerate()
                        .any(|(other, &mapped)| other != page && mapped == pd),
                    "descriptor {pd:?} mapped at two pages of one region"
                );
                self.table[page] = pd;
                self.bases[page] = base;
            }
        }
    }

    /// Number of `pmap` calls this region has made.
    pub fn pmap_calls(&self) -> u64 {
        self.pmap_calls
    }

    /// The descriptor currently mapped at region page `page`, if any.
    pub fn desc_at(&self, page: usize) -> PageDesc {
        self.table.get(page).copied().unwrap_or(PD_NULL)
    }

    /// Highest mapped region page index + 1 (table extent).
    pub fn extent_pages(&self) -> usize {
        self.table.len()
    }

    /// Number of pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.table.iter().filter(|pd| !pd.is_null()).count()
    }

    /// Fast-path address translation: base pointer of the page holding
    /// `addr`, or null if unmapped. This is the simulated TLB hit.
    #[inline]
    pub fn page_base(&self, page: usize) -> *mut u8 {
        if page < self.bases.len() {
            self.bases[page]
        } else {
            std::ptr::null_mut()
        }
    }

    /// Resolves `addr` to a raw pointer, or null if the page is unmapped.
    ///
    /// # Safety of use
    ///
    /// The returned pointer is valid while the page stays mapped in this
    /// region and live in the arena; the caller's protocol must guarantee
    /// exclusive access (the Cilk-M runtime guarantees it by only letting
    /// the owning worker touch its private SPA maps).
    #[inline]
    pub fn resolve(&self, addr: TlmmAddr) -> *mut u8 {
        let base = self.page_base(addr.page());
        if base.is_null() {
            std::ptr::null_mut()
        } else {
            // SAFETY: `base` is a live page and `addr.offset()` is
            // < PAGE_SIZE by `TlmmAddr` construction, so the result
            // stays in bounds (in-page offsets cannot overflow).
            unsafe { base.add(addr.offset()) }
        }
    }

    /// Test/debug helper: reads a byte through the region mapping.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped.
    pub fn read_byte(&self, addr: TlmmAddr) -> u8 {
        let p = self.resolve(addr);
        assert!(
            !p.is_null(),
            "read through unmapped TLMM page {}",
            addr.page()
        );
        // SAFETY: non-null `resolve` results point into a live mapped
        // page; `&self` means no concurrent `write_byte` on this region.
        unsafe { *p }
    }

    /// Test/debug helper: writes a byte through the region mapping.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped.
    pub fn write_byte(&mut self, addr: TlmmAddr, val: u8) {
        let p = self.resolve(addr);
        assert!(
            !p.is_null(),
            "write through unmapped TLMM page {}",
            addr.page()
        );
        // SAFETY: as in `read_byte`, and `&mut self` makes the write
        // exclusive.
        unsafe { *p = val }
    }
}

impl std::fmt::Debug for TlmmRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlmmRegion")
            .field("extent_pages", &self.extent_pages())
            .field("mapped_pages", &self.mapped_pages())
            .field("pmap_calls", &self.pmap_calls)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<PageArena>, TlmmRegion) {
        let arena = Arc::new(PageArena::new());
        let region = TlmmRegion::new(Arc::clone(&arena));
        (arena, region)
    }

    #[test]
    fn pmap_installs_contiguous_mapping() {
        let (arena, mut region) = setup();
        let descs: Vec<_> = (0..3).map(|_| arena.palloc()).collect();
        region.pmap(2, &descs);
        assert_eq!(region.mapped_pages(), 3);
        assert_eq!(region.desc_at(0), PD_NULL);
        assert_eq!(region.desc_at(2), descs[0]);
        assert_eq!(region.desc_at(4), descs[2]);
        assert!(region.page_base(1).is_null());
        assert!(!region.page_base(3).is_null());
        for pd in descs {
            arena.pfree(pd);
        }
    }

    #[test]
    fn pd_null_unmaps() {
        let (arena, mut region) = setup();
        let a = arena.palloc();
        region.pmap(0, &[a]);
        assert_eq!(region.mapped_pages(), 1);
        region.pmap(0, &[PD_NULL]);
        assert_eq!(region.mapped_pages(), 0);
        assert!(region.resolve(TlmmAddr(100)).is_null());
        arena.pfree(a);
    }

    #[test]
    fn same_virtual_address_different_physical_pages_per_region() {
        // The defining TLMM property (§4, Figure 3): two "threads" map
        // different physical pages at the same region address.
        let (arena, mut r0) = setup();
        let mut r1 = TlmmRegion::new(Arc::clone(&arena));
        let p0 = arena.palloc();
        let p1 = arena.palloc();
        r0.pmap(0, &[p0]);
        r1.pmap(0, &[p1]);

        let addr = TlmmAddr(123);
        r0.write_byte(addr, 7);
        r1.write_byte(addr, 9);
        assert_eq!(r0.read_byte(addr), 7);
        assert_eq!(r1.read_byte(addr), 9);

        arena.pfree(p0);
        arena.pfree(p1);
    }

    #[test]
    fn shared_descriptor_aliases_the_same_page() {
        // Publishing a descriptor lets another region see the same bytes —
        // the mechanism behind the mapping strategy of §7.
        let (arena, mut r0) = setup();
        let mut r1 = TlmmRegion::new(Arc::clone(&arena));
        let p = arena.palloc();
        r0.pmap(0, &[p]);
        r1.pmap(5, &[p]);
        r0.write_byte(TlmmAddr(42), 0xEE);
        assert_eq!(r1.read_byte(TlmmAddr::from_parts(5, 42)), 0xEE);
        arena.pfree(p);
    }

    #[test]
    fn addr_round_trips_page_and_offset() {
        let a = TlmmAddr::from_parts(3, 17);
        assert_eq!(a.page(), 3);
        assert_eq!(a.offset(), 17);
        assert_eq!(a.0, 3 * PAGE_SIZE + 17);
    }

    #[test]
    fn pmap_counts_calls_per_region() {
        let (arena, mut region) = setup();
        let a = arena.palloc();
        let b = arena.palloc();
        region.pmap(0, &[a, b]);
        region.pmap(0, &[PD_NULL, PD_NULL]);
        assert_eq!(region.pmap_calls(), 2);
        arena.pfree(a);
        arena.pfree(b);
    }

    #[test]
    fn pmap_scatter_installs_noncontiguous_entries_in_one_crossing() {
        let (arena, mut region) = setup();
        let a = arena.palloc();
        let b = arena.palloc();
        let before = arena.crossings().snapshot();
        region.pmap_scatter(&[(0, a), (7, b)]);
        let d = arena.crossings().snapshot().since(&before);
        assert_eq!(d.pmap_calls, 1, "one crossing for the scattered batch");
        assert_eq!(d.pmap_pages, 2);
        assert_eq!(region.desc_at(0), a);
        assert_eq!(region.desc_at(7), b);
        assert_eq!(region.mapped_pages(), 2);
        assert!(region.page_base(3).is_null());
        // Mixed install/unmap in one scattered call.
        region.pmap_scatter(&[(0, PD_NULL)]);
        assert_eq!(region.desc_at(0), PD_NULL);
        assert_eq!(region.mapped_pages(), 1);
        arena.pfree(a);
        arena.pfree(b);
    }

    #[test]
    fn pmap_scatter_swaps_a_page_for_a_replacement() {
        // The exchange-transferal shape: the occupied page goes out, a
        // zeroed replacement comes in, both in one crossing.
        let (arena, mut region) = setup();
        let occupied = arena.palloc();
        region.pmap(3, &[occupied]);
        region.write_byte(TlmmAddr::from_parts(3, 9), 0x5A);
        let replacement = arena.palloc();
        region.pmap_scatter(&[(3, replacement)]);
        assert_eq!(region.desc_at(3), replacement);
        // The region now sees a zeroed page; the occupied page's bytes
        // survive for whoever holds its descriptor.
        assert_eq!(region.read_byte(TlmmAddr::from_parts(3, 9)), 0);
        // SAFETY: `occupied` is still live (freed below, after the read).
        unsafe { assert_eq!(*arena.page_base(occupied).add(9), 0x5A) };
        arena.pfree(occupied);
        arena.pfree(replacement);
    }

    #[test]
    fn remap_replaces_existing_mapping() {
        let (arena, mut region) = setup();
        let a = arena.palloc();
        let b = arena.palloc();
        region.pmap(0, &[a]);
        region.write_byte(TlmmAddr(0), 1);
        region.pmap(0, &[b]);
        // Fresh page is zeroed; old data lives on page `a` only.
        assert_eq!(region.read_byte(TlmmAddr(0)), 0);
        // SAFETY: page `a` is still live (freed below, after the read).
        unsafe { assert_eq!(*arena.page_base(a), 1) };
        arena.pfree(a);
        arena.pfree(b);
    }

    #[test]
    fn resolve_out_of_extent_is_null() {
        let (_arena, region) = setup();
        assert!(region.resolve(TlmmAddr(1 << 30)).is_null());
    }
}

//! The simulated physical-page allocator ("the kernel side" of TLMM).

// lint: allow-file(raw-sync, this crate plays the kernel in the simulation and is deliberately outside the model-checked surface — its `model` feature only forwards to cilkm-obs (see Cargo.toml); the free-list mutex and crossing counters stand in for kernel-internal locking that TLMM-Linux itself provides)

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::stats;
use crate::{PageDesc, PAGE_SIZE, PD_NULL};

/// Layout of one simulated physical page: 4 KBytes, page-aligned, zeroed on
/// allocation (fresh physical pages are zero-filled by the kernel, a fact
/// the SPA-map recycling invariant of §7 relies on).
fn page_layout() -> Layout {
    Layout::from_size_align(PAGE_SIZE, PAGE_SIZE).expect("static layout")
}

/// One arena slot: either a live page or a free-list link.
enum Slot {
    /// A live physical page (base pointer of a 4-KByte allocation).
    Live(*mut u8),
    /// Free slot; value is the next free slot index or `u32::MAX`.
    Free(u32),
}

// SAFETY: the raw page pointer in a `Live` slot is plain heap memory
// owned by the arena, freed exactly once by `pfree`/`Drop`.
unsafe impl Send for Slot {}

struct ArenaInner {
    slots: Vec<Slot>,
    free_head: u32,
    live: usize,
}

/// Aggregate statistics for a [`PageArena`].
#[derive(Copy, Clone, Debug, Default)]
pub struct PageArenaStats {
    /// Pages currently allocated and not yet freed.
    pub live_pages: usize,
    /// Total pages handed out by this arena (a batched `palloc` counts
    /// once per page here, though it is a single kernel crossing).
    pub total_allocs: u64,
    /// Total `pfree` calls served by this arena.
    pub total_frees: u64,
    /// High-water mark of simultaneously live pages.
    pub peak_live_pages: usize,
}

/// The simulated kernel physical-page allocator.
///
/// The arena owns every page it hands out and recycles descriptors through
/// a free list, so a [`PageDesc`] is only valid between the `palloc` that
/// produced it and the matching `pfree`. All methods are thread-safe; any
/// thread may allocate, free, or resolve descriptors — mirroring the fact
/// that TLMM page descriptors are accessible by all threads in the
/// process (§4).
pub struct PageArena {
    inner: Mutex<ArenaInner>,
    total_allocs: AtomicU64,
    total_frees: AtomicU64,
    peak_live: AtomicU64,
    /// Per-domain kernel-crossing accounting (an arena is owned by one
    /// reducer domain, so "per arena" is "per domain").
    crossings: stats::CrossingCounters,
}

// SAFETY: the slot table (the only raw-pointer holder) is behind a
// `Mutex`, and the counters are atomics.
unsafe impl Send for PageArena {}
// SAFETY: as for `Send` — all shared mutation goes through the `Mutex`
// or the atomic counters; handed-out page pointers are the callers'
// responsibility (see `PageDesc`).
unsafe impl Sync for PageArena {}

impl PageArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PageArena {
            inner: Mutex::new(ArenaInner {
                slots: Vec::new(),
                free_head: u32::MAX,
                live: 0,
            }),
            total_allocs: AtomicU64::new(0),
            total_frees: AtomicU64::new(0),
            peak_live: AtomicU64::new(0),
            crossings: stats::CrossingCounters::new(),
        }
    }

    /// This arena's (i.e. this domain's) kernel-crossing counters.
    pub fn crossings(&self) -> &stats::CrossingCounters {
        &self.crossings
    }

    /// Simulated `sys_palloc`: allocates a zeroed physical page and
    /// returns its descriptor.
    pub fn palloc(&self) -> PageDesc {
        self.crossings.charge_palloc();
        self.total_allocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `page_layout()` is the non-zero-sized 4-KiB layout.
        let page = unsafe { alloc_zeroed(page_layout()) };
        assert!(!page.is_null(), "simulated physical memory exhausted");

        let mut inner = self.inner.lock();
        let pd = Self::insert_live_page(&mut inner, page);
        self.peak_live
            .fetch_max(inner.live as u64, Ordering::Relaxed);
        self.debug_validate(&inner);
        pd
    }

    /// Simulated batched `sys_palloc`: allocates `n` zeroed physical
    /// pages and appends their descriptors to `out`, charging a **single**
    /// kernel crossing for the whole batch (the §4 batching argument — a
    /// batched allocation syscall amortizes the crossing the same way a
    /// multi-page `sys_pmap` does).
    pub fn palloc_batch(&self, n: usize, out: &mut Vec<PageDesc>) {
        if n == 0 {
            return;
        }
        self.crossings.charge_palloc_batch(n as u64);
        self.total_allocs.fetch_add(n as u64, Ordering::Relaxed);
        out.reserve(n);
        let mut inner = self.inner.lock();
        for _ in 0..n {
            // SAFETY: `page_layout()` is the non-zero-sized 4-KiB layout.
            let page = unsafe { alloc_zeroed(page_layout()) };
            assert!(!page.is_null(), "simulated physical memory exhausted");
            out.push(Self::insert_live_page(&mut inner, page));
        }
        self.peak_live
            .fetch_max(inner.live as u64, Ordering::Relaxed);
        self.debug_validate(&inner);
    }

    /// Installs a freshly allocated page into the slot table (free-list
    /// slot if available, otherwise a new slot) and returns its
    /// descriptor. Caller holds the arena lock and handles stats.
    fn insert_live_page(inner: &mut ArenaInner, page: *mut u8) -> PageDesc {
        inner.live += 1;
        if inner.free_head != u32::MAX {
            let idx = inner.free_head;
            match inner.slots[idx as usize] {
                Slot::Free(next) => inner.free_head = next,
                Slot::Live(_) => unreachable!("free list points at live slot"),
            }
            inner.slots[idx as usize] = Slot::Live(page);
            PageDesc(idx)
        } else {
            let idx = inner.slots.len();
            assert!(
                idx < u32::MAX as usize - 1,
                "page descriptor space exhausted"
            );
            inner.slots.push(Slot::Live(page));
            PageDesc(idx as u32)
        }
    }

    /// Simulated `sys_pfree`: frees a descriptor and its physical page.
    ///
    /// # Panics
    ///
    /// Panics on double-free, on [`PD_NULL`], or on a descriptor this
    /// arena never issued — all of which would be kernel bugs or
    /// use-after-free in the runtime above, and are therefore loud.
    pub fn pfree(&self, pd: PageDesc) {
        assert!(pd != PD_NULL, "pfree(PD_NULL)");
        self.crossings.charge_pfree();
        self.total_frees.fetch_add(1, Ordering::Relaxed);

        let page = {
            let mut inner = self.inner.lock();
            let free_head = inner.free_head;
            let slot = inner
                .slots
                .get_mut(pd.0 as usize)
                .unwrap_or_else(|| panic!("pfree of unknown descriptor {pd:?}"));
            let page = match *slot {
                Slot::Live(p) => p,
                Slot::Free(_) => panic!("double pfree of {pd:?}"),
            };
            *slot = Slot::Free(free_head);
            inner.free_head = pd.0;
            inner.live -= 1;
            self.debug_validate(&inner);
            page
        };
        // SAFETY: `page` came from `alloc_zeroed(page_layout())` in
        // `palloc`; marking the slot `Free` above makes this the last
        // use of the pointer.
        unsafe { dealloc(page, page_layout()) };
    }

    /// Debug-build audit of page-descriptor ownership: the `live`
    /// counter must equal the number of `Live` slots, the free list must
    /// thread through exactly the `Free` slots (no cycles, no repeats,
    /// no dangling indices), and live pages must be distinct allocations.
    /// Release builds compile this to nothing.
    fn debug_validate(&self, inner: &ArenaInner) {
        let _ = inner;
        #[cfg(debug_assertions)]
        {
            let mut live = 0usize;
            let mut free = 0usize;
            let mut bases = std::collections::HashSet::new();
            for slot in &inner.slots {
                match *slot {
                    Slot::Live(p) => {
                        live += 1;
                        debug_assert!(!p.is_null(), "live slot holds null page");
                        debug_assert!(bases.insert(p as usize), "two descriptors own one page");
                    }
                    Slot::Free(_) => free += 1,
                }
            }
            debug_assert_eq!(inner.live, live, "arena live counter out of sync");
            let mut walked = 0usize;
            let mut cursor = inner.free_head;
            while cursor != u32::MAX {
                debug_assert!(
                    (cursor as usize) < inner.slots.len(),
                    "free list escapes the slot table"
                );
                match inner.slots[cursor as usize] {
                    Slot::Free(next) => cursor = next,
                    Slot::Live(_) => {
                        panic!("free list points at live descriptor {cursor}")
                    }
                }
                walked += 1;
                debug_assert!(walked <= inner.slots.len(), "free list cycle");
            }
            debug_assert_eq!(walked, free, "free list misses free slots");
        }
    }

    /// Kernel-internal descriptor resolution: base pointer of the page.
    ///
    /// This is what the simulated MMU consults when a [`TlmmRegion`]
    /// installs a mapping; user code never calls it on the fast path.
    ///
    /// # Panics
    ///
    /// Panics if `pd` is not currently live.
    ///
    /// [`TlmmRegion`]: crate::TlmmRegion
    pub fn page_base(&self, pd: PageDesc) -> *mut u8 {
        let inner = self.inner.lock();
        match inner.slots.get(pd.0 as usize) {
            Some(&Slot::Live(p)) => p,
            _ => panic!("page_base of dead descriptor {pd:?}"),
        }
    }

    /// Returns `true` if `pd` currently names a live page.
    pub fn is_live(&self, pd: PageDesc) -> bool {
        if pd == PD_NULL {
            return false;
        }
        let inner = self.inner.lock();
        matches!(inner.slots.get(pd.0 as usize), Some(&Slot::Live(_)))
    }

    /// Number of currently live pages.
    pub fn live_pages(&self) -> usize {
        self.inner.lock().live
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> PageArenaStats {
        PageArenaStats {
            live_pages: self.live_pages(),
            total_allocs: self.total_allocs.load(Ordering::Relaxed),
            total_frees: self.total_frees.load(Ordering::Relaxed),
            peak_live_pages: self.peak_live.load(Ordering::Relaxed) as usize,
        }
    }
}

impl Default for PageArena {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PageArena {
    fn drop(&mut self) {
        // Release any pages the runtime leaked (e.g. after a panic); the
        // kernel reclaims physical memory when the process dies, and so do
        // we when the arena does.
        let inner = self.inner.get_mut();
        for slot in &inner.slots {
            if let Slot::Live(p) = *slot {
                // SAFETY: live slots hold pages from `palloc`'s
                // allocator, not yet freed (else they would be `Free`).
                unsafe { dealloc(p, page_layout()) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palloc_returns_zeroed_distinct_pages() {
        let arena = PageArena::new();
        let a = arena.palloc();
        let b = arena.palloc();
        assert_ne!(a, b);
        let pa = arena.page_base(a);
        let pb = arena.page_base(b);
        assert_ne!(pa, pb);
        for off in [0usize, 1, PAGE_SIZE / 2, PAGE_SIZE - 1] {
            // SAFETY: both pages are live and `off < PAGE_SIZE`.
            unsafe {
                assert_eq!(*pa.add(off), 0);
                assert_eq!(*pb.add(off), 0);
            }
        }
        arena.pfree(a);
        arena.pfree(b);
        assert_eq!(arena.live_pages(), 0);
    }

    #[test]
    fn descriptors_are_recycled_lifo() {
        let arena = PageArena::new();
        let a = arena.palloc();
        let b = arena.palloc();
        arena.pfree(a);
        let c = arena.palloc();
        // The freed descriptor slot is reused.
        assert_eq!(c.raw(), a.raw());
        arena.pfree(b);
        arena.pfree(c);
    }

    #[test]
    fn recycled_descriptor_points_at_fresh_zeroed_page() {
        let arena = PageArena::new();
        let a = arena.palloc();
        // SAFETY: `a` is live and the write is in bounds.
        unsafe { *arena.page_base(a) = 0xAB };
        arena.pfree(a);
        let b = arena.palloc();
        // Same descriptor number, but the memory is zeroed again.
        assert_eq!(b.raw(), a.raw());
        // SAFETY: `b` is live; reads byte 0 of the page.
        unsafe { assert_eq!(*arena.page_base(b), 0) };
        arena.pfree(b);
    }

    #[test]
    #[should_panic(expected = "double pfree")]
    fn double_free_panics() {
        let arena = PageArena::new();
        let a = arena.palloc();
        arena.pfree(a);
        arena.pfree(a);
    }

    #[test]
    #[should_panic(expected = "pfree(PD_NULL)")]
    fn pfree_null_panics() {
        let arena = PageArena::new();
        arena.pfree(PD_NULL);
    }

    #[test]
    fn palloc_batch_charges_one_crossing_for_n_pages() {
        let arena = PageArena::new();
        let mut pds = Vec::new();
        arena.palloc_batch(6, &mut pds);
        assert_eq!(pds.len(), 6);
        assert_eq!(arena.live_pages(), 6);
        let s = arena.crossings().snapshot();
        assert_eq!(s.palloc_calls, 1, "one crossing for the whole batch");
        assert_eq!(s.palloc_pages, 6);
        // Pages are distinct, live, and zeroed — same contract as palloc.
        let mut bases = std::collections::HashSet::new();
        for &pd in &pds {
            assert!(arena.is_live(pd));
            let base = arena.page_base(pd);
            assert!(bases.insert(base as usize), "duplicate page in batch");
            // SAFETY: `pd` is live; reads byte 0 of the page.
            unsafe { assert_eq!(*base, 0) };
        }
        for pd in pds {
            arena.pfree(pd);
        }
        assert_eq!(arena.live_pages(), 0);
    }

    #[test]
    fn palloc_batch_zero_is_free() {
        let arena = PageArena::new();
        let mut pds = Vec::new();
        arena.palloc_batch(0, &mut pds);
        assert!(pds.is_empty());
        assert_eq!(arena.crossings().snapshot().total_crossings(), 0);
    }

    #[test]
    fn palloc_batch_reuses_freed_descriptors() {
        let arena = PageArena::new();
        let a = arena.palloc();
        let b = arena.palloc();
        arena.pfree(a);
        arena.pfree(b);
        let mut pds = Vec::new();
        arena.palloc_batch(3, &mut pds);
        // Two recycled slots plus one fresh one.
        let mut raws: Vec<u32> = pds.iter().map(|p| p.raw()).collect();
        raws.sort_unstable();
        assert_eq!(raws, vec![0, 1, 2]);
        for pd in pds {
            arena.pfree(pd);
        }
    }

    #[test]
    fn is_live_tracks_lifecycle() {
        let arena = PageArena::new();
        assert!(!arena.is_live(PD_NULL));
        let a = arena.palloc();
        assert!(arena.is_live(a));
        arena.pfree(a);
        assert!(!arena.is_live(a));
    }

    #[test]
    fn stats_track_peak_and_totals() {
        let arena = PageArena::new();
        let pds: Vec<_> = (0..5).map(|_| arena.palloc()).collect();
        for pd in &pds[..3] {
            arena.pfree(*pd);
        }
        let s = arena.stats();
        assert_eq!(s.live_pages, 2);
        assert_eq!(s.total_allocs, 5);
        assert_eq!(s.total_frees, 3);
        assert_eq!(s.peak_live_pages, 5);
        for pd in &pds[3..] {
            arena.pfree(*pd);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn descriptors_are_shareable_across_threads() {
        use std::sync::Arc;
        let arena = Arc::new(PageArena::new());
        let pd = arena.palloc();
        // SAFETY: `pd` is live and this thread has sole access.
        unsafe { *arena.page_base(pd) = 42 };
        let arena2 = Arc::clone(&arena);
        // SAFETY: the page stays live (freed by neither thread) and the
        // spawn/join pair orders the write before this read.
        let got = std::thread::spawn(move || unsafe { *arena2.page_base(pd) })
            .join()
            .unwrap();
        assert_eq!(got, 42);
        arena.pfree(pd);
    }
}

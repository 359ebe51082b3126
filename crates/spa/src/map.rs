//! The page-granular **SPA map** of SPAA 2012 §6.
//!
//! A SPA map is allocated on a per-page basis (4096 bytes on x86-64) and
//! holds, in this exact order:
//!
//! * a **view array** of 248 elements, each a pair of 8-byte pointers to a
//!   local view and its monoid (16 bytes per element, 3968 bytes total);
//! * a **log array** of 120 bytes containing 1-byte indices of the valid
//!   elements of the view array;
//! * the 4-byte **number of valid elements** in the view array; and
//! * the 4-byte **number of logs** in the log array.
//!
//! Invariant (§6): an empty element is represented by a pair of null
//! pointers. The view-to-log ratio is deliberately about 2:1; once the
//! number of insertions exceeds the log capacity the map *stops keeping
//! track of logs* and sequencing falls back to scanning the whole view
//! array, whose cost is amortized against the many insertions that caused
//! the overflow.
//!
//! The layout is used in two places:
//!
//! * **private SPA maps**, one worker's current views: the pages of its
//!   `mmap`-reserved slot space, where a reducer's `tlmm_addr` is a byte
//!   offset (the space stands in for the worker's TLMM region); and
//! * [`SpaMapBox`], a map on a heap page of its own, used only by
//!   `benchmark/`, `crates/bench` and this crate's tests. View transferal
//!   does not go through it: a detach copies the private pairs into one
//!   flat list of `(slot, pair)`.
//!
//! Because private maps live in raw page memory, the accessor type
//! [`SpaMapRef`] operates over a raw pointer; all its methods are safe to
//! *call* but construction ([`SpaMapRef::from_raw`]) is unsafe and pins
//! the aliasing contract on the caller, exactly as the Cilk-M runtime pins
//! it on its scheduling discipline.

use std::alloc::{alloc_zeroed, dealloc, Layout};

/// Number of view-array elements per SPA map (248 × 16 B = 3968 B).
pub const VIEWS_PER_MAP: usize = 248;
/// Number of 1-byte log entries per SPA map.
pub const LOG_CAPACITY: usize = 120;
/// Size of the whole map: exactly one page.
pub const MAP_SIZE: usize = 4096;

/// Sentinel stored in `nlog` after the log overflows.
const LOG_OVERFLOWED: u32 = u32::MAX;

/// One view-array element: pointers to a local view and to its monoid.
///
/// Both pointers are type-erased; the reducer layer above knows how to
/// interpret them (the monoid pointer leads to a vtable that can reduce
/// and destroy the view). An empty element is `(null, null)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct ViewPair {
    /// Pointer to the local view object (null when empty).
    pub view: *mut u8,
    /// Pointer to the monoid implementation (null when empty).
    pub monoid: *const u8,
}

impl ViewPair {
    /// The empty element: a pair of null pointers.
    pub const NULL: ViewPair = ViewPair {
        view: std::ptr::null_mut(),
        monoid: std::ptr::null(),
    };

    /// Returns `true` if this element is empty.
    #[inline]
    pub fn is_null(self) -> bool {
        self.view.is_null()
    }
}

/// The in-memory layout of one SPA map. `repr(C)` and statically asserted
/// to be exactly one page.
#[repr(C)]
pub struct SpaMapLayout {
    views: [ViewPair; VIEWS_PER_MAP],
    log: [u8; LOG_CAPACITY],
    nvalid: u32,
    nlog: u32,
}

const _: () = assert!(std::mem::size_of::<SpaMapLayout>() == MAP_SIZE);
const _: () = assert!(std::mem::align_of::<SpaMapLayout>() <= MAP_SIZE);

/// Result of inserting into a SPA map: whether the index was logged.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The index was recorded in the log array.
    Logged,
    /// The log array is full; the map is now in scan-everything mode.
    Overflowed,
}

/// An unsafe-to-construct, safe-to-use accessor over a SPA map in raw
/// memory (a page of a worker's slot space or a [`SpaMapBox`]
/// allocation).
#[derive(Copy, Clone)]
pub struct SpaMapRef {
    ptr: *mut SpaMapLayout,
}

impl SpaMapRef {
    /// Wraps a raw pointer to page-sized, properly initialized memory.
    ///
    /// # Safety
    ///
    /// `ptr` must point to [`MAP_SIZE`] bytes, aligned for
    /// [`SpaMapLayout`], that remain valid for the life of the `SpaMapRef`
    /// and all its copies, and that start out all-zero (an all-zero page
    /// *is* a valid empty SPA map — that is why freshly `palloc`ed and
    /// recycled pages can be used directly, §7). The caller must guarantee
    /// that no two threads access the map concurrently.
    #[inline]
    pub unsafe fn from_raw(ptr: *mut u8) -> SpaMapRef {
        debug_assert!(!ptr.is_null());
        debug_assert_eq!(ptr as usize % std::mem::align_of::<SpaMapLayout>(), 0);
        SpaMapRef {
            ptr: ptr as *mut SpaMapLayout,
        }
    }

    /// Under the model checker (or the dynamic sanitizer), record a
    /// whole-map read at the map's base address: the access contract is
    /// "one thread at a time per map", so map granularity is exactly the
    /// invariant to check, and it keeps the checkers' plain-memory
    /// bookkeeping per map instead of per field. The sanitizer's shadow
    /// (not the SP-labeled reducer shadow) is the right one here: pooled
    /// maps legitimately cross logically-parallel strands when recycled.
    #[inline]
    fn note_read(&self) {
        #[cfg(feature = "model")]
        cilkm_checker::trace::note_read(self.ptr as usize, "SpaMap");
        #[cfg(all(not(feature = "model"), feature = "sanitize"))]
        cilkm_san::shadow_read(self.ptr as usize, "SpaMap");
    }

    /// Mirror of [`SpaMapRef::note_read`] for mutations.
    #[inline]
    fn note_write(&self) {
        #[cfg(feature = "model")]
        cilkm_checker::trace::note_write(self.ptr as usize, "SpaMap");
        #[cfg(all(not(feature = "model"), feature = "sanitize"))]
        cilkm_san::shadow_write(self.ptr as usize, "SpaMap");
    }

    /// Raw field accessors: every read/write goes through a fresh,
    /// immediately-dropped place expression, so no reference is ever
    /// live across a user callback (which may itself hold a `SpaMapRef`
    /// copy to this or another map).
    #[inline]
    fn nvalid_raw(&self) -> u32 {
        self.note_read();
        // SAFETY: `self.ptr` points at a live, page-aligned
        // `SpaMapLayout` (guaranteed by `from_raw`'s contract), and the
        // place expression is read and dropped immediately.
        unsafe { (*self.ptr).nvalid }
    }

    #[inline]
    fn set_nvalid_raw(&self, v: u32) {
        self.note_write();
        // SAFETY: as in `nvalid_raw`; the single-thread-per-map contract
        // makes the store non-racing.
        unsafe { (*self.ptr).nvalid = v }
    }

    #[inline]
    fn nlog_raw(&self) -> u32 {
        self.note_read();
        // SAFETY: as in `nvalid_raw`.
        unsafe { (*self.ptr).nlog }
    }

    #[inline]
    fn set_nlog_raw(&self, v: u32) {
        self.note_write();
        // SAFETY: as in `set_nvalid_raw`.
        unsafe { (*self.ptr).nlog = v }
    }

    #[inline]
    fn view_raw(&self, idx: usize) -> ViewPair {
        debug_assert!(idx < VIEWS_PER_MAP);
        self.note_read();
        // SAFETY: as in `nvalid_raw`; `idx` is bounds-checked above and
        // the borrow ends within this expression.
        unsafe { (&(*self.ptr).views)[idx] }
    }

    #[inline]
    fn set_view_raw(&self, idx: usize, pair: ViewPair) {
        self.note_write();
        // SAFETY: as in `view_raw`; the mutable borrow is created and
        // dropped inside this single statement.
        unsafe { (&mut (*self.ptr).views)[idx] = pair }
    }

    #[inline]
    fn log_raw(&self, i: usize) -> u8 {
        self.note_read();
        // SAFETY: as in `view_raw` (the log array indexing panics rather
        // than going out of bounds).
        unsafe { (&(*self.ptr).log)[i] }
    }

    #[inline]
    fn set_log_raw(&self, i: usize, v: u8) {
        self.note_write();
        // SAFETY: as in `set_view_raw`.
        unsafe { (&mut (*self.ptr).log)[i] = v }
    }

    /// Number of valid (non-null) elements.
    #[inline]
    pub fn nvalid(&self) -> usize {
        self.nvalid_raw() as usize
    }

    /// Returns `true` if the map holds no views.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nvalid_raw() == 0
    }

    /// Returns `true` if the log has overflowed (scan-everything mode).
    #[inline]
    pub fn log_overflowed(&self) -> bool {
        self.nlog_raw() == LOG_OVERFLOWED
    }

    /// Number of live log entries (0 after overflow; see
    /// [`SpaMapRef::log_overflowed`]).
    #[inline]
    pub fn nlog(&self) -> usize {
        let n = self.nlog_raw();
        if n == LOG_OVERFLOWED {
            0
        } else {
            n as usize
        }
    }

    /// Constant-time read of element `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> ViewPair {
        self.view_raw(idx)
    }

    /// Raw pointer to element `idx` — the address a reducer's `tlmm_addr`
    /// designates. The memory-mapped lookup fast path reads `(*ptr).view`
    /// directly: one load to fetch this address from the reducer object,
    /// one load through it, one predictable null check.
    #[inline]
    pub fn slot_ptr(&self, idx: usize) -> *mut ViewPair {
        debug_assert!(idx < VIEWS_PER_MAP);
        // SAFETY: `self.ptr` is a live `SpaMapLayout` and
        // `idx < VIEWS_PER_MAP`, so the offset stays inside the views
        // array; only the address is formed here, no dereference.
        unsafe { (*self.ptr).views.as_mut_ptr().add(idx) }
    }

    /// Inserts a pair at `idx` (which must currently be empty), logging
    /// the index if the log still has room.
    pub fn insert(&self, idx: usize, pair: ViewPair) -> InsertOutcome {
        debug_assert!(!pair.is_null(), "inserting a null pair");
        debug_assert!(
            self.view_raw(idx).is_null(),
            "insert over occupied SPA slot {idx}"
        );
        self.set_view_raw(idx, pair);
        self.set_nvalid_raw(self.nvalid_raw() + 1);
        self.debug_validate_counts();
        let nlog = self.nlog_raw();
        if nlog == LOG_OVERFLOWED {
            return InsertOutcome::Overflowed;
        }
        if (nlog as usize) < LOG_CAPACITY {
            self.set_log_raw(nlog as usize, idx as u8);
            self.set_nlog_raw(nlog + 1);
            InsertOutcome::Logged
        } else {
            // The paper: once the number of logs exceeds the log array
            // length, stop keeping track of logs; the cost of scanning the
            // whole view array amortizes against these insertions.
            self.set_nlog_raw(LOG_OVERFLOWED);
            InsertOutcome::Overflowed
        }
    }

    /// Removes the pair at `idx`, returning it. The slot becomes empty;
    /// the log is left as-is (stale entries are skipped by sequencing).
    pub fn remove(&self, idx: usize) -> ViewPair {
        let pair = self.view_raw(idx);
        debug_assert!(!pair.is_null(), "remove of empty SPA slot {idx}");
        self.set_view_raw(idx, ViewPair::NULL);
        self.set_nvalid_raw(self.nvalid_raw() - 1);
        self.debug_validate_counts();
        pair
    }

    /// Sequences through the valid elements without modifying the map.
    ///
    /// Walks the log (deduplicating stale/duplicate entries with a 248-bit
    /// mask) or, after overflow, scans the entire view array. Linear time
    /// in `max(nlog, overflow ? 248 : 0)`.
    pub fn for_each_valid(&self, mut f: impl FnMut(usize, ViewPair)) {
        if self.nvalid_raw() == 0 {
            return;
        }
        if self.nlog_raw() == LOG_OVERFLOWED {
            for idx in 0..VIEWS_PER_MAP {
                let pair = self.view_raw(idx);
                if !pair.is_null() {
                    f(idx, pair);
                }
            }
        } else {
            let mut seen = [0u64; 4];
            for i in 0..self.nlog_raw() as usize {
                let idx = self.log_raw(i) as usize;
                let (w, b) = (idx / 64, idx % 64);
                if seen[w] & (1 << b) != 0 {
                    continue;
                }
                seen[w] |= 1 << b;
                let pair = self.view_raw(idx);
                if !pair.is_null() {
                    f(idx, pair);
                }
            }
        }
    }

    /// Sequences through the valid elements, zeroing each as it goes, and
    /// resets the counts: the map is empty afterwards. This is the
    /// primitive behind **view transferal** (§7: the copy out of a
    /// private map that zeroes it as it goes) and the region-end
    /// collection of the root context's views.
    pub fn drain(&self, mut f: impl FnMut(usize, ViewPair)) {
        if self.nvalid_raw() != 0 {
            if self.nlog_raw() == LOG_OVERFLOWED {
                for idx in 0..VIEWS_PER_MAP {
                    let pair = self.view_raw(idx);
                    if !pair.is_null() {
                        self.set_view_raw(idx, ViewPair::NULL);
                        f(idx, pair);
                    }
                }
            } else {
                for i in 0..self.nlog_raw() as usize {
                    let idx = self.log_raw(i) as usize;
                    let pair = self.view_raw(idx);
                    if !pair.is_null() {
                        self.set_view_raw(idx, ViewPair::NULL);
                        f(idx, pair);
                    }
                }
            }
        }
        // Footnote 6: only the number of logs and the view array must
        // contain zeros for the map to be recyclable.
        self.set_nvalid_raw(0);
        self.set_nlog_raw(0);
        self.debug_validate_counts();
    }

    /// Bulk view transferal: moves every valid element of this map into
    /// `dst` — which must be empty — **carrying the log state over
    /// verbatim**, and leaves this map empty (counts reset per footnote
    /// 6). Unlike pairing [`SpaMapRef::drain`] with per-element
    /// [`SpaMapRef::insert`], the destination does not replay the logging
    /// protocol: live log entries (stale ones included — sequencing skips
    /// nulls) are copied as bytes and an overflowed source leaves the
    /// destination in scan-everything mode, so the destination sequences
    /// exactly like the source would have. Returns the number of views
    /// moved.
    ///
    /// The destination may carry *stale* log state of its own (entries —
    /// or even an overflow marker — left behind by an insert/remove
    /// history; `remove` never rewinds the log): with every view slot
    /// null those entries can never be sequenced, so the carried-over
    /// log count simply overwrites them.
    pub fn drain_into(&self, dst: SpaMapRef) -> usize {
        debug_assert!(dst.is_empty(), "drain_into over a non-empty map");
        let moved = self.nvalid_raw();
        if moved != 0 {
            let nlog = self.nlog_raw();
            if nlog == LOG_OVERFLOWED {
                for idx in 0..VIEWS_PER_MAP {
                    let pair = self.view_raw(idx);
                    if !pair.is_null() {
                        self.set_view_raw(idx, ViewPair::NULL);
                        dst.set_view_raw(idx, pair);
                    }
                }
                dst.set_nlog_raw(LOG_OVERFLOWED);
            } else {
                for i in 0..nlog as usize {
                    let idx = self.log_raw(i) as usize;
                    dst.set_log_raw(i, idx as u8);
                    let pair = self.view_raw(idx);
                    if !pair.is_null() {
                        self.set_view_raw(idx, ViewPair::NULL);
                        dst.set_view_raw(idx, pair);
                    }
                }
                dst.set_nlog_raw(nlog);
            }
            dst.set_nvalid_raw(moved);
        }
        self.set_nvalid_raw(0);
        self.set_nlog_raw(0);
        self.debug_validate_counts();
        dst.debug_validate_counts();
        moved as usize
    }

    /// Debug-build invariant check: `nvalid` must equal the number of
    /// non-null view slots, every live log entry must index a real slot,
    /// and a non-overflowed log can never exceed its capacity. Release
    /// builds compile this to nothing.
    #[inline]
    fn debug_validate_counts(&self) {
        #[cfg(debug_assertions)]
        {
            let mut occupied = 0u32;
            for idx in 0..VIEWS_PER_MAP {
                if !self.view_raw(idx).is_null() {
                    occupied += 1;
                }
            }
            debug_assert_eq!(
                self.nvalid_raw(),
                occupied,
                "SPA map nvalid disagrees with occupied slots"
            );
            let nlog = self.nlog_raw();
            if nlog != LOG_OVERFLOWED {
                debug_assert!(
                    nlog as usize <= LOG_CAPACITY,
                    "SPA map log count {nlog} exceeds capacity"
                );
                for i in 0..nlog as usize {
                    debug_assert!(
                        (self.log_raw(i) as usize) < VIEWS_PER_MAP,
                        "SPA map log entry {i} out of range"
                    );
                }
            }
        }
    }

    /// Resets the map to empty without visiting elements (test helper).
    pub fn clear_all(&self) {
        self.drain(|_, _| {});
    }

    /// Forces the map into log-overflow (scan-everything) mode. Used by
    /// the SPA ablation bench and by tests of the fallback path.
    pub fn force_log_overflow(&self) {
        self.set_nlog_raw(LOG_OVERFLOWED);
    }
}

// SAFETY: the raw pointer is a capability handed around under the
// runtime's protocol (one thread accesses a map at a time); the data it
// points at is plain memory with no thread affinity.
unsafe impl Send for SpaMapRef {}

/// An owned, heap-allocated SPA map in shared memory — a **public SPA
/// map** in the paper's terms (§7). Page-aligned and zero-initialized, so
/// it is born empty and recyclable.
pub struct SpaMapBox {
    ptr: *mut u8,
}

impl SpaMapBox {
    /// Allocates a fresh empty map.
    pub fn new() -> SpaMapBox {
        let layout = Layout::from_size_align(MAP_SIZE, MAP_SIZE).expect("static layout");
        // SAFETY: `layout` is the valid, non-zero-sized one-page layout.
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "allocation failure for public SPA map");
        SpaMapBox { ptr }
    }

    /// Accessor over the owned map.
    #[inline]
    pub fn as_ref(&self) -> SpaMapRef {
        // SAFETY: `self.ptr` is the page-aligned, zero-initialized (and
        // hence validly laid out) map this box allocated and still owns.
        unsafe { SpaMapRef::from_raw(self.ptr) }
    }
}

impl Default for SpaMapBox {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SpaMapBox {
    fn drop(&mut self) {
        // Dropping a non-empty map would leak the views it references;
        // the reducer runtime always drains before recycling. Be loud in
        // debug builds, tolerant (leak, don't crash) in release.
        debug_assert!(
            self.as_ref().is_empty(),
            "dropping a non-empty public SPA map leaks views"
        );
        let layout = Layout::from_size_align(MAP_SIZE, MAP_SIZE).expect("static layout");
        // SAFETY: `self.ptr` was obtained from `alloc_zeroed` with this
        // exact layout and is freed exactly once (Drop).
        unsafe { dealloc(self.ptr, layout) };
    }
}

// SAFETY: the box exclusively owns its heap page; see `SpaMapRef`'s
// `Send` rationale for the access discipline.
unsafe impl Send for SpaMapBox {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(tag: usize) -> ViewPair {
        // Fabricate distinct non-null dangling pointers; tests never
        // dereference them.
        ViewPair {
            view: (0x1000 + tag * 16) as *mut u8,
            monoid: 0x8000 as *const u8,
        }
    }

    #[test]
    fn layout_is_exactly_one_page() {
        assert_eq!(std::mem::size_of::<SpaMapLayout>(), 4096);
        assert_eq!(std::mem::size_of::<ViewPair>(), 16);
    }

    #[test]
    fn zeroed_memory_is_an_empty_map() {
        let b = SpaMapBox::new();
        let m = b.as_ref();
        assert!(m.is_empty());
        assert_eq!(m.nlog(), 0);
        assert!(!m.log_overflowed());
        for i in 0..VIEWS_PER_MAP {
            assert!(m.get(i).is_null());
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let b = SpaMapBox::new();
        let m = b.as_ref();
        assert_eq!(m.insert(5, pair(1)), InsertOutcome::Logged);
        assert_eq!(m.nvalid(), 1);
        assert_eq!(m.get(5), pair(1));
        let removed = m.remove(5);
        assert_eq!(removed, pair(1));
        assert!(m.is_empty());
    }

    #[test]
    fn drain_visits_each_valid_once_and_empties() {
        let b = SpaMapBox::new();
        let m = b.as_ref();
        m.insert(1, pair(1));
        m.insert(9, pair(9));
        m.insert(200, pair(200));
        m.remove(9);
        let mut seen = Vec::new();
        m.drain(|idx, p| seen.push((idx, p)));
        seen.sort_by_key(|e| e.0);
        assert_eq!(seen, vec![(1, pair(1)), (200, pair(200))]);
        assert!(m.is_empty());
        assert_eq!(m.nlog(), 0);
        // Map is recyclable: re-insert works and logs from scratch.
        assert_eq!(m.insert(1, pair(7)), InsertOutcome::Logged);
        m.clear_all();
    }

    #[test]
    fn log_overflow_switches_to_scan_mode() {
        let b = SpaMapBox::new();
        let m = b.as_ref();
        for i in 0..LOG_CAPACITY {
            assert_eq!(m.insert(i, pair(i)), InsertOutcome::Logged);
        }
        assert_eq!(
            m.insert(LOG_CAPACITY, pair(LOG_CAPACITY)),
            InsertOutcome::Overflowed
        );
        assert!(m.log_overflowed());
        // More inserts are fine and unlogged.
        assert_eq!(m.insert(247, pair(247)), InsertOutcome::Overflowed);
        assert_eq!(m.nvalid(), LOG_CAPACITY + 2);

        // Sequencing still finds everything by scanning.
        let mut count = 0;
        m.for_each_valid(|_, _| count += 1);
        assert_eq!(count, LOG_CAPACITY + 2);

        let mut drained = 0;
        m.drain(|_, _| drained += 1);
        assert_eq!(drained, LOG_CAPACITY + 2);
        assert!(m.is_empty());
        assert!(!m.log_overflowed(), "drain resets overflow state");
    }

    #[test]
    fn drain_into_moves_views_and_log_state() {
        let src_b = SpaMapBox::new();
        let dst_b = SpaMapBox::new();
        let src = src_b.as_ref();
        let dst = dst_b.as_ref();
        src.insert(1, pair(1));
        src.insert(9, pair(9));
        src.insert(200, pair(200));
        src.remove(9); // leaves a stale log entry behind
        let moved = src.drain_into(dst);
        assert_eq!(moved, 2);
        assert!(src.is_empty());
        assert_eq!(src.nlog(), 0);
        assert_eq!(dst.nvalid(), 2);
        assert_eq!(dst.get(1), pair(1));
        assert_eq!(dst.get(200), pair(200));
        assert!(dst.get(9).is_null(), "removed slot stays empty");
        // The destination sequences exactly the surviving views.
        let mut seen = Vec::new();
        dst.for_each_valid(|idx, p| seen.push((idx, p)));
        seen.sort_by_key(|e| e.0);
        assert_eq!(seen, vec![(1, pair(1)), (200, pair(200))]);
        // Both maps are recyclable afterwards.
        assert_eq!(src.insert(3, pair(3)), InsertOutcome::Logged);
        src.clear_all();
        dst.clear_all();
    }

    #[test]
    fn drain_into_carries_overflow_mode() {
        let src_b = SpaMapBox::new();
        let dst_b = SpaMapBox::new();
        let src = src_b.as_ref();
        let dst = dst_b.as_ref();
        for i in 0..LOG_CAPACITY + 5 {
            src.insert(i, pair(i));
        }
        assert!(src.log_overflowed());
        let moved = src.drain_into(dst);
        assert_eq!(moved, LOG_CAPACITY + 5);
        assert!(src.is_empty());
        assert!(!src.log_overflowed(), "source overflow state resets");
        assert!(dst.log_overflowed(), "destination inherits scan mode");
        let mut count = 0;
        dst.for_each_valid(|_, _| count += 1);
        assert_eq!(count, LOG_CAPACITY + 5);
        dst.clear_all();
    }

    #[test]
    fn drain_into_empty_source_is_a_noop() {
        let src_b = SpaMapBox::new();
        let dst_b = SpaMapBox::new();
        assert_eq!(src_b.as_ref().drain_into(dst_b.as_ref()), 0);
        assert!(dst_b.as_ref().is_empty());
    }

    #[test]
    fn drain_into_overwrites_a_stale_destination_log() {
        // An insert/remove history leaves the destination empty but with
        // live-looking log entries (`remove` never rewinds the log) —
        // exactly the state of a private region page whose views were
        // all individually removed. The bulk move must overwrite that
        // stale state, not trip over it.
        let src_b = SpaMapBox::new();
        let dst_b = SpaMapBox::new();
        let src = src_b.as_ref();
        let dst = dst_b.as_ref();
        for i in 0..8 {
            dst.insert(i, pair(i));
        }
        for i in 0..8 {
            dst.remove(i);
        }
        assert!(dst.is_empty());
        assert_eq!(dst.nlog(), 8, "precondition: stale log entries");

        src.insert(5, pair(50));
        src.insert(40, pair(40));
        assert_eq!(src.drain_into(dst), 2);
        assert_eq!(dst.nvalid(), 2);
        assert_eq!(dst.nlog(), 2, "stale log state overwritten");
        let mut seen = Vec::new();
        dst.for_each_valid(|idx, p| seen.push((idx, p)));
        seen.sort_by_key(|e| e.0);
        assert_eq!(seen, vec![(5, pair(50)), (40, pair(40))]);
        dst.clear_all();
    }

    #[test]
    fn stale_and_duplicate_logs_are_skipped() {
        let b = SpaMapBox::new();
        let m = b.as_ref();
        m.insert(3, pair(3));
        m.remove(3);
        m.insert(3, pair(33)); // log holds 3 twice now
        let mut seen = Vec::new();
        m.for_each_valid(|idx, p| seen.push((idx, p)));
        assert_eq!(seen, vec![(3, pair(33))]);
        m.clear_all();
    }

    #[test]
    fn for_each_valid_preserves_map() {
        let b = SpaMapBox::new();
        let m = b.as_ref();
        m.insert(10, pair(10));
        m.for_each_valid(|_, _| {});
        assert_eq!(m.nvalid(), 1);
        assert_eq!(m.get(10), pair(10));
        m.clear_all();
    }

    #[test]
    fn force_log_overflow_enables_scan_path() {
        let b = SpaMapBox::new();
        let m = b.as_ref();
        m.insert(100, pair(100));
        m.force_log_overflow();
        let mut seen = Vec::new();
        m.for_each_valid(|idx, _| seen.push(idx));
        assert_eq!(seen, vec![100]);
        m.clear_all();
    }

    #[test]
    fn works_over_tlmm_like_raw_page() {
        // Simulate a raw zeroed page (what a TLMM palloc returns).
        let layout = Layout::from_size_align(MAP_SIZE, MAP_SIZE).unwrap();
        // SAFETY: valid non-zero-sized one-page layout.
        let raw = unsafe { alloc_zeroed(layout) };
        // SAFETY: `raw` is page-aligned zeroed memory — an empty map.
        let m = unsafe { SpaMapRef::from_raw(raw) };
        assert!(m.is_empty());
        m.insert(42, pair(42));
        assert_eq!(m.get(42), pair(42));
        m.clear_all();
        // SAFETY: allocated above with this exact layout; freed once.
        unsafe { dealloc(raw, layout) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "insert over occupied")]
    fn double_insert_panics_in_debug() {
        // ManuallyDrop: the unwind must not reach SpaMapBox::drop, whose
        // own debug assertion (non-empty map) would turn this into a
        // double panic.
        let b = std::mem::ManuallyDrop::new(SpaMapBox::new());
        let m = b.as_ref();
        m.insert(0, pair(1));
        m.insert(0, pair(2));
    }
}

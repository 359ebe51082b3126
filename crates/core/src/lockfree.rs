//! Lock-free view-lifecycle structures (DESIGN.md §13): the per-slot
//! leftmost registry and the serial-exclusion word.
//!
//! * [`SlotRegistry`] — a chunked array of [`SlotCell`]s, one per
//!   reducer slot (`tlmm_addr`). Registration CAS-publishes the
//!   leftmost view pointer; at region end the root context's views are
//!   folded into it one by one (`DomainInner::fold_root`), each fold
//!   under the slot's serial word. Slot numbers are recycled through a
//!   tag-stamped lock-free free-list (cells are never deallocated
//!   before domain teardown, so an ABA tag is all the protection
//!   popping needs).
//! * [`SerialBorrow`] — the per-reducer serial-exclusion word, kept in
//!   the domain-owned cell. Two states, free and held. Holders are the
//!   reducer's serial-path accesses and the region-end fold; regions
//!   are serialized by the pool's region lock, so a second holder means
//!   a serial access overlapped another one or the end of a region that
//!   updated the reducer — a Cilk serial-semantics violation, and it
//!   panics.
//!
//! Everything here goes through the `msync` atomic facade, so the
//! protocols run under the model checker's weak-memory exploration
//! (`--features model`).

use crate::msync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

use crate::domain::Slot;

/// Slots per chunk (lazily allocated; pointer-stable once published).
const CHUNK: usize = 256;
/// Chunk directory size: `CHUNK * MAX_CHUNKS` = 65 536 slots, far above
/// the "reasonable number of reducers" the paper's footnote 9 assumes.
const MAX_CHUNKS: usize = 256;
/// Slots a domain can hand out.
pub(crate) const MAX_SLOTS: usize = CHUNK * MAX_CHUNKS;
/// Free-list terminator in the `u32` slot-index space.
const NONE: u32 = u32::MAX;

/// Serial word: nobody is at a serial point for this reducer.
const SERIAL_FREE: u32 = 0;
/// Serial word: a serial-path access (update outside a region,
/// read/take/set/into_inner, drop) or the region-end fold is in
/// progress.
const SERIAL_USER: u32 = 1;

/// Per-slot atomic cell: the leftmost registry entry, the
/// serial-exclusion word, and the free-list link.
pub(crate) struct SlotCell {
    /// Leftmost view pointer; null while the slot is unregistered.
    view: AtomicPtr<u8>,
    /// Erased `MonoidInstance` pointer (valid while `view` is non-null:
    /// the owning reducer cannot finish dropping while the region-end
    /// fold holds the serial word).
    monoid: AtomicPtr<u8>,
    /// Serial-exclusion word (see module docs).
    serial: AtomicU32,
    /// Next slot index when this slot sits on the free-list.
    next_free: AtomicU32,
}

impl SlotCell {
    const fn new() -> SlotCell {
        SlotCell {
            view: AtomicPtr::new(std::ptr::null_mut()),
            monoid: AtomicPtr::new(std::ptr::null_mut()),
            serial: AtomicU32::new(SERIAL_FREE),
            next_free: AtomicU32::new(NONE),
        }
    }
}

struct CellChunk {
    cells: [SlotCell; CHUNK],
}

/// The lock-free leftmost registry + slot allocator (see module docs).
pub(crate) struct SlotRegistry {
    chunks: [AtomicPtr<CellChunk>; MAX_CHUNKS],
    /// Tagged free-list head: `(tag << 32) | slot_index`. The tag is
    /// bumped on every successful push *and* pop, so a pop's CAS cannot
    /// succeed across an interleaved pop/push pair that resurrected the
    /// same head index with a different successor (ABA).
    free_head: AtomicU64,
    /// Bump allocator for never-used slots.
    next_fresh: AtomicU32,
}

// SAFETY: all fields are atomics or arrays of atomics; the chunk
// pointers are published once via CAS and only deallocated by `Drop`
// (`&mut self`), and the view/monoid raw pointers they guard
// are handed across threads only through the acquire/release protocols
// documented on each method.
unsafe impl Send for SlotRegistry {}
// SAFETY: as above — all shared mutation goes through the atomics.
unsafe impl Sync for SlotRegistry {}

impl SlotRegistry {
    pub(crate) const fn new() -> SlotRegistry {
        SlotRegistry {
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_CHUNKS],
            free_head: AtomicU64::new(NONE as u64),
            next_fresh: AtomicU32::new(0),
        }
    }

    /// Allocates a slot: recycles from the free-list, else takes a
    /// fresh index (allocating its chunk on first use).
    pub(crate) fn alloc(&self) -> Slot {
        if let Some(s) = self.pop_free() {
            return s;
        }
        let s = self.next_fresh.fetch_add(1, Ordering::Relaxed);
        assert!(
            (s as usize) < MAX_SLOTS,
            "slot space exhausted ({MAX_SLOTS} slots)"
        );
        self.ensure_chunk(s);
        s
    }

    /// Pops the free-list (tag-stamped against ABA; see `free_head`).
    // lint: hot-path
    fn pop_free(&self) -> Option<Slot> {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let idx = head as u32;
            if idx == NONE {
                return None;
            }
            // A freed slot's chunk always exists, so `cell` is safe.
            let next = self.cell(idx).next_free.load(Ordering::Relaxed);
            let new = bump_tag(head, next);
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(idx),
                Err(h) => head = h,
            }
        }
    }

    /// Returns a slot to the free-list.
    // lint: hot-path
    pub(crate) fn free(&self, slot: Slot) {
        let cell = self.cell(slot);
        debug_assert!(cell.view.load(Ordering::Relaxed).is_null());
        let mut head = self.free_head.load(Ordering::Relaxed);
        loop {
            cell.next_free.store(head as u32, Ordering::Relaxed);
            let new = bump_tag(head, slot);
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Publishes chunk `slot / CHUNK`, racing allocators tolerated (the
    /// CAS loser frees its chunk and uses the winner's).
    fn ensure_chunk(&self, slot: Slot) {
        let c = slot as usize / CHUNK;
        if !self.chunks[c].load(Ordering::Acquire).is_null() {
            return;
        }
        let fresh = Box::into_raw(Box::new(CellChunk {
            cells: [const { SlotCell::new() }; CHUNK],
        }));
        if let Err(_won) = self.chunks[c].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: `fresh` never escaped this thread.
            drop(unsafe { Box::from_raw(fresh) });
        }
    }

    /// The cell of an allocated slot. Callers must pass a slot that was
    /// returned by [`SlotRegistry::alloc`] (its chunk then exists).
    pub(crate) fn cell(&self, slot: Slot) -> &SlotCell {
        let c = slot as usize / CHUNK;
        let chunk = self.chunks[c].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "cell() on an unallocated slot {slot}");
        // SAFETY: chunk pointers are published once (ensure_chunk) and
        // stay valid until `Drop` takes `&mut self`, and the index is in
        // bounds by construction.
        unsafe { (*chunk).cells.get_unchecked(slot as usize % CHUNK) }
    }

    /// CAS-publishes the leftmost view + monoid for `slot`. Panics if
    /// the slot is already registered (a lifecycle bug, not a race).
    pub(crate) fn register(&self, slot: Slot, view: *mut u8, monoid: *const u8) {
        let cell = self.cell(slot);
        cell.monoid.store(monoid as *mut u8, Ordering::Relaxed);
        // Release-publish the view *after* the monoid, so any thread
        // that Acquire-loads a non-null view also sees its monoid.
        let r = cell.view.compare_exchange(
            std::ptr::null_mut(),
            view,
            Ordering::Release,
            Ordering::Relaxed,
        );
        assert!(r.is_ok(), "slot {slot} already registered");
    }

    /// Unpublishes `slot`, returning its leftmost view (None if it was
    /// never registered).
    pub(crate) fn unregister(&self, slot: Slot) -> Option<*mut u8> {
        let v = self
            .cell(slot)
            .view
            .swap(std::ptr::null_mut(), Ordering::AcqRel);
        if v.is_null() {
            None
        } else {
            Some(v)
        }
    }

    /// The leftmost entry of `slot`: `(view, monoid)` if registered.
    pub(crate) fn entry(&self, slot: Slot) -> Option<(*mut u8, *const u8)> {
        let cell = self.cell(slot);
        let view = cell.view.load(Ordering::Acquire);
        if view.is_null() {
            return None;
        }
        Some((view, cell.monoid.load(Ordering::Relaxed) as *const u8))
    }

    /// Replaces the leftmost view pointer, returning the old one.
    pub(crate) fn swap_view(&self, slot: Slot, new_view: *mut u8) -> *mut u8 {
        let old = self.cell(slot).view.swap(new_view, Ordering::AcqRel);
        assert!(!old.is_null(), "slot {slot} not registered");
        old
    }

    /// Number of registered slots — test aid.
    pub(crate) fn live(&self) -> usize {
        (0..self.next_fresh.load(Ordering::Relaxed))
            .filter(|&s| !self.cell(s).view.load(Ordering::Relaxed).is_null())
            .count()
    }
}

impl Drop for SlotRegistry {
    fn drop(&mut self) {
        for c in &mut self.chunks {
            let chunk = *c.get_mut();
            if chunk.is_null() {
                continue;
            }
            // SAFETY: `&mut self` — no concurrent users; each chunk was
            // Box-allocated by ensure_chunk and unpublished here once.
            drop(unsafe { Box::from_raw(chunk) });
        }
    }
}

/// `(tag+1, idx)` — new head word for the slot free-list.
#[inline]
fn bump_tag(head: u64, idx: u32) -> u64 {
    ((head >> 32).wrapping_add(1) << 32) | idx as u64
}

/// Guard for the per-cell serial word (see module docs).
pub(crate) struct SerialBorrow<'a> {
    word: &'a AtomicU32,
}

impl<'a> SerialBorrow<'a> {
    /// Takes the serial word for a serial-path access or the region-end
    /// fold. Panics if it is already held: overlapping serial accesses
    /// are a program error under the Cilk serial semantics.
    pub(crate) fn acquire_user(cell: &'a SlotCell) -> SerialBorrow<'a> {
        let word = &cell.serial;
        if word
            .compare_exchange(
                SERIAL_FREE,
                SERIAL_USER,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            panic!(
                "concurrent serial access to a reducer \
                 (serial accesses must not overlap)"
            );
        }
        SerialBorrow { word }
    }
}

impl Drop for SerialBorrow<'_> {
    fn drop(&mut self) {
        // Skip the model release while a model thread unwinds: if the
        // execution is being torn down (ModelAbort) a traced op here
        // would nest a second abort panic inside this Drop — a double
        // panic; if a test assertion is unwinding, the failure is
        // already recorded and the execution stops anyway. (Same
        // discipline as the checker's own MutexGuard.) Outside a model
        // run the word must be released: a refused or panicking
        // region-end fold unwinds through here and the reducer lives on.
        #[cfg(feature = "model")]
        if std::thread::panicking() && cilkm_checker::in_model() {
            return;
        }
        self.word.store(SERIAL_FREE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle_through_the_tagged_free_list() {
        let r = SlotRegistry::new();
        let a = r.alloc();
        let b = r.alloc();
        assert_ne!(a, b);
        r.free(a);
        assert_eq!(r.alloc(), a, "freed slot must be reused first");
        r.free(b);
        r.free(a);
        // LIFO: last freed pops first.
        assert_eq!(r.alloc(), a);
        assert_eq!(r.alloc(), b);
    }

    #[test]
    fn registry_publishes_and_unpublishes_entries() {
        let r = SlotRegistry::new();
        let s = r.alloc();
        assert!(r.entry(s).is_none());
        let view = Box::into_raw(Box::new(5u64)) as *mut u8;
        r.register(s, view, std::ptr::null());
        assert_eq!(r.live(), 1);
        let (v, _m) = r.entry(s).unwrap();
        assert_eq!(v, view);
        let v = r.unregister(s).unwrap();
        // SAFETY: the view was Box::into_raw'ed above; unregistering
        // returned the sole remaining pointer to it.
        unsafe { drop(Box::from_raw(v as *mut u64)) };
        assert_eq!(r.live(), 0);
        assert!(r.entry(s).is_none());
    }

    #[test]
    #[should_panic(expected = "concurrent serial access")]
    fn overlapping_user_borrows_panic() {
        let r = SlotRegistry::new();
        let s = r.alloc();
        let _a = SerialBorrow::acquire_user(r.cell(s));
        let _b = SerialBorrow::acquire_user(r.cell(s));
    }
}

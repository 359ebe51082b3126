//! Hyaline-lite deferred reclamation for the lock-free view lifecycle
//! (DESIGN.md §13).
//!
//! The lock-free public-map pool unlinks nodes that a concurrent reader
//! may still be dereferencing (a `pop` racing another `pop` reads
//! `(*head).next` after losing the CAS). Freeing those nodes must
//! therefore be *deferred* until every reader that could have observed
//! them has moved on. This module implements the smallest scheme that
//! is (a) snapshot-free in the spirit of Hyaline (Nikolaev & Ravindran;
//! PAPERS.md) — retiring threads do the freeing, readers only publish a
//! single word — and (b) entirely expressible over the `msync` atomic
//! facade, so the whole protocol runs under the model checker's
//! weak-memory exploration.
//!
//! The design is a *hazard-era* collector:
//!
//! * a global **era** counter, bumped on every retirement;
//! * a fixed array of **reservation** slots; a reader pins by
//!   publishing the current era into a free slot (validating the era
//!   did not move while publishing), and unpins by storing the
//!   free-marker back;
//! * `retire` stamps the node with the pre-bump era and pushes it onto
//!   a Treiber list; a sweep frees every node whose stamp is older
//!   than the minimum published reservation. Sweeps run off the
//!   critical path — idle workers call [`Collector::collect`] — with a
//!   count-threshold backstop in `retire` so memory stays bounded even
//!   if nothing ever goes idle.
//!
//! **Soundness.** Free a node iff `stamp < min(active reservations)`.
//! A reader pinned at era `r` only ever dereferences pointers it loaded
//! *after* its validated SeqCst era read. If a node's stamp `e` (the
//! value `fetch_add` returned at retire time) satisfies `e < r`, the
//! retirement's SeqCst bump is earlier than the reader's era read in
//! the single total order of SeqCst operations, and the unlinking CAS
//! is sequenced before the bump on the retiring thread. Coherence on
//! the list head then forbids the reader's later Acquire load from
//! returning the unlinked node, so a reader can hold a reference to a
//! node only if its reservation is ≤ the node's stamp — exactly the
//! nodes the sweep refuses to free.

use crate::msync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Free-marker for reservation slots (also the value an empty slot
/// contributes to the minimum, so free slots never retain garbage).
const FREE: u64 = u64::MAX;

/// Reservation slots. Bounds the number of *concurrently pinned*
/// threads, not the number of threads: a pinning thread past the limit
/// spins until a slot frees (pins are a few loads long and never block
/// on locks, so the wait is bounded in practice).
const SLOTS: usize = 64;

/// Retired-count multiple at which the *retiring* thread sweeps. This
/// is a memory backstop, not the main reclamation path: sweeps normally
/// run off the critical path via [`Collector::collect`] (idle workers,
/// see `MmapHooks::on_idle`). A retiring thread only pays a walk
/// when the count crosses a multiple of this — triggering on `>=`
/// instead would let one stale reservation (a reader preempted while
/// pinned holds its era for a whole scheduling quantum, during which
/// nothing can be freed and every sweep re-keeps the whole list) turn
/// *every* subsequent retire into a full-list walk, a quadratic CPU
/// burn right inside the latency-sensitive window the pop sits in.
const SWEEP_THRESHOLD: usize = 512;

/// One deferred-free node.
struct Retired {
    /// Intrusive next pointer; the list is only ever traversed by the
    /// sweeping thread after it takes the whole list with a `swap`, so
    /// a plain field (written before the publishing CAS) suffices.
    next: *mut Retired,
    /// The era stamped at retirement (pre-bump `fetch_add` value).
    stamp: u64,
    /// The retired object and how to destroy it.
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

/// A hazard-era collector protecting one lock-free structure.
pub(crate) struct Collector {
    /// Global era; starts at 1 so a reservation can never equal 0 and
    /// the `FREE` marker is unambiguous.
    era: AtomicU64,
    reservations: [AtomicU64; SLOTS],
    retired: AtomicPtr<Retired>,
    retired_count: AtomicUsize,
    /// Try-lock so only one thread sweeps at a time (sweeping twice is
    /// harmless but wasteful).
    sweeping: AtomicBool,
}

// SAFETY: all fields are atomics; the raw pointers in the retired list
// are owned by the collector from `retire` until the sweep frees them,
// and the hazard-era protocol (module docs) keeps readers and the sweep
// from touching a node simultaneously.
unsafe impl Send for Collector {}
// SAFETY: as above — every shared access goes through the atomics.
unsafe impl Sync for Collector {}

impl Collector {
    pub(crate) const fn new() -> Collector {
        Collector {
            era: AtomicU64::new(1),
            reservations: [const { AtomicU64::new(FREE) }; SLOTS],
            retired: AtomicPtr::new(std::ptr::null_mut()),
            retired_count: AtomicUsize::new(0),
            sweeping: AtomicBool::new(false),
        }
    }

    /// Pins the calling thread: until the returned guard drops, no node
    /// retired at or after the current era will be freed, so pointers
    /// loaded from the protected structure stay dereferenceable.
    // lint: hot-path
    pub(crate) fn pin(&self) -> Guard<'_> {
        loop {
            for slot in self.reservations.iter() {
                if slot.load(Ordering::Relaxed) != FREE {
                    continue;
                }
                let mut era = self.era.load(Ordering::SeqCst);
                if slot
                    .compare_exchange(FREE, era, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    continue; // lost the slot; try the next one
                }
                // Validate: republish until the era is stable across the
                // publication, so the sweep's minimum cannot have missed
                // this reservation while it was being written.
                loop {
                    let now = self.era.load(Ordering::SeqCst);
                    if now == era {
                        // Sanitizer lifecycle shadow: this thread now
                        // protects every stamp >= `era`.
                        #[cfg(all(feature = "sanitize", not(feature = "model")))]
                        cilkm_san::lifecycle::pin(era);
                        return Guard { slot, _c: self };
                    }
                    slot.store(now, Ordering::SeqCst);
                    era = now;
                }
            }
            // All reservation slots taken — wait for one to free.
            crate::msync::spin_hint();
        }
    }

    /// Hands `ptr` to the collector for deferred destruction via
    /// `drop_fn`, and sweeps if enough garbage has accumulated.
    ///
    /// # Safety
    ///
    /// `ptr` must be exclusively owned by the caller (already unlinked:
    /// no new reader can reach it), valid for `drop_fn`, and retired at
    /// most once.
    pub(crate) unsafe fn retire(&self, ptr: *mut u8, drop_fn: unsafe fn(*mut u8)) {
        // Stamp strictly after the unlink (program order on this
        // thread): readers pinned at later eras can no longer reach the
        // node, per the module-level ordering argument.
        let stamp = self.era.fetch_add(1, Ordering::SeqCst);
        // Sanitizer lifecycle shadow: marks the object retired (and
        // flags a double-retire if it already was).
        #[cfg(all(feature = "sanitize", not(feature = "model")))]
        cilkm_san::lifecycle::retire(ptr as usize, stamp);
        let node = Box::into_raw(Box::new(Retired {
            next: std::ptr::null_mut(),
            stamp,
            ptr,
            drop_fn,
        }));
        self.push_retired(node);
        // Crossing-multiples trigger (see SWEEP_THRESHOLD): amortized
        // O(1) per retire even while a stale pin blocks all freeing.
        if (self.retired_count.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(SWEEP_THRESHOLD)
        {
            self.sweep();
        }
    }

    /// Off-critical-path reclamation: sweeps if any garbage is parked.
    /// Idle workers call this (via the `on_idle` hook) so
    /// the common case is that retiring threads never walk the list.
    pub(crate) fn collect(&self) {
        if self.retired_count.load(Ordering::Relaxed) != 0 {
            self.sweep();
        }
    }

    /// Publishes one retired node (allocation stays in [`Collector::retire`]).
    // lint: hot-path
    fn push_retired(&self, node: *mut Retired) {
        let mut head = self.retired.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is exclusively ours until the CAS below
            // publishes it.
            unsafe { (*node).next = head };
            match self.retired.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Frees every retired node older than all active reservations.
    /// Called opportunistically by retiring threads; never blocks.
    pub(crate) fn sweep(&self) {
        if self.sweeping.swap(true, Ordering::Acquire) {
            return; // another thread is already sweeping
        }
        let mut list = self.retired.swap(std::ptr::null_mut(), Ordering::Acquire);
        self.retired_count.store(0, Ordering::Relaxed);
        let mut min = u64::MAX;
        for slot in &self.reservations {
            min = min.min(slot.load(Ordering::SeqCst));
        }
        let mut kept = 0usize;
        while !list.is_null() {
            // SAFETY: the swap above made this thread the exclusive
            // owner of the taken list; nodes are live until freed here.
            let node = unsafe { Box::from_raw(list) };
            list = node.next;
            if node.stamp < min {
                // Sanitizer: the address may be legitimately reused
                // after this free; clear its retired-shadow entry.
                #[cfg(all(feature = "sanitize", not(feature = "model")))]
                cilkm_san::lifecycle::reclaim(node.ptr as usize);
                // SAFETY: stamp < every active reservation, so no
                // reader can still hold this pointer (module docs), and
                // retire()'s contract says it is valid for drop_fn.
                unsafe { (node.drop_fn)(node.ptr) };
            } else {
                // Still potentially visible to a pinned reader: re-home
                // it for a later sweep. `Box::into_raw` keeps the node
                // allocation alive.
                self.push_retired(Box::into_raw(node));
                kept += 1;
            }
        }
        if kept != 0 {
            self.retired_count.fetch_add(kept, Ordering::Relaxed);
        }
        self.sweeping.store(false, Ordering::Release);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // `&mut self`: no guards (they borrow the collector) and no
        // concurrent retirers exist, so everything can go now.
        let mut list = *self.retired.get_mut();
        while !list.is_null() {
            // SAFETY: exclusive access per above; each node was retired
            // exactly once with a pointer valid for its drop_fn.
            let node = unsafe { Box::from_raw(list) };
            list = node.next;
            #[cfg(all(feature = "sanitize", not(feature = "model")))]
            cilkm_san::lifecycle::reclaim(node.ptr as usize);
            // SAFETY: retire()'s contract — `ptr` valid for `drop_fn`,
            // freed exactly once (here).
            unsafe { (node.drop_fn)(node.ptr) };
        }
    }
}

/// An active pin; dropping it releases the reservation slot.
pub(crate) struct Guard<'a> {
    slot: &'a AtomicU64,
    _c: &'a Collector,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        // Skip the model release while unwinding — a traced op in a
        // Drop during a ModelAbort teardown would double panic (same
        // discipline as the checker's own MutexGuard).
        #[cfg(feature = "model")]
        if std::thread::panicking() {
            return;
        }
        #[cfg(all(feature = "sanitize", not(feature = "model")))]
        cilkm_san::lifecycle::unpin();
        self.slot.store(FREE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // lint: allow(raw-sync, the DROPS counter is a process-global test-observation static; msync's recorded atomics are scoped to one model run and cannot back a static, and the counter carries no ordering obligation the collector relies on)
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};

    static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);

    unsafe fn drop_u64(p: *mut u8) {
        // SAFETY: test nodes are `Box::into_raw(Box<u64>)`, retired once.
        drop(unsafe { Box::from_raw(p as *mut u64) });
        DROPS.fetch_add(1, StdOrdering::SeqCst);
    }

    #[test]
    fn unpinned_garbage_is_freed_by_the_sweep() {
        DROPS.store(0, StdOrdering::SeqCst);
        let c = Collector::new();
        for i in 0..SWEEP_THRESHOLD {
            let p = Box::into_raw(Box::new(i as u64)) as *mut u8;
            // SAFETY: fresh exclusive allocation, retired once.
            unsafe { c.retire(p, drop_u64) };
        }
        // The threshold-crossing retire swept with no reservations
        // active, so everything it saw was freed.
        assert!(DROPS.load(StdOrdering::SeqCst) >= SWEEP_THRESHOLD - 1);
        drop(c);
        assert_eq!(DROPS.load(StdOrdering::SeqCst), SWEEP_THRESHOLD);
    }

    #[test]
    fn a_pin_holds_back_newer_retirements_only() {
        DROPS.store(0, StdOrdering::SeqCst);
        let c = Collector::new();
        let g = c.pin();
        let p = Box::into_raw(Box::new(7u64)) as *mut u8;
        // SAFETY: fresh exclusive allocation, retired once.
        unsafe { c.retire(p, drop_u64) };
        c.sweep();
        // Retired after the pin: must survive the sweep.
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 0);
        drop(g);
        c.sweep();
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 1);
        drop(c);
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 1);
    }

    /// Negative control for the sanitizer's lifecycle detector: an
    /// access to a retired node without a covering pin must be flagged,
    /// and a double retirement must be flagged. The use-after-retire
    /// goes through the real `retire` hook; the double-retire drives
    /// the shadow directly (actually retiring the same pointer twice
    /// would be a real double free at collector drop).
    #[cfg(all(feature = "sanitize", not(feature = "model")))]
    #[test]
    fn sanitizer_flags_unpinned_access_and_double_retire() {
        unsafe fn drop_quiet(p: *mut u8) {
            // SAFETY: nodes here are `Box::into_raw(Box<u64>)`, freed once.
            drop(unsafe { Box::from_raw(p as *mut u64) });
        }
        let c = Collector::new();
        let p = Box::into_raw(Box::new(99u64)) as *mut u8;
        // A pin taken *before* the retirement covers the stamp, so the
        // access while pinned must stay clean (this is the legal
        // racing-popper pattern from MapPool::pop).
        let g = c.pin();
        // SAFETY: fresh exclusive allocation, retired once.
        unsafe { c.retire(p, drop_quiet) };
        cilkm_san::lifecycle::check_access(p as usize, "test.pinned-access");
        drop(g);
        // Pin released: the same access must now be flagged (a
        // fresh pin would be too late — its era is past the stamp).
        cilkm_san::lifecycle::check_access(p as usize, "test.unpinned-access");

        // Double retirement of one (synthetic, leaked) address.
        let q = Box::leak(Box::new(0u64)) as *mut u64 as usize;
        cilkm_san::lifecycle::retire(q, 1000);
        cilkm_san::lifecycle::retire(q, 1001);

        let report = cilkm_san::snapshot();
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.site == "test.unpinned-access"
                    && f.message.contains("use-after-retire")),
            "unpinned use-after-retire was not detected: {report:?}"
        );
        assert!(
            !report
                .findings
                .iter()
                .any(|f| f.site == "test.pinned-access"),
            "covered pinned access must not be flagged"
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("double-retire")),
            "double-retire was not detected: {report:?}"
        );
    }

    #[test]
    fn collector_drop_frees_everything_outstanding() {
        DROPS.store(0, StdOrdering::SeqCst);
        let c = Collector::new();
        for i in 0..5u64 {
            let p = Box::into_raw(Box::new(i)) as *mut u8;
            // SAFETY: fresh exclusive allocation, retired once.
            unsafe { c.retire(p, drop_u64) };
        }
        drop(c);
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 5);
    }
}

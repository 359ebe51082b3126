//! The memory-mapped reducer backend — the paper's contribution (§4–§7).
//!
//! Each worker owns a TLMM region (simulated by `cilkm-tlmm`) whose pages
//! hold **private SPA maps**: arrays of (view pointer, monoid pointer)
//! pairs indexed by the reducer's slot — the `tlmm_addr` of §6. The
//! region's table is the only page table: pages are mapped when a
//! context first reaches them and never leave the worker, so the mapped
//! ones are a hole-free prefix that only grows. The moving parts:
//!
//! * **Thread-local indirection (§5)** — the region stores only pointers;
//!   views live on the shared heap, so hypermerges need no remapping and
//!   no pointer swizzling, and the region itself needs only a trivial
//!   fixed-size-slot allocator (the domain's slot allocator).
//! * **Lookup (§6)** — resolve the slot's private SPA element and test
//!   the view pointer: a couple of loads and one predictable branch. A
//!   miss (at most once per reducer per steal) lazily creates an identity
//!   view and inserts it: one pointer-pair write plus a log append.
//! * **View transferal by copying (§7)** — a terminating context copies
//!   its private pairs into shared memory, zeroing the private entries as
//!   it goes, so the worker returns to work-stealing with a provably
//!   empty private region. What it copies them into is one flat,
//!   exactly-sized list of `(slot, pair)` ([`MmapDetached`]): "a few
//!   pointers", and the only cache lines that change owner at a steal.
//!   Copying is the only transferal path, for a stolen task's views and
//!   for the views a leapfrogging worker sets aside alike; DESIGN.md
//!   §13.3 gives the layout's reasons, §6 and §16 record why whole
//!   pages are not remapped instead.
//! * **Hypermerge (§7)** — sweep the right list into the private maps:
//!   an empty slot takes the right pair, an occupied one reduces it into
//!   the left view, left always the serially earlier operand.

use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

use cilkm_runtime::{DetachedViews, HyperHooks};
use cilkm_spa::{InsertOutcome, SpaMapRef, ViewPair, VIEWS_PER_MAP};
use cilkm_tlmm::{PageDesc, TlmmRegion};

use crate::domain::{DomainInner, Slot};
use crate::instrument::Instrument;
use crate::monoid::MonoidInstance;
use cilkm_obs::profile::Burden;

/// Per-worker state: the TLMM region and the private SPA maps living in
/// it.
pub struct MmapWorkerState {
    domain: Arc<DomainInner>,
    /// The only page table. Pages never leave a worker, so the mapped
    /// ones are a hole-free prefix `0..extent_pages()` that only grows,
    /// each a private SPA map; `Drop` frees them.
    region: TlmmRegion,
    lookups: Cell<u64>,
    /// Single-entry cache of the last successful lookup. Keyed by
    /// (domain, page, idx) so a hit needs no map walk and no domain
    /// re-validation; every hook that can change the view owned by the
    /// current context (detach, attach, merge, root collection, removal)
    /// must clear it — see [`MmapWorkerState::forget_last`].
    last: Cell<LastLookup>,
    /// Number of views currently in the private maps (sizes the list a
    /// detach copies them into).
    current_views: usize,
}

/// The last-lookup cache line: the key identifies one reducer slot in one
/// domain; `view` is its resolved view pointer.
#[derive(Copy, Clone)]
struct LastLookup {
    domain: *const DomainInner,
    page: usize,
    idx: usize,
    view: *mut u8,
}

impl LastLookup {
    const EMPTY: LastLookup = LastLookup {
        domain: std::ptr::null(),
        page: usize::MAX,
        idx: usize::MAX,
        view: std::ptr::null_mut(),
    };
}

// SAFETY: the state is owned by exactly one worker at a time and handed
// between threads only while quiescent (it travels as
// `Box<dyn Any + Send>`); the raw pointers in the lookup cache are never
// dereferenced off-worker.
unsafe impl Send for MmapWorkerState {}

/// The thread-local fast-path descriptor: a snapshot of the region's
/// translation array ([`TlmmRegion::bases`], the simulated TLB). Real
/// Cilk-M needs none of this — the MMU *is* the table — so the
/// simulation keeps its stand-in as short as possible: one TLS load
/// yields the array's base, length, and owning domain.
#[derive(Copy, Clone)]
struct MmapTls {
    bases: *const *mut u8,
    len: usize,
    domain: *const DomainInner,
    state: *mut MmapWorkerState,
}

impl MmapTls {
    const NULL: MmapTls = MmapTls {
        bases: std::ptr::null(),
        len: 0,
        domain: std::ptr::null(),
        state: std::ptr::null_mut(),
    };
}

thread_local! {
    static MMAP_TLS: Cell<MmapTls> = const { Cell::new(MmapTls::NULL) };
}

/// Refreshes the TLS snapshot after any change to the page table.
fn publish_tls(state: *mut MmapWorkerState) {
    // SAFETY: callers pass their own live worker state; only the fields'
    // addresses are snapshotted, no long-lived reference escapes.
    unsafe {
        let st = &*state;
        let bases = st.region.bases();
        MMAP_TLS.with(|c| {
            c.set(MmapTls {
                bases: bases.as_ptr(),
                len: bases.len(),
                domain: Arc::as_ptr(&st.domain),
                state,
            })
        });
    }
}

/// A detached view set: the pairs view transferal copied out of the
/// private pages (§7), each with the slot it came from. It owns its
/// views: whatever a hypermerge or an attach has not taken when this
/// drops is destroyed, so unwinding out of a user `reduce` loses none.
pub struct MmapDetached {
    views: Vec<(Slot, ViewPair)>,
}

// SAFETY: the view pointers travel with the set, which one thread owns
// at a time (the scheduler hands it over through a job's latch), and
// point at `M::View: Send` values; the monoid pointers are shared
// reads of instances their reducers keep alive.
unsafe impl Send for MmapDetached {}

impl Drop for MmapDetached {
    fn drop(&mut self) {
        for (_, pair) in self.views.drain(..) {
            // SAFETY: each pair holds a live view and the erased address
            // of the live instance that created it; draining yields each
            // exactly once.
            unsafe { MonoidInstance::from_erased(pair.monoid).drop_view(pair.view) };
        }
    }
}

impl MmapDetached {
    /// Number of views carried.
    pub fn count(&self) -> usize {
        self.views.len()
    }

    /// Under the model checker (or the dynamic sanitizer), records the
    /// detaching worker's write of the whole list at its buffer address:
    /// the contract is "one thread at a time per detached set", so the
    /// hand-over through the join frame must order this before the
    /// reads below. An empty list has no buffer and records nothing.
    #[inline]
    fn note_write(&self) {
        #[cfg(any(feature = "model", feature = "sanitize"))]
        if let Some(first) = self.views.first() {
            let buffer = first as *const (Slot, ViewPair) as usize;
            #[cfg(feature = "model")]
            cilkm_checker::trace::note_write(buffer, "DetachedViews");
            #[cfg(not(feature = "model"))]
            {
                BUFFER_REUSE.load(crate::msync::atomic::Ordering::Acquire);
                cilkm_san::shadow_write(buffer, "DetachedViews");
            }
        }
    }

    /// Mirror of [`MmapDetached::note_write`] for the worker that
    /// attaches, merges or discards the set.
    #[inline]
    fn note_read(&self) {
        #[cfg(any(feature = "model", feature = "sanitize"))]
        if let Some(first) = self.views.first() {
            let buffer = first as *const (Slot, ViewPair) as usize;
            #[cfg(feature = "model")]
            cilkm_checker::trace::note_read(buffer, "DetachedViews");
            #[cfg(not(feature = "model"))]
            {
                cilkm_san::shadow_read(buffer, "DetachedViews");
                BUFFER_REUSE.store(0, crate::msync::atomic::Ordering::Release);
            }
        }
    }
}

/// What the allocator knows and the sanitizer cannot see: the worker
/// that read a list frees its buffer before `malloc` hands the same
/// address to the next list's writer. Readers release here before they
/// free, writers acquire after they allocate; without it every reused
/// buffer reads as a read-write race. (A model run allocates each list
/// once, so the checker needs no such edge and gets none.)
#[cfg(all(not(feature = "model"), feature = "sanitize"))]
static BUFFER_REUSE: crate::msync::atomic::AtomicUsize = crate::msync::atomic::AtomicUsize::new(0);

impl MmapWorkerState {
    fn flush_lookups(&self) {
        let n = self.lookups.take();
        if n != 0 {
            self.domain.instrument.lookups.add(n);
        }
    }

    /// Clears the last-lookup cache. Must run in every hook that changes
    /// which view the current context owns for any slot: a stale entry
    /// would silently resolve a lookup to a view that has been handed to
    /// another context (or folded away), breaking reducer semantics.
    fn forget_last(&self) {
        self.last.set(LastLookup::EMPTY);
    }

    /// Maps fresh zeroed pages so the private maps cover `page` (a
    /// simulated `sys_palloc` + one batched `sys_pmap`, amortized against
    /// steals as §5 argues).
    #[cold]
    fn ensure_page(&mut self, page: usize) {
        let first_new = self.region.extent_pages();
        if page < first_new {
            return;
        }
        let new_descs: Vec<PageDesc> = (first_new..=page)
            .map(|_| self.region.arena().palloc())
            .collect();
        self.region.pmap(first_new, &new_descs);
        publish_tls(self as *mut MmapWorkerState);
    }

    /// The private SPA map on mapped region page `pidx`.
    #[inline]
    fn page_ref(&self, pidx: usize) -> SpaMapRef {
        let base = self.region.page_base(pidx);
        assert!(!base.is_null(), "private page {pidx} is not mapped");
        // SAFETY: `base` is a page `ensure_page` mapped: zeroed on
        // arrival (an empty map layout), written only through SPA-map
        // accessors since, private to this worker, and live until the
        // state's `Drop` frees it.
        unsafe { SpaMapRef::from_raw(base) }
    }

    /// The copying strategy of §7: sequences each occupied private page
    /// by its log into one exactly-sized list of `(slot, pair)`, zeroing
    /// the private entries as the pairs leave, so the region is provably
    /// empty afterwards. An empty context allocates nothing.
    // lint: hot-path
    fn drain_views(&mut self) -> Vec<(Slot, ViewPair)> {
        // lint: allow(hot-path, the one exactly-sized list a detach copies its views into; it replaces up to one map-pool operation per occupied page)
        let mut views = Vec::with_capacity(self.current_views);
        if self.current_views != 0 {
            for pidx in 0..self.region.extent_pages() {
                let private = self.page_ref(pidx);
                if private.is_empty() {
                    continue;
                }
                let base = (pidx * VIEWS_PER_MAP) as Slot;
                private.drain(|idx, pair| views.push((base + idx as Slot, pair)));
            }
            debug_assert_eq!(views.len(), self.current_views);
            self.current_views = 0;
        }
        views
    }
}

impl Drop for MmapWorkerState {
    fn drop(&mut self) {
        self.flush_lookups();
        MMAP_TLS.with(|c| c.set(MmapTls::NULL));
        // Leftover views (possible after a panicked region) are destroyed
        // the way a discarded set's are.
        drop(MmapDetached {
            views: self.drain_views(),
        });
        for pidx in 0..self.region.extent_pages() {
            self.region.arena().pfree(self.region.desc_at(pidx));
        }
    }
}

/// The memory-mapped reducer lookup (§6): on the hit path, either a
/// single-entry cache hit (three compares against the last lookup) or
/// the paper's two loads and a predictable branch through the private
/// SPA map, with no counter traffic in plain release builds.
///
/// Returns `None` when the calling thread is not a worker of `domain`'s
/// pool (the caller then takes the serial leftmost path).
// lint: hot-path
#[inline(always)]
pub(crate) fn lookup(
    page: usize,
    idx: usize,
    inst: &MonoidInstance,
    domain: &DomainInner,
) -> Option<*mut u8> {
    let tls = MMAP_TLS.with(|c| c.get());
    if tls.state.is_null() {
        return None;
    }
    // SAFETY: TLS points at this worker's live state and at its
    // region's `bases`, whose first `len` entries are mapped private SPA
    // maps (the hole-free prefix `ensure_page` grows); only shared reads
    // happen on the fast path, and the slot pointer dereference stays
    // inside the mapped SPA page.
    unsafe {
        let st = &*tls.state;
        if crate::instrument::ENABLED {
            st.lookups.set(st.lookups.get() + 1);
        }
        // Same reducer as last time? The cache key includes the domain,
        // so a hit needs no separate pool-membership check.
        let last = st.last.get();
        if last.page == page && last.idx == idx && std::ptr::eq(last.domain, domain) {
            return Some(last.view);
        }
        assert!(
            std::ptr::eq(tls.domain, domain),
            "reducer used on a worker of a different pool"
        );
        if page < tls.len {
            // The fast path the paper counts: dereference the slot's
            // private SPA element and test the view pointer. This read
            // bypasses the SpaMapRef accessors, so record it for the
            // model checker / sanitizer explicitly (same whole-map
            // granularity). Plain builds keep the path emit-free.
            let map = SpaMapRef::from_raw(*tls.bases.add(page));
            #[cfg(feature = "model")]
            cilkm_checker::trace::note_read(map.slot_ptr(0) as usize, "SpaMap");
            #[cfg(all(not(feature = "model"), feature = "sanitize"))]
            cilkm_san::shadow_read(map.slot_ptr(0) as usize, "SpaMap");
            let view = (*map.slot_ptr(idx)).view;
            if !view.is_null() {
                st.last.set(LastLookup {
                    domain,
                    page,
                    idx,
                    view,
                });
                return Some(view);
            }
        }
    }
    lookup_miss(page, idx, inst, domain, tls.state)
}

/// The outlined miss path: creates and inserts an identity view. Happens
/// at most once per reducer per steal (§6), so it stays out of line to
/// keep the hit path small enough to inline everywhere.
#[cold]
#[inline(never)]
fn lookup_miss(
    page: usize,
    idx: usize,
    inst: &MonoidInstance,
    domain: &DomainInner,
    ptr: *mut MmapWorkerState,
) -> Option<*mut u8> {
    // SAFETY: `ptr` is the caller's live TLS state; `&mut`s are
    // re-derived around the user `identity()` call, never held across
    // it.
    unsafe {
        (*ptr).ensure_page(page);

        let t0 = Instrument::short_timer();
        let view = inst.identity();
        domain.instrument.view_creations.inc();
        Instrument::add_short_ns(
            &domain.instrument.view_creation_ns,
            t0,
            Burden::ViewCreation,
        );

        let t1 = Instrument::short_timer();
        let outcome = (*ptr).page_ref(page).insert(
            idx,
            ViewPair {
                view,
                monoid: inst.as_erased(),
            },
        );
        if outcome == InsertOutcome::Overflowed {
            domain.instrument.log_overflows.inc();
        }
        (*ptr).current_views += 1;
        domain.instrument.view_insertions.inc();
        Instrument::add_short_ns(
            &domain.instrument.view_insertion_ns,
            t1,
            Burden::ViewInsertion,
        );
        (*ptr).last.set(LastLookup {
            domain,
            page,
            idx,
            view,
        });
        Some(view)
    }
}

/// Removes (and returns) the current context's view for `slot`, if any.
pub(crate) fn remove_current(slot: Slot, domain: &DomainInner) -> Option<*mut u8> {
    let tls = MMAP_TLS.with(|c| c.get());
    if tls.state.is_null() {
        return None;
    }
    let page = slot as usize / VIEWS_PER_MAP;
    let idx = slot as usize % VIEWS_PER_MAP;
    // SAFETY: thread-local state of the calling worker; no user code
    // runs inside the block, so the `&mut` cannot alias.
    unsafe {
        let st = &mut *tls.state;
        assert!(std::ptr::eq(Arc::as_ptr(&st.domain), domain));
        st.forget_last();
        if page >= st.region.extent_pages() {
            return None;
        }
        let private = st.page_ref(page);
        if private.get(idx).is_null() {
            return None;
        }
        st.current_views -= 1;
        Some(private.remove(idx).view)
    }
}

/// The memory-mapped implementation of the scheduler hooks.
pub struct MmapHooks {
    domain: Arc<DomainInner>,
}

impl MmapHooks {
    /// Hooks for `domain`.
    pub fn new(domain: Arc<DomainInner>) -> MmapHooks {
        MmapHooks { domain }
    }

    fn ins(&self) -> &Instrument {
        &self.domain.instrument
    }
}

impl HyperHooks for MmapHooks {
    fn make_worker_state(&self, _index: usize) -> Box<dyn Any + Send> {
        let state = Box::new(MmapWorkerState {
            domain: Arc::clone(&self.domain),
            region: TlmmRegion::new(Arc::clone(&self.domain.arena)),
            lookups: Cell::new(0),
            last: Cell::new(LastLookup::EMPTY),
            current_views: 0,
        });
        let raw = &*state as *const MmapWorkerState as *mut MmapWorkerState;
        publish_tls(raw);
        state
    }

    // lint: hot-path
    fn detach(&self, state: &mut dyn Any) -> DetachedViews {
        let st = state.downcast_mut::<MmapWorkerState>().expect("mmap state");
        st.flush_lookups();
        st.forget_last();
        let t0 = Instrument::transferal_timer();
        let views = st.drain_views();
        if !views.is_empty() {
            self.ins().transferals.inc();
            self.ins().transferal_views.add(views.len() as u64);
        }
        let det = MmapDetached { views };
        det.note_write();
        self.ins().finish_transferal(t0);
        // lint: allow(hot-path, one boxed handoff of the whole detached set to the scheduler; the per-view work above is allocation-free)
        Box::new(det)
    }

    fn attach(&self, state: &mut dyn Any, views: DetachedViews) {
        let st = state.downcast_mut::<MmapWorkerState>().expect("mmap state");
        let mut det = views.downcast::<MmapDetached>().expect("mmap views");
        debug_assert_eq!(st.current_views, 0, "attach over non-empty context");
        det.note_read();
        st.forget_last();
        let t0 = Instrument::transferal_timer();
        // §7: copy the pairs back into the region, each at its slot.
        // Popped one by one, so an unwind (page allocation can refuse)
        // leaves the rest with `det`, which destroys them.
        while let Some((slot, pair)) = det.views.pop() {
            let (pidx, idx) = (slot as usize / VIEWS_PER_MAP, slot as usize % VIEWS_PER_MAP);
            st.ensure_page(pidx);
            st.page_ref(pidx).insert(idx, pair);
            st.current_views += 1;
        }
        self.ins().finish_transferal(t0);
    }

    fn merge_right(&self, state: &mut dyn Any, right: DetachedViews) {
        // Raw-pointer discipline: monoid reduce operations are user code
        // and may perform reducer lookups through MMAP_TLS; no `&mut` to
        // the state may be live across them.
        let st: *mut MmapWorkerState = state.downcast_mut::<MmapWorkerState>().expect("mmap state");
        let mut det = right.downcast::<MmapDetached>().expect("mmap views");
        det.note_read();
        // SAFETY: `st` came from the exclusive `&mut dyn Any` above; the
        // raw-pointer hop only shortens the borrow, per the comment.
        unsafe { (*st).forget_last() };
        let t0 = Instrument::merge_timer();
        self.ins().merges.inc();
        let mut pairs_reduced = 0u64;

        // One sweep, right into left: the merged set has to end up in the
        // private region, so this costs one slot operation per right view
        // whichever side is larger. Each pair is popped before its
        // `reduce` runs: when that unwinds, `reduce_into` has consumed
        // the pair's view and `det` destroys the ones not yet merged.
        while let Some((slot, rpair)) = det.views.pop() {
            let (pidx, idx) = (slot as usize / VIEWS_PER_MAP, slot as usize % VIEWS_PER_MAP);
            // SAFETY: `st` is exclusively ours (see above); every `&mut`
            // is re-derived between `reduce_into` calls so user reduce
            // code may itself perform lookups through MMAP_TLS. Both
            // pairs hold live views of the slot's monoid and the
            // instance that created them.
            unsafe {
                (*st).ensure_page(pidx);
                let private = (*st).page_ref(pidx);
                let lpair = private.get(idx);
                if lpair.is_null() {
                    private.insert(idx, rpair);
                    (*st).current_views += 1;
                } else {
                    pairs_reduced += 1;
                    MonoidInstance::from_erased(rpair.monoid).reduce_into(lpair.view, rpair.view);
                }
            }
        }
        self.ins().merge_pairs.add(pairs_reduced);
        Instrument::add_merge_ns(&self.ins().merge_ns, t0);
    }

    fn collect_root(&self, state: &mut dyn Any) {
        let st: *mut MmapWorkerState = state.downcast_mut::<MmapWorkerState>().expect("mmap state");
        // SAFETY: exclusive access via the `&mut dyn Any` argument, and
        // no borrow of the state is live across the fold, whose user
        // `reduce` code may itself perform lookups through MMAP_TLS.
        unsafe {
            (*st).flush_lookups();
            (*st).forget_last();
            let entries = (*st).drain_views();
            // SAFETY: each pair is a live boxed view of its slot's
            // monoid with the instance that created it, and the
            // reducers are still registered (views must not outlive
            // their reducer).
            self.domain.fold_root(entries.into_iter());
        }
    }

    fn discard(&self, views: DetachedViews) {
        // Discard runs on a panic path, where the current context may
        // unwind without ever reaching a detach/collect; flush the
        // calling worker's hot-path lookup count here so the domain
        // totals stay exact even when one side of a join panics.
        let tls = MMAP_TLS.with(|c| c.get());
        if !tls.state.is_null() {
            // SAFETY: the TLS snapshot points at the calling worker's
            // live state; `flush_lookups` takes `&self` and only touches
            // the `Cell` counter and shared atomics.
            unsafe { (*tls.state).flush_lookups() };
        }
        // Dropping the set destroys its views.
        views
            .downcast::<MmapDetached>()
            .expect("mmap views")
            .note_read();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Backend;
    use crate::monoid::Monoid;
    // lint: allow(raw-sync, test-observation drop counters shared with plain std::thread spawns; msync's recorded atomics are scoped to one model run and these tests run outside the checker)
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// A monoid whose views count their own drops, so the tests can
    /// assert every view created by a lookup is destroyed exactly once.
    struct CountingMonoid {
        drops: Arc<AtomicUsize>,
    }

    struct CountedView {
        drops: Arc<AtomicUsize>,
    }

    impl Drop for CountedView {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Monoid for CountingMonoid {
        type View = CountedView;
        fn identity(&self) -> CountedView {
            CountedView {
                drops: Arc::clone(&self.drops),
            }
        }
        fn reduce(&self, _left: &mut CountedView, _right: CountedView) {}
    }

    /// The PR 3 "500 + 300" exactness scenario at the hook level: the
    /// thief detaches its view, then panics, and the scheduler discards
    /// the detached set. Counts must stay exact (800 lookups, 1 copied
    /// view), every view must drop exactly once, and no arena page may
    /// leak.
    #[test]
    fn panic_after_detach_keeps_counts_exact_and_leaks_nothing() {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let drops = Arc::new(AtomicUsize::new(0));
        let monoid = Arc::new(CountingMonoid {
            drops: Arc::clone(&drops),
        });
        let inst = Arc::new(MonoidInstance::new(&monoid));
        let hooks = MmapHooks::new(Arc::clone(&domain));
        let (tx, rx) = mpsc::channel();

        let (d2, m2, i2) = (Arc::clone(&domain), Arc::clone(&monoid), Arc::clone(&inst));
        let thief = std::thread::spawn(move || {
            let _keep_alive = m2;
            let hooks = MmapHooks::new(Arc::clone(&d2));
            let mut state = hooks.make_worker_state(1);
            for _ in 0..300 {
                lookup(0, 3, &i2, &d2).expect("thief worker state");
            }
            let det = hooks.detach(state.as_mut());
            tx.send(det).unwrap();
            panic!("simulated unwind on the stolen branch");
        });

        let state = hooks.make_worker_state(0);
        for _ in 0..500 {
            lookup(0, 3, &inst, &domain).expect("owner worker state");
        }
        let det = rx.recv().unwrap();
        assert!(thief.join().is_err(), "the thief must have panicked");

        // What the scheduler does when the stolen branch unwinds: the
        // in-flight detached views are discarded, never merged.
        hooks.discard(det);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "discard drops the detached view exactly once"
        );

        let snap = domain.instrument();
        if crate::instrument::ENABLED {
            assert_eq!(snap.lookups, 800, "500 owner + 300 thief, exactly");
        }
        assert_eq!(snap.view_creations, 2);
        assert_eq!(snap.transferals, 1);
        assert_eq!(snap.transferal_views, 1);
        assert_eq!(snap.transferal_copied_views, 1);

        drop(state);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2,
            "the owner's view drops exactly once with its state"
        );
        assert_eq!(
            domain.arena.live_pages(),
            0,
            "every private page returned to the arena"
        );
    }

    use crate::monoid::testing::{Tally, Tracked, TrackedConcat};
    use std::collections::BTreeMap;

    /// Slots in four SPA pages: the space the hypermerge tests draw from.
    pub(super) const SLOTS: usize = 4 * VIEWS_PER_MAP;

    /// The view of `slot` in the calling thread's current context,
    /// created on first touch exactly as a reducer access would.
    fn view(slot: usize, inst: &MonoidInstance, domain: &DomainInner) -> &'static mut Tracked {
        let view = lookup(slot / VIEWS_PER_MAP, slot % VIEWS_PER_MAP, inst, domain)
            .expect("calling thread has no worker state");
        // SAFETY: `lookup` returned a live boxed `Tracked` that this
        // thread's current context owns; the borrow ends before the
        // context changes hands.
        unsafe { &mut *(view as *mut Tracked) }
    }

    /// One hypermerge at hook level against a `BTreeMap` model: a thief
    /// context appends `R<slot>` at each of `right` and detaches, the
    /// owner appends `L<slot>` at each of `left` and merges. Every slot
    /// on both sides must read `L<slot>R<slot>`, every other slot its one
    /// side unreduced, the context must hold exactly the model's views,
    /// and every view must be dropped once with no arena page left.
    pub(super) fn check_hypermerge(left: &[usize], right: &[usize]) {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let tally = Arc::new(Tally::default());
        let monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
        let inst = MonoidInstance::new(&monoid);
        let hooks = MmapHooks::new(Arc::clone(&domain));

        let det = {
            let mut state = hooks.make_worker_state(1);
            for &slot in right {
                view(slot, &inst, &domain).s = format!("R{slot}");
            }
            hooks.detach(state.as_mut())
        };
        let mut state = hooks.make_worker_state(0);
        for &slot in left {
            view(slot, &inst, &domain).s = format!("L{slot}");
        }
        hooks.merge_right(state.as_mut(), det);

        let mut model: BTreeMap<usize, String> = BTreeMap::new();
        for &slot in left {
            model.insert(slot, format!("L{slot}"));
        }
        for &slot in right {
            model.entry(slot).or_default().push_str(&format!("R{slot}"));
        }
        let held = |state: &dyn Any| {
            state
                .downcast_ref::<MmapWorkerState>()
                .unwrap()
                .current_views
        };
        assert_eq!(
            held(state.as_ref()),
            model.len(),
            "|L ∪ R| views after the merge"
        );
        for (&slot, want) in &model {
            assert_eq!(&view(slot, &inst, &domain).s, want, "slot {slot}");
        }
        assert_eq!(held(state.as_ref()), model.len(), "reading created no view");

        let snap = domain.instrument();
        let made = left.len() + right.len();
        assert_eq!(snap.view_creations, made as u64);
        assert_eq!(snap.merges, 1);
        assert_eq!(snap.merge_pairs, (made - model.len()) as u64, "|L ∩ R|");
        assert_eq!(snap.transferal_views, right.len() as u64);

        drop(state);
        assert_eq!(tally.counts(), (made, made), "every view dropped once");
        assert_eq!(domain.arena.live_pages(), 0, "no leaked arena pages");
    }

    /// The single right-into-left sweep over every pairing of set sizes
    /// around the SPA log's capacity (120 logged, 121 overflows a page),
    /// a whole page (248) and several pages (600), in layouts that make
    /// the sets coincide, meet only when they outgrow the space, or
    /// overlap in part — so a page's log overflows on either side, pages
    /// exist on one side only, and the right set is the larger as often
    /// as not.
    #[test]
    fn hypermerge_sweeps_right_into_left_for_every_size_pairing() {
        const SIZES: [usize; 7] = [0, 1, 9, 120, 121, 248, 600];
        // Page by page from the front, from the back, or spread over all
        // four pages (331 is coprime to 992).
        let front = |n: usize| (0..n).collect::<Vec<_>>();
        let back = |n: usize| (0..n).map(|i| SLOTS - 1 - i).collect::<Vec<_>>();
        let spread = |n: usize| (0..n).map(|i| i * 331 % SLOTS).collect::<Vec<_>>();
        for l in SIZES {
            for r in SIZES {
                check_hypermerge(&front(l), &front(r));
                check_hypermerge(&front(l), &back(r));
                check_hypermerge(&spread(l), &front(r));
                check_hypermerge(&back(l), &spread(r));
            }
        }
    }

    /// Leapfrogging at hook level, the way `execute_suspended` drives it:
    /// a context on page 0 is detached, an interim context touches page
    /// 3 and detaches, the first set is re-attached into the same state,
    /// touches page 2 and merges the interim's set. Pages never leave
    /// the worker, so the arena holds exactly the region's extent at
    /// every step.
    #[test]
    fn leapfrog_through_detach_and_attach_keeps_every_page_in_the_region() {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let tally = Arc::new(Tally::default());
        let monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
        let inst = MonoidInstance::new(&monoid);
        let hooks = MmapHooks::new(Arc::clone(&domain));
        let page = |p: usize| p * VIEWS_PER_MAP;
        let pages_accounted = |state: &dyn Any, want: usize| {
            let st = state.downcast_ref::<MmapWorkerState>().unwrap();
            assert_eq!(st.region.extent_pages(), want);
            assert_eq!(domain.arena.live_pages(), want, "arena == region extent");
        };

        let mut state = hooks.make_worker_state(0);
        pages_accounted(state.as_ref(), 0);
        view(page(0), &inst, &domain).s.push('a');
        pages_accounted(state.as_ref(), 1);
        let saved = hooks.detach(state.as_mut());
        pages_accounted(state.as_ref(), 1);
        view(page(3), &inst, &domain).s.push('b'); // the interim maps four
        pages_accounted(state.as_ref(), 4);
        let det = hooks.detach(state.as_mut());
        pages_accounted(state.as_ref(), 4);
        hooks.attach(state.as_mut(), saved);
        pages_accounted(state.as_ref(), 4);
        view(page(2), &inst, &domain).s.push('c'); // already mapped
        pages_accounted(state.as_ref(), 4);
        hooks.merge_right(state.as_mut(), det);
        pages_accounted(state.as_ref(), 4);

        for (p, want) in [(0, "a"), (2, "c"), (3, "b")] {
            assert_eq!(view(page(p), &inst, &domain).s, want, "page {p}");
        }
        pages_accounted(state.as_ref(), 4);
        drop(state);
        assert_eq!(tally.counts(), (3, 3));
        assert_eq!(domain.arena.live_pages(), 0);
    }

    /// A `reduce` that unwinds out of a hypermerge: the right views not
    /// yet merged are destroyed with the detached set, the left ones
    /// with the worker state.
    #[test]
    fn reduce_panic_in_hypermerge_drops_every_view_once() {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let tally = Arc::new(Tally::default());
        let monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
        let inst = MonoidInstance::new(&monoid);
        let hooks = MmapHooks::new(Arc::clone(&domain));

        let det = {
            let mut state = hooks.make_worker_state(1);
            (3..8).for_each(|slot| view(slot, &inst, &domain).s.push('R'));
            hooks.detach(state.as_mut())
        };
        let mut state = hooks.make_worker_state(0);
        (3..8).for_each(|slot| view(slot, &inst, &domain).s.push('L'));
        tally.poisoned.store(true, Ordering::SeqCst);
        let merge = std::panic::AssertUnwindSafe(|| hooks.merge_right(state.as_mut(), det));
        assert!(std::panic::catch_unwind(merge).is_err(), "reduce panics");

        drop(state);
        assert_eq!(tally.counts(), (10, 10), "made == dropped");
        assert_eq!(domain.arena.live_pages(), 0);
    }
}

#[cfg(all(test, not(miri)))]
mod proptests {
    use super::*;
    use crate::domain::Backend;
    use crate::library::SumMonoid;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Runs one full transferal: create the `views` in a worker context,
    /// detach, attach into the *same, already-used* state (what a
    /// leapfrog does) or into a fresh one (what the first steal onto a
    /// worker does), and read every slot back. Returns the observed
    /// (slot -> value) table.
    fn transfer_roundtrip(
        views: &BTreeMap<(usize, usize), u64>,
        same_state: bool,
    ) -> BTreeMap<(usize, usize), u64> {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let monoid = Arc::new(SumMonoid::<u64>::new());
        let inst = Arc::new(MonoidInstance::new(&monoid));
        let hooks = MmapHooks::new(Arc::clone(&domain));

        let mut state = hooks.make_worker_state(0);
        for (&(page, idx), &v) in views {
            let view = lookup(page, idx, &inst, &domain).expect("worker state");
            // SAFETY: a live boxed u64 view owned by the current
            // context.
            unsafe { *(view as *mut u64) = v };
        }
        let det = hooks.detach(state.as_mut());
        let st = state.downcast_ref::<MmapWorkerState>().unwrap();
        assert!(
            (0..st.region.extent_pages()).all(|p| st.page_ref(p).is_empty()),
            "detach must leave the private region provably empty"
        );

        if !same_state {
            state = hooks.make_worker_state(1);
        }
        hooks.attach(state.as_mut(), det);
        let mut observed = BTreeMap::new();
        for &(page, idx) in views.keys() {
            let view = lookup(page, idx, &inst, &domain).expect("worker state");
            // SAFETY: as above; attach installed this slot's view.
            observed.insert((page, idx), unsafe { *(view as *mut u64) });
        }
        let st = state.downcast_ref::<MmapWorkerState>().unwrap();
        assert_eq!(st.current_views, views.len(), "reading created no view");
        drop(state);
        assert_eq!(domain.arena.live_pages(), 0, "no leaked arena pages");
        observed
    }

    fn view_set_strategy() -> impl Strategy<Value = BTreeMap<(usize, usize), u64>> {
        proptest::collection::vec(
            ((0usize..4, 0usize..VIEWS_PER_MAP), 1u64..u32::MAX as u64),
            0..120,
        )
        .prop_map(|entries| entries.into_iter().collect())
    }

    /// One side of a hypermerge: a size from the table test's list and
    /// that many distinct slots of the four pages, in random order.
    fn side_strategy() -> impl Strategy<Value = Vec<usize>> {
        const SIZES: [usize; 7] = [0, 1, 9, 120, 121, 248, 600];
        (0..SIZES.len(), any::<u64>()).prop_map(|(size, seed)| {
            let mut rng = proptest::test_runner::TestRng::deterministic(seed);
            let mut slots: Vec<usize> = (0..super::tests::SLOTS).collect();
            for i in 0..SIZES[size] {
                let j = i + rng.below((slots.len() - i) as u64) as usize;
                slots.swap(i, j);
            }
            slots.truncate(SIZES[size]);
            slots
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Over random view sets, a detach/attach round trip delivers
        /// exactly the model's values, leaves the private region empty
        /// and leaks no arena page — back into the state it left, as
        /// often as into a fresh one.
        #[test]
        fn transferal_roundtrip_is_exact_and_leak_free(
            views in view_set_strategy(),
            same_state in any::<bool>(),
        ) {
            prop_assert_eq!(&transfer_roundtrip(&views, same_state), &views);
        }

        /// Left and right sets drawn independently: the hypermerge
        /// matches the model whichever side is larger and wherever the
        /// sets overlap.
        #[test]
        fn hypermerge_matches_the_model(left in side_strategy(), right in side_strategy()) {
            super::tests::check_hypermerge(&left, &right);
        }
    }
}

//! The memory-mapped reducer backend — the paper's contribution (§4–§7).
//!
//! Each worker owns one contiguous, page-aligned, zero-filled **page
//! array** of private SPA maps (arrays of (view pointer, monoid pointer)
//! pairs, one page each); a reducer holds its slot's byte offset in it,
//! the `tlmm_addr` of §6. The array stands in for the worker's TLMM
//! region: its pages never leave the worker and form a prefix that only
//! grows, so it needs no page table. The moving parts:
//!
//! * **Thread-local indirection (§5)** — the array stores only pointers;
//!   views live in shared memory, each in a cell of its creating worker's
//!   chunks that goes back to that worker when the view is reduced away
//!   (the `cells` module), so hypermerges need no remapping and no
//!   pointer swizzling, and the array itself needs only a trivial
//!   fixed-size-slot allocator (the domain's slot allocator).
//! * **Lookup (§6)** — one TLS load yields the array's base and length
//!   and the key of the worker's pool; XORed with the reducer's key it
//!   gives the `tlmm_addr` when the pools match and a value past any
//!   array when they do not, so one compare tests both; the view pointer
//!   at `base + tlmm_addr` is loaded and tested: two memory accesses and
//!   a predictable branch. A miss (at most once per reducer per steal)
//!   grows the array to the slot's page if needed, which moves it, then
//!   lazily creates an identity view and inserts it: one pointer-pair
//!   write plus a log append. It counts the view in the worker's own
//!   state, not in the domain's shared counters.
//! * **View transferal by copying (§7)** — a terminating context copies
//!   its private pairs into shared memory, zeroing the private entries as
//!   it goes, so the worker returns to work-stealing with a provably
//!   empty private array. What it copies them into is one flat,
//!   exactly-sized list of `(slot, pair)` ([`MmapDetached`]): "a few
//!   pointers", and the only cache lines that change owner at a steal.
//!   Copying is the only transferal path, for a stolen task's views and
//!   for the views a leapfrogging worker sets aside alike; DESIGN.md
//!   §13.3 gives the layout's reasons, §6 and §16 record why whole
//!   pages are not remapped instead.
//! * **Hypermerge (§7)** — sweep the right list into the private maps:
//!   an empty slot takes the right pair, an occupied one reduces it into
//!   the left view, left always the serially earlier operand.
//!
//! A user `identity` or `reduce` can grow the array (a nested lookup), so
//! no [`SpaMapRef`] is held across one. DESIGN.md §9.1 says why the array
//! is a heap allocation and not a reserved `mmap` window.

use std::alloc::{alloc, dealloc, handle_alloc_error, realloc, Layout};
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

use cilkm_runtime::{DetachedViews, HyperHooks};
use cilkm_spa::map::MAP_SIZE;
use cilkm_spa::{InsertOutcome, SpaMapRef, ViewPair, VIEWS_PER_MAP};

use crate::cells::WorkerCells;
use crate::domain::{foreign, refuse_in_root_fold, DomainInner, Slot};
use crate::instrument::{bump, flush, Instrument};
use crate::monoid::MonoidInstance;
use crate::msync;
use cilkm_obs::profile::Burden;

/// Per-worker state: the page array, the count of views in it, the
/// worker's view cells, and its counts of lookups and first touches,
/// which [`MmapWorkerState::flush_counts`] adds to the domain's totals.
pub struct MmapWorkerState {
    domain: Arc<DomainInner>,
    /// The cells this worker's first touches take and its merges free.
    cells: WorkerCells,
    /// The page array: `pages` SPA maps, map `p` at byte `p · MAP_SIZE`
    /// of one `MAP_SIZE`-aligned allocation (null while `pages` is 0).
    /// It only grows, and growth may move it; `Drop` frees it.
    base: *mut u8,
    pages: usize,
    lookups: Cell<u64>,
    view_creations: Cell<u64>,
    view_insertions: Cell<u64>,
    log_overflows: Cell<u64>,
    /// Set while `collect_root` folds the region's views: a reducer
    /// access from a `reduce` the fold runs is refused (DESIGN.md §13.2).
    folding: Cell<bool>,
    /// Number of views currently in the private maps (sizes the list a
    /// detach copies them into).
    current_views: usize,
}

// SAFETY: the state is owned by exactly one worker at a time and handed
// between threads only while quiescent (it travels as
// `Box<dyn Any + Send>`); the page array it points at is its own, and
// the views in it are `M::View: Send`.
unsafe impl Send for MmapWorkerState {}

/// The thread-local fast-path descriptor: the current state's page array
/// (`base`, `bytes` long) and the key of the domain it serves — one TLS
/// load where Cilk-M's MMU resolves a `tlmm_addr` against the thread's
/// own mapping.
#[derive(Copy, Clone)]
struct MmapTls {
    base: *mut u8,
    bytes: u64,
    key: u64,
    state: *mut MmapWorkerState,
}

impl MmapTls {
    /// No worker state: `bytes` 0 sends every lookup to the miss path,
    /// which finds `state` null.
    const NULL: MmapTls = MmapTls {
        base: std::ptr::null_mut(),
        bytes: 0,
        key: 0,
        state: std::ptr::null_mut(),
    };
}

thread_local! {
    static MMAP_TLS: Cell<MmapTls> = const { Cell::new(MmapTls::NULL) };
}

/// The paper's `tlmm_addr` (§6) of `slot`: the byte offset of its view
/// pair in every worker's page array — element `slot mod 248` of SPA map
/// `slot div 248`.
pub(crate) const fn tlmm_addr(slot: Slot) -> usize {
    let slot = slot as usize;
    slot / VIEWS_PER_MAP * MAP_SIZE + slot % VIEWS_PER_MAP * std::mem::size_of::<ViewPair>()
}

/// The SPA map and the element in it that `tlmm_addr` names.
fn split(tlmm_addr: usize) -> (usize, usize) {
    (
        tlmm_addr / MAP_SIZE,
        tlmm_addr % MAP_SIZE / std::mem::size_of::<ViewPair>(),
    )
}

/// Layout of a page array of `pages` SPA maps.
fn array_layout(pages: usize) -> Layout {
    Layout::from_size_align(pages * MAP_SIZE, MAP_SIZE).expect("page array layout")
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
            // exactly once. No worker state is at hand: its cell goes
            // straight home.
            unsafe {
                MonoidInstance::from_erased(pair.monoid).drop_view(std::ptr::null_mut(), pair.view)
            };
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
        if let Some(first) = self.views.first() {
            #[cfg(all(not(feature = "model"), feature = "sanitize"))]
            BUFFER_REUSE.load(msync::atomic::Ordering::Acquire);
            msync::note_write(first as *const (Slot, ViewPair) as usize, "DetachedViews");
        }
    }

    /// Mirror of [`MmapDetached::note_write`] for the worker that
    /// attaches, merges or discards the set.
    #[inline]
    fn note_read(&self) {
        if let Some(first) = self.views.first() {
            msync::note_read(first as *const (Slot, ViewPair) as usize, "DetachedViews");
            #[cfg(all(not(feature = "model"), feature = "sanitize"))]
            BUFFER_REUSE.store(0, msync::atomic::Ordering::Release);
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
static BUFFER_REUSE: msync::atomic::AtomicUsize = msync::atomic::AtomicUsize::new(0);

impl MmapWorkerState {
    /// Adds the worker's counts to the domain's totals and zeroes them:
    /// at every hook that ends or merges a context, and at `Drop`.
    fn flush_counts(&self) {
        let ins = &self.domain.instrument;
        flush(&self.lookups, &ins.lookups);
        flush(&self.view_creations, &ins.view_creations);
        flush(&self.view_insertions, &ins.view_insertions);
        flush(&self.log_overflows, &ins.log_overflows);
    }

    /// Grows the page array to cover `page`, zero-filling the new maps
    /// (an all-zero page is an empty SPA map). Growth reallocates and so
    /// may move the array: when this is the thread's current state, its
    /// TLS descriptor follows.
    #[cold]
    fn ensure_page(&mut self, page: usize) {
        if page < self.pages {
            return;
        }
        let old = self.pages * MAP_SIZE;
        let layout = array_layout(page + 1);
        // SAFETY: the old array is ours, of `array_layout(self.pages)`;
        // `realloc` keeps its alignment, and the bytes past `old` are
        // zeroed before any map is formed on them.
        unsafe {
            let base = if old == 0 {
                alloc(layout)
            } else {
                realloc(self.base, array_layout(self.pages), layout.size())
            };
            if base.is_null() {
                handle_alloc_error(layout);
            }
            base.add(old).write_bytes(0, layout.size() - old);
            self.base = base;
        }
        self.pages = page + 1;
        MMAP_TLS.with(|c| {
            let tls = c.get();
            if std::ptr::eq(tls.state, self) {
                c.set(MmapTls {
                    base: self.base,
                    bytes: (self.pages * MAP_SIZE) as u64,
                    ..tls
                });
            }
        });
    }

    /// The private SPA map on page `pidx` of the array. Valid until the
    /// next growth: re-derive it after any call into user code.
    #[inline]
    fn page_ref(&self, pidx: usize) -> SpaMapRef {
        assert!(pidx < self.pages, "private page {pidx} is not in the array");
        // SAFETY: map `pidx` lies inside the array: zeroed on arrival (an
        // empty map layout), written only through SPA-map accessors
        // since, private to this worker, and live until the array grows
        // or the state's `Drop` frees it.
        unsafe { SpaMapRef::from_raw(self.base.add(pidx * MAP_SIZE)) }
    }

    /// The copying strategy of §7: sequences each occupied private page
    /// by its log into one exactly-sized list of `(slot, pair)`, zeroing
    /// the private entries as the pairs leave, so the array is provably
    /// empty afterwards. An empty context allocates nothing.
    #[deny(clippy::indexing_slicing)]
    fn drain_views(&mut self) -> Vec<(Slot, ViewPair)> {
        let mut views = Vec::with_capacity(self.current_views);
        if self.current_views != 0 {
            for pidx in 0..self.pages {
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
        self.flush_counts();
        // Another state may have been made current on this thread since.
        MMAP_TLS.with(|c| {
            if std::ptr::eq(c.get().state, self) {
                c.set(MmapTls::NULL)
            }
        });
        // Leftover views (possible after a panicked region) are destroyed
        // the way a discarded set's are.
        drop(MmapDetached {
            views: self.drain_views(),
        });
        if self.pages != 0 {
            // SAFETY: the array is ours, of that layout, and holds no
            // view any more.
            unsafe { dealloc(self.base, array_layout(self.pages)) };
        }
    }
}

/// The memory-mapped reducer lookup (§6) of the reducer with `key`: one
/// TLS load; `key ^ tls.key`, which is the reducer's `tlmm_addr` on a
/// worker of its own pool and at least 2^21 anywhere else, against the
/// array's length, one compare for both tests; one load of the view
/// pointer at `base + tlmm_addr` and its null test. That is the paper's
/// two memory accesses and a predictable branch, reading nothing of the
/// reducer but its key, with no counter traffic in plain release builds.
///
/// Returns `None` when the calling thread is not a pool worker (the
/// caller then takes the serial leftmost path).
#[deny(clippy::indexing_slicing)]
#[inline(always)]
pub(crate) fn lookup(key: u64, inst: &MonoidInstance) -> Option<*mut u8> {
    let tls = MMAP_TLS.with(|c| c.get());
    let tlmm_addr = key ^ tls.key;
    if tlmm_addr < tls.bytes {
        let tlmm_addr = tlmm_addr as usize;
        // SAFETY: a non-zero `bytes` means TLS describes this worker's
        // live state and its page array of `bytes` bytes (updated
        // whenever the array moves), and as no array reaches 2^21 bytes
        // the key's domain bits are this worker's; only shared reads
        // happen on the fast path, and the pair at `tlmm_addr < bytes`
        // lies inside one SPA map of the array.
        unsafe {
            // This read bypasses the SpaMapRef accessors, so record it
            // for the model checker / sanitizer explicitly (same
            // whole-map granularity). In plain builds the note is
            // empty and the path stays emit-free.
            let map = tls.base.add(tlmm_addr - tlmm_addr % MAP_SIZE) as usize;
            msync::note_read(map, "SpaMap");
            let view = (*(tls.base.add(tlmm_addr) as *const ViewPair)).view;
            if !view.is_null() {
                if crate::instrument::ENABLED {
                    let st = &*tls.state;
                    st.lookups.set(st.lookups.get() + 1);
                }
                return Some(view);
            }
        }
    }
    lookup_miss(key, inst)
}

/// The outlined cold path. It tells four cases apart: no worker state
/// on this thread (`None`, the serial path), a worker of another pool
/// (a panic), an access from a `reduce` the region-end fold runs (the
/// panic of [`refuse_in_root_fold`]), and the miss proper, which happens at
/// most once per reducer per steal (§6): grow the array to the slot's
/// page if it lies past the end, then create and insert an identity
/// view, counting both in the worker's state. Out of line,
/// so the hit path stays small enough to inline everywhere. It reads the
/// TLS descriptor again: taken by value from the hit path, the 32-byte
/// descriptor was copied to the stack on every hit.
#[cold]
#[inline(never)]
fn lookup_miss(key: u64, inst: &MonoidInstance) -> Option<*mut u8> {
    let tls = MMAP_TLS.with(|c| c.get());
    let ptr = tls.state;
    if ptr.is_null() {
        return None;
    }
    assert!(
        !foreign(key, tls.key),
        "reducer used on a worker of a different pool"
    );
    let (page, idx) = split((key ^ tls.key) as usize);
    // SAFETY: `ptr` is the caller's live TLS state; `&mut`s are
    // re-derived around the user `identity()` call, never held across
    // it, and so is the map (a nested lookup inside it may grow the
    // array and move it). `domain` points into the `Arc`'s allocation,
    // not into the state, and the state keeps it alive.
    unsafe {
        if crate::instrument::ENABLED {
            bump(&(*ptr).lookups);
        }
        if (*ptr).folding.get() {
            refuse_in_root_fold();
        }
        let domain = &*Arc::as_ptr(&(*ptr).domain);
        (*ptr).ensure_page(page);

        let t0 = Instrument::short_timer();
        let view = inst.identity(std::ptr::addr_of_mut!((*ptr).cells));
        bump(&(*ptr).view_creations);
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
            bump(&(*ptr).log_overflows);
        }
        (*ptr).current_views += 1;
        bump(&(*ptr).view_insertions);
        Instrument::add_short_ns(
            &domain.instrument.view_insertion_ns,
            t1,
            Burden::ViewInsertion,
        );
        Some(view)
    }
}

/// Removes (and returns) the current context's view of the reducer with
/// `key`, if any.
pub(crate) fn remove_current(key: u64) -> Option<*mut u8> {
    let tls = MMAP_TLS.with(|c| c.get());
    if tls.state.is_null() {
        return None;
    }
    assert!(
        !foreign(key, tls.key),
        "reducer used on a worker of a different pool"
    );
    let (page, idx) = split((key ^ tls.key) as usize);
    // SAFETY: thread-local state of the calling worker; no user code
    // runs inside the block, so the `&mut` cannot alias.
    unsafe {
        let st = &mut *tls.state;
        if page >= st.pages {
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
    fn make_worker_state(&self, index: usize) -> Box<dyn Any + Send> {
        let state = Box::new(MmapWorkerState {
            domain: Arc::clone(&self.domain),
            cells: WorkerCells::new(&self.domain.cells, index),
            base: std::ptr::null_mut(),
            pages: 0,
            lookups: Cell::new(0),
            view_creations: Cell::new(0),
            view_insertions: Cell::new(0),
            log_overflows: Cell::new(0),
            folding: Cell::new(false),
            current_views: 0,
        });
        // The Box's heap address is stable; publish it for the fast path
        // (no pages until a context first touches one).
        MMAP_TLS.with(|c| {
            c.set(MmapTls {
                state: &*state as *const MmapWorkerState as *mut MmapWorkerState,
                key: self.domain.key,
                ..MmapTls::NULL
            })
        });
        state
    }

    #[deny(clippy::indexing_slicing)]
    fn detach(&self, state: &mut dyn Any) -> DetachedViews {
        let st = state.downcast_mut::<MmapWorkerState>().expect("mmap state");
        st.flush_counts();
        let t0 = Instrument::transferal_timer();
        let views = st.drain_views();
        if !views.is_empty() {
            self.ins().transferals.inc();
            self.ins().transferal_views.add(views.len() as u64);
        }
        let det = MmapDetached { views };
        det.note_write();
        self.ins().finish_transferal(t0);
        Box::new(det)
    }

    fn attach(&self, state: &mut dyn Any, views: DetachedViews) {
        let st = state.downcast_mut::<MmapWorkerState>().expect("mmap state");
        let mut det = views.downcast::<MmapDetached>().expect("mmap views");
        debug_assert_eq!(st.current_views, 0, "attach over non-empty context");
        det.note_read();
        let t0 = Instrument::transferal_timer();
        // §7: copy the pairs back into the array, each at its slot.
        // Popped one by one, so an unwind (growth can fail to allocate)
        // leaves the rest with `det`, which destroys them.
        while let Some((slot, pair)) = det.views.pop() {
            let (pidx, idx) = split(tlmm_addr(slot));
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
        let t0 = Instrument::merge_timer();
        self.ins().merges.inc();
        let mut pairs_reduced = 0u64;

        // One sweep, right into left: the merged set has to end up in the
        // private array, so this costs one slot operation per right view
        // whichever side is larger. Each pair is popped before its
        // `reduce` runs: when that unwinds, `reduce_into` has consumed
        // the pair's view and `det` destroys the ones not yet merged.
        while let Some((slot, rpair)) = det.views.pop() {
            let (pidx, idx) = split(tlmm_addr(slot));
            // SAFETY: `st` is exclusively ours (see above); every `&mut`
            // and every map is re-derived between `reduce_into` calls, so
            // user reduce code may itself perform lookups through
            // MMAP_TLS (and grow the array). Both pairs hold live views
            // of the slot's monoid and the instance that created them.
            unsafe {
                (*st).ensure_page(pidx);
                let private = (*st).page_ref(pidx);
                let lpair = private.get(idx);
                if lpair.is_null() {
                    private.insert(idx, rpair);
                    (*st).current_views += 1;
                } else {
                    pairs_reduced += 1;
                    MonoidInstance::from_erased(rpair.monoid).reduce_into(
                        std::ptr::addr_of_mut!((*st).cells),
                        lpair.view,
                        rpair.view,
                    );
                }
            }
        }
        self.ins().merge_pairs.add(pairs_reduced);
        Instrument::add_merge_ns(&self.ins().merge_ns, t0);
        // The owner of a region may never detach (it does only to
        // leapfrog): its first touches reach the totals here, at every
        // join that merges.
        state
            .downcast_ref::<MmapWorkerState>()
            .expect("mmap state")
            .flush_counts();
    }

    fn collect_root(&self, state: &mut dyn Any) {
        let st: *mut MmapWorkerState = state.downcast_mut::<MmapWorkerState>().expect("mmap state");
        // SAFETY: exclusive access via the `&mut dyn Any` argument, and
        // no borrow of the state is live across the fold, whose user
        // `reduce` code may itself perform lookups through MMAP_TLS.
        unsafe {
            (*st).flush_counts();
            let entries = (*st).drain_views();
            // SAFETY: each pair is a live view with the live
            // instance that created it (views must not outlive their
            // reducer).
            self.domain.fold_root(
                &(*st).folding,
                std::ptr::addr_of_mut!((*st).cells),
                entries.into_iter().map(|(_, pair)| pair),
            );
        }
    }

    fn discard(&self, views: DetachedViews) {
        // Discard runs on a panic path, where the current context may
        // unwind without ever reaching a detach/collect; flush the
        // calling worker's counts here so the domain totals stay exact
        // even when one side of a join panics.
        let tls = MMAP_TLS.with(|c| c.get());
        if !tls.state.is_null() {
            // SAFETY: the TLS snapshot points at the calling worker's
            // live state; `flush_counts` takes `&self` and only touches
            // its `Cell` counts and shared atomics.
            unsafe { (*tls.state).flush_counts() };
        }
        // Dropping the set destroys its views.
        views
            .downcast::<MmapDetached>()
            .expect("mmap views")
            .note_read();
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-observation drop counters shared with plain std::thread spawns; msync's recorded atomics are scoped to one model run and these tests run outside the checker"
)]
mod tests {
    use super::*;
    use crate::domain::Backend;
    use crate::monoid::Monoid;
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

    /// Pages in a worker state's array.
    fn pages(state: &dyn Any) -> usize {
        state.downcast_ref::<MmapWorkerState>().unwrap().pages
    }

    /// Pages in the calling worker's array, read through its TLS.
    fn pages_here() -> usize {
        MMAP_TLS.with(|c| c.get().bytes) as usize / MAP_SIZE
    }

    /// The PR 3 "500 + 300" exactness scenario at the hook level: the
    /// thief detaches its view, then panics, and the scheduler discards
    /// the detached set. Counts must stay exact (800 lookups, 1 copied
    /// view), every view must drop exactly once, and the owner's array
    /// must hold the one page its slot lives on.
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
                lookup(d2.reducer_key(3), &i2).expect("thief worker state");
            }
            let det = hooks.detach(state.as_mut());
            tx.send(det).unwrap();
            panic!("simulated unwind on the stolen branch");
        });

        let state = hooks.make_worker_state(0);
        for _ in 0..500 {
            lookup(domain.reducer_key(3), &inst).expect("owner worker state");
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

        assert_eq!(pages(state.as_ref()), 1, "the slot's page, no more");
        drop(state);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2,
            "the owner's view drops exactly once with its state"
        );
    }

    use crate::monoid::testing::{Tally, Tracked, TrackedConcat};
    use std::collections::BTreeMap;

    /// Slots in four SPA pages: the space the hypermerge tests draw from.
    pub(super) const SLOTS: usize = 4 * VIEWS_PER_MAP;

    /// The view of `slot` in the calling thread's current context,
    /// created on first touch exactly as a reducer access would.
    fn view(slot: usize, inst: &MonoidInstance, domain: &DomainInner) -> &'static mut Tracked {
        let view = lookup(domain.reducer_key(slot as Slot), inst)
            .expect("calling thread has no worker state");
        // SAFETY: `lookup` returned a live `Tracked` that this
        // thread's current context owns; the borrow ends before the
        // context changes hands.
        unsafe { &mut *(view as *mut Tracked) }
    }

    /// The array a context over `slots` needs: up to the last one's page.
    fn pages_for(slots: impl IntoIterator<Item = usize>) -> usize {
        slots
            .into_iter()
            .map(|s| s / VIEWS_PER_MAP + 1)
            .max()
            .unwrap_or(0)
    }

    /// One hypermerge at hook level against a `BTreeMap` model: a thief
    /// context appends `R<slot>` at each of `right` and detaches, the
    /// owner appends `L<slot>` at each of `left` and merges. Every slot
    /// on both sides must read `L<slot>R<slot>`, every other slot its one
    /// side unreduced, the context must hold exactly the model's views
    /// in an array that reaches the last one's page, and every view must
    /// be dropped once.
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
        assert_eq!(pages(state.as_ref()), pages_for(model.keys().copied()));

        let snap = domain.instrument();
        let made = left.len() + right.len();
        assert_eq!(snap.view_creations, made as u64);
        assert_eq!(snap.merges, 1);
        assert_eq!(snap.merge_pairs, (made - model.len()) as u64, "|L ∩ R|");
        assert_eq!(snap.transferal_views, right.len() as u64);

        drop(state);
        assert_eq!(tally.counts(), (made, made), "every view dropped once");
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
    /// the worker, so the array covers the highest page any of its
    /// contexts reached, at every step.
    #[test]
    fn leapfrog_through_detach_and_attach_keeps_every_page_in_the_array() {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let tally = Arc::new(Tally::default());
        let monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
        let inst = MonoidInstance::new(&monoid);
        let hooks = MmapHooks::new(Arc::clone(&domain));
        let page = |p: usize| p * VIEWS_PER_MAP;

        let mut state = hooks.make_worker_state(0);
        assert_eq!(pages(state.as_ref()), 0);
        view(page(0), &inst, &domain).s.push('a');
        assert_eq!(pages(state.as_ref()), 1);
        let saved = hooks.detach(state.as_mut());
        assert_eq!(pages(state.as_ref()), 1);
        view(page(3), &inst, &domain).s.push('b'); // the interim grows to four
        assert_eq!(pages(state.as_ref()), 4);
        let det = hooks.detach(state.as_mut());
        assert_eq!(pages(state.as_ref()), 4);
        hooks.attach(state.as_mut(), saved);
        assert_eq!(pages(state.as_ref()), 4);
        view(page(2), &inst, &domain).s.push('c'); // already covered
        assert_eq!(pages(state.as_ref()), 4);
        hooks.merge_right(state.as_mut(), det);
        assert_eq!(pages(state.as_ref()), 4);

        for (p, want) in [(0, "a"), (2, "c"), (3, "b")] {
            assert_eq!(view(page(p), &inst, &domain).s, want, "page {p}");
        }
        assert_eq!(pages(state.as_ref()), 4);
        assert_eq!(pages_here(), 4, "TLS describes the array");
        drop(state);
        assert_eq!(tally.counts(), (3, 3));
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

        assert_eq!(pages(state.as_ref()), 1);
        drop(state);
        assert_eq!(tally.counts(), (10, 10), "made == dropped");
    }

    /// The main slot, on the first SPA page, and the two slots the
    /// spilling monoid appends to, on pages no context has reached.
    const MAIN: usize = 5;
    const IDENTITY_SPILL: usize = 3 * VIEWS_PER_MAP + 1;
    const REDUCE_SPILL: usize = 5 * VIEWS_PER_MAP + 2;

    /// Concatenation whose `identity` and `reduce` each also append to a
    /// view of their own through the calling thread's lookup: a nested
    /// first touch of a page the array does not cover, which grows the
    /// array — and moves it — inside `lookup_miss` and `merge_right`.
    struct Spilling {
        concat: TrackedConcat,
        spill: Arc<MonoidInstance>,
        _spill_monoid: Arc<TrackedConcat>,
        domain: Arc<DomainInner>,
    }

    impl Monoid for Spilling {
        type View = Tracked;
        fn identity(&self) -> Tracked {
            view(IDENTITY_SPILL, &self.spill, &self.domain).s.push('i');
            self.concat.identity()
        }
        fn reduce(&self, left: &mut Tracked, right: Tracked) {
            view(REDUCE_SPILL, &self.spill, &self.domain).s.push('r');
            self.concat.reduce(left, right);
        }
    }

    /// Growth inside user code, single-threaded so Miri runs it: a map
    /// held across the `identity` of a first touch or the `reduce` of a
    /// hypermerge would be used after the growth freed it. The merged
    /// value is the serial elision's, every view drops once, and each
    /// slot's pair sits at `base + tlmm_addr(slot)` in the moved array.
    #[test]
    fn growth_inside_identity_and_reduce_moves_the_array_under_no_map() {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let tally = Arc::new(Tally::default());
        let spill_monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
        let monoid = Arc::new(Spilling {
            concat: TrackedConcat(Arc::clone(&tally)),
            spill: Arc::new(MonoidInstance::new(&spill_monoid)),
            _spill_monoid: spill_monoid,
            domain: Arc::clone(&domain),
        });
        let inst = MonoidInstance::new(&monoid);
        let hooks = MmapHooks::new(Arc::clone(&domain));

        let det = {
            let mut state = hooks.make_worker_state(1);
            view(MAIN, &inst, &domain).s.push('R'); // 1 → 4 pages in the miss
            assert_eq!(pages(state.as_ref()), 4);
            hooks.detach(state.as_mut())
        };
        let mut state = hooks.make_worker_state(0);
        view(MAIN, &inst, &domain).s.push('L');
        assert_eq!(pages(state.as_ref()), 4);
        hooks.merge_right(state.as_mut(), det); // 4 → 6 pages in the reduce
        assert_eq!(pages(state.as_ref()), 6);
        assert_eq!(pages_here(), 6, "TLS follows the moved array");

        assert_eq!(view(MAIN, &inst, &domain).s, "LR");
        assert_eq!(view(IDENTITY_SPILL, &monoid.spill, &domain).s, "ii");
        assert_eq!(view(REDUCE_SPILL, &monoid.spill, &domain).s, "r");
        let st = state.downcast_ref::<MmapWorkerState>().unwrap();
        for slot in [MAIN, IDENTITY_SPILL, REDUCE_SPILL] {
            let (page, idx) = split(tlmm_addr(slot as Slot));
            assert_eq!(
                st.page_ref(page).slot_ptr(idx) as usize,
                st.base as usize + tlmm_addr(slot as Slot),
                "slot {slot}"
            );
        }
        drop(state);
        assert_eq!(tally.counts(), (5, 5), "every view dropped once");
    }

    /// Every worker that reaches a reducer on the second SPA page holds a
    /// two-page array while the pool lives, and the pool's teardown drops
    /// every worker state — each with its array.
    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn page_arrays_live_with_their_workers_and_go_with_the_pool() {
        use crate::library::SumMonoid;
        use crate::{Reducer, ReducerPool};
        let pool = ReducerPool::new(4, Backend::Mmap);
        let domain = Arc::clone(pool.domain());
        let fillers: Vec<_> = (0..VIEWS_PER_MAP)
            .map(|_| Reducer::new(&pool, SumMonoid::<u64>::new(), 0))
            .collect();
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        drop(fillers);
        let widest = AtomicUsize::new(0);
        pool.run(|| {
            cilkm_runtime::parallel_for(0..10_000, 32, &|range| {
                for _ in range {
                    r.add(1);
                }
                widest.fetch_max(pages_here(), Ordering::Relaxed);
            });
        });
        assert_eq!(r.into_inner(), 10_000);
        assert_eq!(widest.load(Ordering::Relaxed), 2, "pages 0 and 1");
        drop(pool);
        assert_eq!(
            Arc::strong_count(&domain),
            1,
            "no worker state outlives the pool"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn leapfrogging_over_three_spa_pages_keeps_order_and_pages_bounded() {
        // 600 non-commutative reducers fill three private SPA pages (248
        // slots each); every leaf of a nested-join tree appends its index
        // to one reducer on each page, so a waiting worker that leapfrogs
        // sets aside and takes back views on all three. Serial order must
        // survive, and on the mmap backend no worker's array may ever
        // hold more than the three pages its contexts reach — read after
        // every leaf and after every join, so after each attach and merge.
        use crate::library::{ListMonoid, StringMonoid};
        use crate::{Reducer, ReducerPool};
        use cilkm_runtime::join;
        const WORKERS: usize = 4;
        const LEAVES: usize = 1 << 9;
        fn touched(leaf: usize) -> [usize; 3] {
            [leaf % 248, 248 + leaf * 5 % 248, 496 + leaf * 11 % 104]
        }

        let mut want_strings = vec![String::new(); 300];
        let mut want_lists = vec![Vec::new(); 300];
        for leaf in 0..LEAVES {
            for r in touched(leaf) {
                if r % 2 == 0 {
                    want_strings[r / 2].push_str(&format!("{leaf},"));
                } else {
                    want_lists[r / 2].push(leaf as u32);
                }
            }
        }

        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(WORKERS, backend);
            // Slots alternate: even ones strings, odd ones lists.
            let mut strings = Vec::new();
            let mut lists = Vec::new();
            for _ in 0..300 {
                strings.push(Reducer::new(&pool, StringMonoid::new(), String::new()));
                lists.push(Reducer::new(&pool, ListMonoid::<u32>::new(), Vec::new()));
            }

            struct Rs<'a> {
                strings: &'a [Reducer<StringMonoid>],
                lists: &'a [Reducer<ListMonoid<u32>>],
                widest: AtomicUsize,
            }
            fn go(lo: usize, hi: usize, rs: &Rs<'_>) {
                if hi - lo == 1 {
                    for r in touched(lo) {
                        if r % 2 == 0 {
                            rs.strings[r / 2].append(&format!("{lo},"));
                        } else {
                            rs.lists[r / 2].push(lo as u32);
                        }
                    }
                } else {
                    let mid = lo + (hi - lo) / 2;
                    join(|| go(lo, mid, rs), || go(mid, hi, rs));
                }
                rs.widest.fetch_max(pages_here(), Ordering::Relaxed);
            }
            let rs = Rs {
                strings: &strings,
                lists: &lists,
                widest: AtomicUsize::new(0),
            };
            for _ in 0..4 {
                pool.run(|| go(0, LEAVES, &rs));
            }

            for (k, r) in strings.iter().enumerate() {
                assert_eq!(
                    r.get_cloned(),
                    want_strings[k].repeat(4),
                    "{backend:?} s{k}"
                );
            }
            for (k, r) in lists.iter().enumerate() {
                assert_eq!(r.get_cloned(), want_lists[k].repeat(4), "{backend:?} l{k}");
            }
            let widest = rs.widest.load(Ordering::Relaxed);
            match backend {
                Backend::Hypermap => assert_eq!(widest, 0),
                Backend::Mmap => assert_eq!(widest, 3, "pages in the widest array"),
            }
        }
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
        let reducer_key = |&(page, idx): &(usize, usize)| {
            domain.reducer_key((page * VIEWS_PER_MAP + idx) as Slot)
        };
        let needed = views.keys().map(|&(page, _)| page + 1).max().unwrap_or(0);

        let mut state = hooks.make_worker_state(0);
        for (key, &v) in views {
            let view = lookup(reducer_key(key), &inst).expect("worker state");
            // SAFETY: a live u64 view owned by the current
            // context.
            unsafe { *(view as *mut u64) = v };
        }
        let det = hooks.detach(state.as_mut());
        let st = state.downcast_ref::<MmapWorkerState>().unwrap();
        assert!(
            (0..st.pages).all(|p| st.page_ref(p).is_empty()),
            "detach must leave the private array provably empty"
        );

        if !same_state {
            state = hooks.make_worker_state(1);
        }
        hooks.attach(state.as_mut(), det);
        let mut observed = BTreeMap::new();
        for key in views.keys() {
            let view = lookup(reducer_key(key), &inst).expect("worker state");
            // SAFETY: as above; attach installed this slot's view.
            observed.insert(*key, unsafe { *(view as *mut u64) });
        }
        let st = state.downcast_ref::<MmapWorkerState>().unwrap();
        assert_eq!(st.current_views, views.len(), "reading created no view");
        assert_eq!(st.pages, needed, "the array reaches the last view's page");
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
        /// exactly the model's values, leaves the private array empty
        /// and sizes the array to the views — back into the state it
        /// left, as often as into a fresh one.
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

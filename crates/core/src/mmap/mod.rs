//! The memory-mapped reducer backend — the paper's contribution (§4–§7).
//!
//! Each worker owns one **slot space**: an anonymous, page-aligned
//! `mmap` reservation of 265 private SPA maps (arrays of (view pointer,
//! monoid pointer) pairs, one page each), enough for every slot of the
//! process, made with the worker state and unmapped with it. A reducer
//! holds its slot's byte offset in it, the `tlmm_addr` of §6. The space
//! stands in for the worker's TLMM region: it never moves, its pages
//! never leave the worker, and the kernel zero-fills each one when a
//! context first touches it, so it needs no page table. The moving parts:
//!
//! * **Thread-local indirection (§5)** — the space stores only pointers;
//!   views live in shared memory, each in a cell of its creating worker's
//!   chunks that goes back to that worker when the view is reduced away
//!   (the `cells` module), so hypermerges need no remapping and no
//!   pointer swizzling, and the space itself needs only a trivial
//!   fixed-size-slot allocator (the process's slot allocator).
//! * **Lookup (§6)** — one TLS load yields the space's base; the view
//!   pointer at `base + tlmm_addr` is loaded and tested for null: two
//!   loads and one branch, the paper's shape (DESIGN.md §9.1 counts it).
//!   Slots are unique across pools, so a worker never holds a view at
//!   another pool's slot, and a thread with no worker state reads an
//!   all-zero static space: both read null and go to the miss, which
//!   tells them apart. A miss proper (at most once per reducer per
//!   steal) lazily creates an identity view and inserts it: one
//!   pointer-pair write plus a log append. It counts the view in the
//!   worker's own state, not in the domain's shared counters.
//! * **View transferal by copying (§7)** — a terminating context copies
//!   its private pairs into shared memory, zeroing the private entries as
//!   it goes, so the worker returns to work-stealing with a provably
//!   empty private space. What it copies them into is one flat,
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
use cilkm_spa::map::MAP_SIZE;
use cilkm_spa::{InsertOutcome, SpaMapRef, ViewPair, VIEWS_PER_MAP};

use crate::cells::WorkerCells;
use crate::domain::{foreign, refuse_in_root_fold, DomainInner, Slot, ADDR_MASK, MAX_SLOTS};
use crate::instrument::{bump, flush, Instrument};
use crate::monoid::MonoidInstance;
use crate::msync;
use cilkm_obs::profile::Burden;

/// SPA maps, and bytes, in a slot space: a page for every 248 slots of
/// the process, 265 pages, 1 085 440 bytes.
const SPACE_PAGES: usize = MAX_SLOTS.div_ceil(VIEWS_PER_MAP);
const SPACE_BYTES: usize = SPACE_PAGES * MAP_SIZE;

// Every slot's pair lies inside a slot space.
const _: () = assert!(tlmm_addr(MAX_SLOTS as Slot - 1) < SPACE_BYTES);

/// The slot space of every thread with no memory-mapped worker state
/// (a non-worker, or a worker of a hypermap pool), page-aligned: all
/// zeros, so each lookup there reads a null view and takes the miss.
/// Nothing writes it, and it is reached only through a raw pointer; it
/// is `mut` so that it sits in `.bss`, not in read-only data: no page
/// of it is resident until read, and a read maps the kernel's shared
/// zero page.
#[repr(C, align(4096))]
struct ZeroSpace([u8; SPACE_BYTES]);

static mut ZERO_SPACE: ZeroSpace = ZeroSpace([0; SPACE_BYTES]);

/// Per-worker state: the slot space, the highest page a context reached
/// in it, the count of views in it, the worker's view cells, and its
/// counts of lookups and first touches, which
/// `MmapWorkerState::flush_counts` adds to the domain's totals.
pub struct MmapWorkerState {
    domain: Arc<DomainInner>,
    /// The cells this worker's first touches take and its merges free.
    cells: WorkerCells,
    /// The slot space: map `p` at byte `p · MAP_SIZE` of a reservation
    /// made with the state, unmapped by its `Drop`, and never moved.
    base: *mut u8,
    /// One past the highest page any context of this worker has reached:
    /// the pages `drain_views` sweeps.
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
// `Box<dyn Any + Send>`); the slot space it points at is its own, and
// the views in it are `M::View: Send`.
unsafe impl Send for MmapWorkerState {}

/// The thread-local descriptor: the base of the thread's slot space, the
/// hit's one TLS load where Cilk-M's MMU resolves a `tlmm_addr`, and for
/// the miss path the current state and the key of its domain.
#[derive(Copy, Clone)]
struct MmapTls {
    base: *mut u8,
    key: u64,
    state: *mut MmapWorkerState,
}

impl MmapTls {
    /// No worker state: the zero space sends every lookup to the miss
    /// path, which finds `state` null.
    const NULL: MmapTls = MmapTls {
        base: (&raw mut ZERO_SPACE).cast(),
        key: 0,
        state: std::ptr::null_mut(),
    };
}

thread_local! {
    static MMAP_TLS: Cell<MmapTls> = const { Cell::new(MmapTls::NULL) };
}

/// The paper's `tlmm_addr` (§6) of `slot`: the byte offset of its view
/// pair in every worker's slot space — element `slot mod 248` of SPA map
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

/// Orders each `munmap` of a slot space before an `mmap` that reuses its
/// addresses, as the kernel does: the model checker and the sanitizer
/// key plain accesses by address, and would read a dead space's last
/// writes as racing with the first reads of a new space at its address.
static SPACE_REUSE: msync::Mutex<()> = msync::Mutex::new(());

/// Reserves a worker's slot space: one private anonymous mapping, which
/// the kernel zero-fills a page at a time on first touch (an all-zero
/// page is an empty SPA map). `MAP_NORESERVE`: a page never touched
/// costs address space only.
fn reserve_space() -> *mut u8 {
    let _reuse = SPACE_REUSE.lock();
    // SAFETY: an anonymous mapping at an address of the kernel's choosing
    // overlaps no memory the program holds.
    let base = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            SPACE_BYTES,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
            -1,
            0,
        )
    };
    assert_ne!(base, libc::MAP_FAILED, "reserving a worker's slot space");
    base.cast()
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

    /// The private SPA map on page `pidx` of the slot space.
    #[inline]
    fn page_ref(&self, pidx: usize) -> SpaMapRef {
        assert!(pidx < SPACE_PAGES, "page {pidx} is past the slot space");
        // SAFETY: map `pidx` lies inside the reservation: zero-filled by
        // the kernel (an empty map layout), written only through SPA-map
        // accessors since, private to this worker, and mapped until the
        // state's `Drop`.
        unsafe { SpaMapRef::from_raw(self.base.add(pidx * MAP_SIZE)) }
    }

    /// The copying strategy of §7: sequences each occupied private page
    /// by its log into one exactly-sized list of `(slot, pair)`, zeroing
    /// the private entries as the pairs leave, so the space is provably
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
        let _reuse = SPACE_REUSE.lock();
        // SAFETY: the reservation is this state's, `SPACE_BYTES` long, and
        // holds no view any more; no descriptor points at it now.
        let unmapped = unsafe { libc::munmap(self.base.cast(), SPACE_BYTES) };
        debug_assert_eq!(unmapped, 0, "munmap of a slot space");
    }
}

/// The memory-mapped reducer lookup (§6) of the reducer with `key`, its
/// hit half: one TLS load of the thread's slot-space base, then one load
/// of the view pointer at `base + tlmm_addr`, the key's address bits. It
/// reads nothing of the reducer but its key, and in plain release builds
/// touches no counter. [`Reducer::update`](crate::Reducer::update) tests
/// the view for null and calls the user's closure on it; DESIGN.md §9.1
/// lists the instructions the hit compiles to.
///
/// Returns null on anything but a hit: a first touch, a worker of
/// another pool (which never holds a view at this pool's slots) and a
/// thread with no worker state (whose base is the zero space). The
/// caller then takes [`lookup_miss`], on its cold path.
#[deny(clippy::indexing_slicing)]
#[inline(always)]
pub(crate) fn lookup(key: u64) -> *mut u8 {
    let tls = MMAP_TLS.with(|c| c.get());
    let base = tls.base;
    let tlmm_addr = (key & ADDR_MASK) as usize;
    // SAFETY: `base` is a slot space of `SPACE_BYTES`, the calling
    // worker's live reservation or the zero space, and a memory-mapped
    // key's address bits are a slot's `tlmm_addr`, whose pair lies inside
    // it (a const assertion above). Only shared reads happen on the fast
    // path.
    unsafe {
        // This read bypasses the SpaMapRef accessors, so record it for
        // the model checker / sanitizer explicitly (same whole-map
        // granularity). In plain builds the note is empty and the path
        // stays emit-free.
        let map = base.add(tlmm_addr - tlmm_addr % MAP_SIZE) as usize;
        msync::note_read(map, "SpaMap");
        let view = (*(base.add(tlmm_addr) as *const ViewPair)).view;
        if crate::instrument::ENABLED && !view.is_null() {
            // A view was found, so the space is a worker's, and its state
            // is live.
            let st = &*tls.state;
            st.lookups.set(st.lookups.get() + 1);
        }
        view
    }
}

/// True when the calling thread is a worker of a memory-mapped pool
/// other than the one the reducer with `key` belongs to.
#[inline]
pub(crate) fn on_foreign_worker(key: u64) -> bool {
    let tls = MMAP_TLS.with(|c| c.get());
    !tls.state.is_null() && foreign(key, tls.key)
}

/// The miss half of [`lookup`], called from `Reducer::update`'s cold
/// path. It tells three cases apart: no worker state of this reducer's
/// pool on this thread (null: the caller refuses a worker of another
/// pool, or takes the serial path), an access from a `reduce` the
/// region-end fold runs (the panic of [`refuse_in_root_fold`]), and the
/// miss proper, which happens at most once per reducer per steal (§6):
/// create and insert an identity view, counting both in the worker's
/// state. Out of line and not generic, so every `update` shares one copy.
/// It reads the TLS descriptor again rather than taking it from the hit
/// half.
#[cold]
#[inline(never)]
pub(crate) fn lookup_miss(key: u64, inst: &MonoidInstance) -> *mut u8 {
    let tls = MMAP_TLS.with(|c| c.get());
    let ptr = tls.state;
    if ptr.is_null() || foreign(key, tls.key) {
        return std::ptr::null_mut();
    }
    let (page, idx) = split((key & ADDR_MASK) as usize);
    // SAFETY: `ptr` is the caller's live TLS state; no `&mut` of it is
    // held across the user `identity()` call, whose nested lookups may
    // insert views of their own. `domain` points into the `Arc`'s
    // allocation, not into the state, and the state keeps it alive.
    unsafe {
        if crate::instrument::ENABLED {
            bump(&(*ptr).lookups);
        }
        if (*ptr).folding.get() {
            refuse_in_root_fold();
        }
        let domain = &*Arc::as_ptr(&(*ptr).domain);
        (*ptr).pages = (*ptr).pages.max(page + 1);

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
        view
    }
}

/// Both halves of the lookup, as `Reducer::update` runs them: the calling
/// context's view of the reducer with `key`, created on a first touch;
/// `None` off the workers. The tests drive the backend through it.
#[cfg(test)]
pub(crate) fn lookup_or_miss(key: u64, inst: &MonoidInstance) -> Option<*mut u8> {
    let view = lookup(key);
    let view = if view.is_null() {
        lookup_miss(key, inst)
    } else {
        view
    };
    (!view.is_null()).then_some(view)
}

/// Removes (and returns) the current context's view of the reducer with
/// `key`, if any: `None` also on a thread with no worker state of the
/// reducer's pool.
pub(crate) fn remove_current(key: u64) -> Option<*mut u8> {
    let tls = MMAP_TLS.with(|c| c.get());
    if tls.state.is_null() || foreign(key, tls.key) {
        return None;
    }
    let (page, idx) = split((key & ADDR_MASK) as usize);
    // SAFETY: thread-local state of the calling worker; no user code
    // runs inside the block, so the `&mut` cannot alias.
    unsafe {
        let st = &mut *tls.state;
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
            base: reserve_space(),
            pages: 0,
            lookups: Cell::new(0),
            view_creations: Cell::new(0),
            view_insertions: Cell::new(0),
            log_overflows: Cell::new(0),
            folding: Cell::new(false),
            current_views: 0,
        });
        // The Box's heap address is stable; publish it and the slot
        // space for the fast path.
        MMAP_TLS.with(|c| {
            c.set(MmapTls {
                base: state.base,
                key: self.domain.key,
                state: &*state as *const MmapWorkerState as *mut MmapWorkerState,
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
        // §7: copy the pairs back into the slot space, each at its slot.
        while let Some((slot, pair)) = det.views.pop() {
            let (pidx, idx) = split(tlmm_addr(slot));
            st.pages = st.pages.max(pidx + 1);
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
        // private space, so this costs one slot operation per right view
        // whichever side is larger. Each pair is popped before its
        // `reduce` runs: when that unwinds, `reduce_into` has consumed
        // the pair's view and `det` destroys the ones not yet merged.
        while let Some((slot, rpair)) = det.views.pop() {
            let (pidx, idx) = split(tlmm_addr(slot));
            // SAFETY: `st` is exclusively ours (see above); no `&mut` is
            // held across a `reduce_into`, so user reduce code may itself
            // perform lookups through MMAP_TLS. Both pairs hold live views
            // of the slot's monoid and the instance that created them.
            unsafe {
                (*st).pages = (*st).pages.max(pidx + 1);
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

    /// The memory-mapped state behind a worker state.
    pub(super) fn st(state: &dyn Any) -> &MmapWorkerState {
        state.downcast_ref().unwrap()
    }

    /// The base of the calling thread's slot space, read through its TLS.
    fn base_here() -> *mut u8 {
        MMAP_TLS.with(|c| c.get()).base
    }

    /// Checks, on a pool worker, that TLS points at a slot space of the
    /// worker's own, and at the one it pointed at when this thread first
    /// checked.
    fn base_stays_put() {
        thread_local! {
            static FIRST: Cell<*mut u8> = const { Cell::new(std::ptr::null_mut()) };
        }
        let here = base_here();
        assert_ne!(here, (&raw mut ZERO_SPACE).cast(), "the worker's own");
        if FIRST.with(Cell::get).is_null() {
            FIRST.with(|f| f.set(here));
        }
        assert_eq!(here, FIRST.with(Cell::get), "the slot space moved");
    }

    /// The PR 3 "500 + 300" exactness scenario at the hook level: the
    /// thief detaches its view, then panics, and the scheduler discards
    /// the detached set. Counts must stay exact (800 lookups, 1 copied
    /// view), every view must drop exactly once, and the owner must have
    /// reached the one page its slot lives on.
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
                lookup_or_miss(d2.reducer_key(3), &i2).expect("thief worker state");
            }
            let det = hooks.detach(state.as_mut());
            tx.send(det).unwrap();
            panic!("simulated unwind on the stolen branch");
        });

        let state = hooks.make_worker_state(0);
        for _ in 0..500 {
            lookup_or_miss(domain.reducer_key(3), &inst).expect("owner worker state");
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

        assert_eq!(st(state.as_ref()).pages, 1, "the slot's page, no more");
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
        let view = lookup_or_miss(domain.reducer_key(slot as Slot), inst)
            .expect("calling thread has no worker state");
        // SAFETY: `lookup_or_miss` returned a live `Tracked` that this
        // thread's current context owns; the borrow ends before the
        // context changes hands.
        unsafe { &mut *(view as *mut Tracked) }
    }

    /// The pages a context over `slots` reaches: up to the last one's.
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
    /// side unreduced, the context must hold exactly the model's views,
    /// having reached the last one's page, and every view must be
    /// dropped once.
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
        assert_eq!(
            st(state.as_ref()).current_views,
            model.len(),
            "|L ∪ R| views after the merge"
        );
        for (&slot, want) in &model {
            assert_eq!(&view(slot, &inst, &domain).s, want, "slot {slot}");
        }
        assert_eq!(
            st(state.as_ref()).current_views,
            model.len(),
            "reading created no view"
        );
        assert_eq!(st(state.as_ref()).pages, pages_for(model.keys().copied()));

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
    /// touches page 2 and merges the interim's set. The slot space never
    /// moves, and TLS points at it, at every step; the pages reached are
    /// the highest any of the worker's contexts reached.
    #[test]
    fn leapfrog_through_detach_and_attach_keeps_the_base_in_place() {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let tally = Arc::new(Tally::default());
        let monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
        let inst = MonoidInstance::new(&monoid);
        let hooks = MmapHooks::new(Arc::clone(&domain));
        let page = |p: usize| p * VIEWS_PER_MAP;

        let mut state = hooks.make_worker_state(0);
        let fixed = st(state.as_ref()).base;
        let step = |state: &dyn Any, reached: usize| {
            assert_eq!((st(state).base, base_here()), (fixed, fixed));
            assert_eq!(st(state).pages, reached);
        };
        step(state.as_ref(), 0);
        view(page(0), &inst, &domain).s.push('a');
        step(state.as_ref(), 1);
        let saved = hooks.detach(state.as_mut());
        step(state.as_ref(), 1);
        view(page(3), &inst, &domain).s.push('b');
        step(state.as_ref(), 4);
        let det = hooks.detach(state.as_mut());
        step(state.as_ref(), 4);
        hooks.attach(state.as_mut(), saved);
        step(state.as_ref(), 4);
        view(page(2), &inst, &domain).s.push('c');
        step(state.as_ref(), 4);
        hooks.merge_right(state.as_mut(), det);
        step(state.as_ref(), 4);

        for (p, want) in [(0, "a"), (2, "c"), (3, "b")] {
            assert_eq!(view(page(p), &inst, &domain).s, want, "page {p}");
        }
        step(state.as_ref(), 4);
        drop(state);
        assert_eq!(base_here(), (&raw mut ZERO_SPACE).cast(), "TLS is reset");
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

        assert_eq!(st(state.as_ref()).pages, 1);
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
    /// first touch of a page no context has reached, inside `lookup_miss`
    /// and `merge_right`.
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

    /// First touches of far pages inside user code, single-threaded so
    /// Miri runs it: inside the `identity` of a first touch and inside
    /// the `reduce` of a hypermerge. The merged value is the serial
    /// elision's, every view drops once, the slot space stays where it
    /// was reserved, and each slot's pair sits at `base + tlmm_addr`.
    #[test]
    fn first_touches_inside_identity_and_reduce_keep_the_base_in_place() {
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
            let fixed = st(state.as_ref()).base;
            view(MAIN, &inst, &domain).s.push('R'); // page 3 in the miss
            assert_eq!(st(state.as_ref()).pages, 4);
            assert_eq!((st(state.as_ref()).base, base_here()), (fixed, fixed));
            hooks.detach(state.as_mut())
        };
        let mut state = hooks.make_worker_state(0);
        let fixed = st(state.as_ref()).base;
        view(MAIN, &inst, &domain).s.push('L');
        assert_eq!(st(state.as_ref()).pages, 4);
        hooks.merge_right(state.as_mut(), det); // page 5 in the reduce
        assert_eq!(st(state.as_ref()).pages, 6);
        assert_eq!((st(state.as_ref()).base, base_here()), (fixed, fixed));

        assert_eq!(view(MAIN, &inst, &domain).s, "LR");
        assert_eq!(view(IDENTITY_SPILL, &monoid.spill, &domain).s, "ii");
        assert_eq!(view(REDUCE_SPILL, &monoid.spill, &domain).s, "r");
        let st = st(state.as_ref());
        for slot in [MAIN, IDENTITY_SPILL, REDUCE_SPILL] {
            let (page, idx) = split(tlmm_addr(slot as Slot));
            assert_eq!(
                st.page_ref(page).slot_ptr(idx) as usize,
                fixed as usize + tlmm_addr(slot as Slot),
                "slot {slot}"
            );
        }
        drop(state);
        assert_eq!(tally.counts(), (5, 5), "every view dropped once");
    }

    /// Every worker reads its own slot space through TLS, at one address
    /// over two regions, and the pool's teardown drops every worker
    /// state, each with its reservation.
    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn slot_spaces_stay_with_their_workers_and_go_with_the_pool() {
        use crate::library::SumMonoid;
        use crate::{Reducer, ReducerPool};
        let pool = ReducerPool::new(4, Backend::Mmap);
        let domain = Arc::clone(pool.domain());
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        for _ in 0..2 {
            pool.run(|| {
                cilkm_runtime::parallel_for(0..10_000, 32, &|range| {
                    for _ in range {
                        r.add(1);
                    }
                    base_stays_put();
                });
            });
        }
        assert_eq!(r.into_inner(), 20_000);
        drop(pool);
        assert_eq!(
            Arc::strong_count(&domain),
            1,
            "no worker state outlives the pool"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn leapfrogging_over_three_spa_pages_keeps_order_and_the_base_in_place() {
        // 600 non-commutative reducers fill about three private SPA pages
        // (248 slots each); every leaf of a nested-join tree appends its
        // index to one reducer of each third, so a waiting worker that
        // leapfrogs sets aside and takes back views on all of them.
        // Serial order must survive, and on the mmap backend each worker's
        // TLS points at its own slot space, which never moves — read after
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
                mmap: bool,
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
                if rs.mmap {
                    base_stays_put();
                }
            }
            let rs = Rs {
                strings: &strings,
                lists: &lists,
                mmap: backend == Backend::Mmap,
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
        }
    }
}

#[cfg(all(test, not(miri)))]
mod proptests {
    use super::*;
    use crate::domain::Backend;
    use crate::library::SumMonoid;
    use cilkm_base::rng::{cases, Xoshiro256};
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
            let view = lookup_or_miss(reducer_key(key), &inst).expect("worker state");
            // SAFETY: a live u64 view owned by the current
            // context.
            unsafe { *(view as *mut u64) = v };
        }
        let det = hooks.detach(state.as_mut());
        let st = super::tests::st(state.as_ref());
        assert!(
            (0..st.pages).all(|p| st.page_ref(p).is_empty()),
            "detach must leave the private space provably empty"
        );

        if !same_state {
            state = hooks.make_worker_state(1);
        }
        hooks.attach(state.as_mut(), det);
        let mut observed = BTreeMap::new();
        for key in views.keys() {
            let view = lookup_or_miss(reducer_key(key), &inst).expect("worker state");
            // SAFETY: as above; attach installed this slot's view.
            observed.insert(*key, unsafe { *(view as *mut u64) });
        }
        let st = super::tests::st(state.as_ref());
        assert_eq!(st.current_views, views.len(), "reading created no view");
        assert_eq!(st.pages, needed, "the pages reached end at the last view's");
        observed
    }

    fn gen_view_set(rng: &mut Xoshiro256) -> BTreeMap<(usize, usize), u64> {
        (0..rng.below(120))
            .map(|_| {
                let page = rng.below(4) as usize;
                let idx = rng.below(VIEWS_PER_MAP as u64) as usize;
                ((page, idx), 1 + rng.below(u32::MAX as u64 - 1))
            })
            .collect()
    }

    /// One side of a hypermerge: a size from the table test's list and
    /// that many distinct slots of the four pages, in random order.
    fn gen_side(rng: &mut Xoshiro256) -> Vec<usize> {
        const SIZES: [usize; 7] = [0, 1, 9, 120, 121, 248, 600];
        let size = SIZES[rng.below(SIZES.len() as u64) as usize];
        let mut slots: Vec<usize> = (0..super::tests::SLOTS).collect();
        for i in 0..size {
            let j = i + rng.below((slots.len() - i) as u64) as usize;
            slots.swap(i, j);
        }
        slots.truncate(size);
        slots
    }

    /// Over random view sets, a detach/attach round trip delivers
    /// exactly the model's values, leaves the private space empty and
    /// reaches the views' pages — back into the state it left, as often
    /// as into a fresh one.
    #[test]
    fn transferal_roundtrip_is_exact_and_leak_free() {
        cases(1, 24, |rng| {
            let views = gen_view_set(rng);
            let same_state = rng.next_u64() & 1 == 1;
            assert_eq!(&transfer_roundtrip(&views, same_state), &views);
        });
    }

    /// Left and right sets drawn independently: the hypermerge matches
    /// the model whichever side is larger and wherever the sets overlap.
    #[test]
    fn hypermerge_matches_the_model() {
        cases(2, 24, |rng| {
            let left = gen_side(rng);
            let right = gen_side(rng);
            super::tests::check_hypermerge(&left, &right);
        });
    }
}

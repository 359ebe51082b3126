//! The reducer *domain*: everything shared by all reducers of one pool —
//! its key (backend and id), the slot allocator (the `tlmm_addr` space
//! of §6), the leftmost-view registry, and an arena of simulated
//! physical pages that only the probes and ablation programs use.

use std::cell::Cell;
use std::sync::Arc;

use cilkm_runtime::{HyperHooks, Pool, PoolBuilder, PoolStats};
use cilkm_spa::ViewPair;
use cilkm_tlmm::PageArena;

use crate::instrument::{Instrument, InstrumentSnapshot, ReduceHistograms};
use crate::lockfree::{SerialBorrow, SlotRegistry, MAX_SLOTS};
use crate::monoid::MonoidInstance;
use crate::msync::atomic::{AtomicU64, Ordering};

/// Which reducer mechanism a pool runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Cilk Plus baseline: per-context hash tables (§3).
    Hypermap,
    /// The Cilk-M memory-mapping mechanism: TLMM + SPA maps (§4–§7).
    Mmap,
}

/// A reducer's identifier: its index in the shared slot space. For the
/// memory-mapped backend it names the paper's `tlmm_addr` (slot `s` lives
/// at byte `16·(s mod 248)` of private SPA page `s div 248` in every
/// worker's page array); the hypermap backend keeps it beside each view
/// for the region-end fold.
pub(crate) type Slot = u32;

/// Bits 0–20 of a reducer key: the slot's `tlmm_addr`.
///
/// A reducer's key is the one word its handle carries besides the `Arc`,
/// and all a lookup hit reads of the handle:
///
/// * bits 0–20, the slot's `tlmm_addr` (65 536 slots fill 265 SPA pages,
///   1 085 440 bytes < 2^21);
/// * bit 21, [`HYPERMAP_BIT`], set when the domain runs the hypermap;
/// * bits 22–63, the domain's id, drawn once from a process-wide counter,
///   so no two domains of one process share it.
///
/// A domain's own key is the same word with the address bits zero, and
/// each worker's TLS descriptor carries its domain's. `key ^ tls.key` is
/// therefore the reducer's `tlmm_addr` on a worker of its own pool and at
/// least 2^21 on any other thread: one compare against the page array's
/// length tests "a worker of this pool" and "inside the array" at once.
pub(crate) const ADDR_BITS: u32 = 21;

/// Bit 21 of a key: the domain runs [`Backend::Hypermap`].
pub(crate) const HYPERMAP_BIT: u64 = 1 << ADDR_BITS;

// The address bits hold every slot's `tlmm_addr`.
const _: () = assert!(crate::mmap::tlmm_addr(MAX_SLOTS as Slot - 1) < 1 << ADDR_BITS);

/// Where domain ids come from: each `DomainInner::new` takes the next.
static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(1);

/// True when `key`'s domain bits differ from `domain_key`'s: the reducer
/// belongs to another pool than the worker that looks it up.
#[inline]
pub(crate) fn foreign(key: u64, domain_key: u64) -> bool {
    (key ^ domain_key) >> ADDR_BITS != 0
}

/// The refusal of a reducer access from a `reduce` that the region-end
/// fold runs (DESIGN.md §13.2). Every view was drained before the fold,
/// so such an access always misses; both backends call this from their
/// miss path while their state's `folding` flag is set.
#[cold]
pub(crate) fn refuse_in_root_fold() -> ! {
    panic!("reducer accessed from a reduce run by the region-end fold")
}

/// The slot of the reducer with `key`.
pub(crate) fn key_slot(key: u64) -> Slot {
    crate::mmap::slot_at((key % (1 << ADDR_BITS)) as usize)
}

/// One reducer's leftmost storage: the view that holds the initial value
/// and, after a region completes, the final value.
#[derive(Copy, Clone)]
pub(crate) struct LeftmostEntry {
    pub view: *mut u8,
    pub monoid: *const u8,
}

/// Shared state of a reducer domain. Usually reached through
/// [`ReducerPool`]; exposed so benches can instrument it directly.
///
/// The slot allocator and leftmost registry live in the
/// [`SlotRegistry`]'s per-slot atomic cells; the domain holds no lock.
pub struct DomainInner {
    /// The backend bit and the domain id, address bits zero (see
    /// [`ADDR_BITS`]).
    pub(crate) key: u64,
    pub(crate) instrument: Instrument,
    registry: SlotRegistry,
    /// Simulated physical pages: the probes and ablation programs read
    /// it; neither backend allocates from it.
    pub(crate) arena: Arc<PageArena>,
}

impl DomainInner {
    pub(crate) fn new(backend: Backend) -> DomainInner {
        let id = NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed);
        let backend_bit = match backend {
            Backend::Hypermap => HYPERMAP_BIT,
            Backend::Mmap => 0,
        };
        DomainInner {
            key: (id << (ADDR_BITS + 1)) | backend_bit,
            instrument: Instrument::new(),
            registry: SlotRegistry::new(),
            arena: Arc::new(PageArena::new()),
        }
    }

    /// Which mechanism this domain runs.
    pub fn backend(&self) -> Backend {
        if self.key & HYPERMAP_BIT != 0 {
            Backend::Hypermap
        } else {
            Backend::Mmap
        }
    }

    /// The key of the reducer on `slot`.
    pub(crate) fn reducer_key(&self, slot: Slot) -> u64 {
        self.key | crate::mmap::tlmm_addr(slot) as u64
    }

    /// Instrumentation totals for the domain.
    pub fn instrument(&self) -> InstrumentSnapshot {
        self.instrument.snapshot()
    }

    /// The four §8 overhead categories as latency distributions.
    pub fn overhead_histograms(&self) -> ReduceHistograms {
        self.instrument.histograms()
    }

    pub(crate) fn alloc_slot(&self) -> Slot {
        self.registry.alloc()
    }

    pub(crate) fn free_slot(&self, slot: Slot) {
        self.registry.free(slot);
    }

    pub(crate) fn register_leftmost(&self, slot: Slot, view: *mut u8, monoid: *const u8) {
        self.registry.register(slot, view, monoid);
    }

    pub(crate) fn unregister_leftmost(&self, slot: Slot) -> Option<*mut u8> {
        self.registry.unregister(slot)
    }

    pub(crate) fn leftmost_entry(&self, slot: Slot) -> Option<LeftmostEntry> {
        self.registry
            .entry(slot)
            .map(|(view, monoid)| LeftmostEntry { view, monoid })
    }

    /// Replaces the leftmost view pointer of `slot`, returning the old one.
    pub(crate) fn swap_leftmost_view(&self, slot: Slot, new_view: *mut u8) -> *mut u8 {
        self.registry.swap_view(slot, new_view)
    }

    /// Takes the reducer's serial word for a serial-path access (panics
    /// if it is already held).
    pub(crate) fn serial_user(&self, slot: Slot) -> SerialBorrow<'_> {
        SerialBorrow::acquire_user(self.registry.cell(slot))
    }

    /// The region-end fold (both backends' `collect_root`): folds each of
    /// the root context's `views` into its slot's leftmost view, taking
    /// the slot's serial word around each fold.
    ///
    /// Regions are serialized by the pool's region lock and one worker
    /// collects a region's root, so in a correct program every word is
    /// free here. A held word means a serial access to that reducer
    /// overlaps the end of a region that updated it; the fold is refused
    /// with the panic every overlapping serial access gets, and
    /// `Pool::run` delivers it to its caller. On that unwind, or one out
    /// of the user's `reduce`, the views not yet folded are destroyed.
    ///
    /// `folding` is the calling worker's flag: set for the whole fold,
    /// on which its miss path refuses a nested reducer access
    /// ([`refuse_in_root_fold`]), and cleared however the fold ends.
    ///
    /// # Safety
    ///
    /// Every pair must hold a live boxed view of its slot's monoid and
    /// that monoid's erased instance, and the slots must still be
    /// registered (views must not outlive their reducer).
    // lint: hot-path
    pub(crate) unsafe fn fold_root(
        &self,
        folding: &Cell<bool>,
        views: impl Iterator<Item = (Slot, ViewPair)>,
    ) {
        struct Unfolded<'a, I: Iterator<Item = (Slot, ViewPair)>> {
            views: std::iter::Peekable<I>,
            folding: &'a Cell<bool>,
        }
        impl<I: Iterator<Item = (Slot, ViewPair)>> Drop for Unfolded<'_, I> {
            fn drop(&mut self) {
                // Cleared first: a refusal out of a leftover view's
                // `Drop` below would panic while unwinding, an abort.
                self.folding.set(false);
                for (_, pair) in &mut self.views {
                    // SAFETY: fn contract — a live view and the instance
                    // that created it; the iterator yields each once.
                    unsafe { MonoidInstance::from_erased(pair.monoid).drop_view(pair.view) };
                }
            }
        }
        folding.set(true);
        let mut rest = Unfolded {
            views: views.peekable(),
            folding,
        };
        while let Some(&(slot, pair)) = rest.views.peek() {
            // A refusal unwinds from here with `pair` still in `rest`.
            let _borrow = self.serial_user(slot);
            rest.views.next();
            // SAFETY: fn contract, and the serial word is held; the
            // reduce consumes `pair.view`, also when it unwinds.
            unsafe { self.fold_into_leftmost_unguarded(slot, pair.view) };
        }
    }

    /// Folds `view` into `slot`'s leftmost view; only for callers that
    /// already hold the reducer's serial borrow (the `Reducer`
    /// serial-point ops folding their own context view, and
    /// [`DomainInner::fold_root`]).
    ///
    /// # Safety
    ///
    /// `view` must be a live boxed view of the slot's monoid type, the
    /// slot must be registered, and the caller must hold the reducer's
    /// serial-access borrow.
    pub(crate) unsafe fn fold_into_leftmost_unguarded(&self, slot: Slot, view: *mut u8) {
        let entry = self
            .leftmost_entry(slot)
            .unwrap_or_else(|| panic!("views outlive reducer for slot {slot}"));
        let inst = MonoidInstance::from_erased(entry.monoid);
        inst.reduce_into(entry.view, view);
    }

    /// Number of live reducers (registered leftmost entries) — test aid.
    pub fn live_reducers(&self) -> usize {
        self.registry.live()
    }

    /// The simulated physical-page arena (probes and ablation programs;
    /// its crossing counters read 0 on both backends).
    pub fn arena_handle(&self) -> &Arc<PageArena> {
        &self.arena
    }
}

impl cilkm_obs::MetricsSource for DomainInner {
    fn collect(&self, out: &mut cilkm_obs::metrics::MetricsCollector) {
        let i = &self.instrument;
        out.counter("lookups", i.lookups.get());
        out.counter("view_creations", i.view_creations.get());
        out.counter("view_insertions", i.view_insertions.get());
        out.counter("transferals", i.transferals.get());
        out.counter("transferal_views", i.transferal_views.get());
        out.counter("merges", i.merges.get());
        out.counter("merge_pairs", i.merge_pairs.get());
        out.counter("log_overflows", i.log_overflows.get());
        out.histogram("view_creation_ns", i.view_creation_ns.snapshot());
        out.histogram("view_insertion_ns", i.view_insertion_ns.snapshot());
        out.histogram("transferal_ns", i.transferal_ns.snapshot());
        out.histogram("merge_ns", i.merge_ns.snapshot());
        let c = self.arena.crossings().snapshot();
        out.counter("palloc_calls", c.palloc_calls);
        out.counter("palloc_pages", c.palloc_pages);
        out.counter("pfree_calls", c.pfree_calls);
        out.counter("pmap_calls", c.pmap_calls);
        out.counter("pmap_pages", c.pmap_pages);
    }
}

/// A work-stealing pool with a reducer mechanism installed — one "runtime
/// system" in the paper's sense. Construct one per experiment arm:
/// `ReducerPool::new(16, Backend::Mmap)` is Cilk-M 1.0,
/// `ReducerPool::new(16, Backend::Hypermap)` is Cilk Plus.
pub struct ReducerPool {
    pool: Pool,
    domain: Arc<DomainInner>,
}

impl ReducerPool {
    /// Creates a pool of `threads` workers running the given backend.
    pub fn new(threads: usize, backend: Backend) -> ReducerPool {
        Self::with_stack_size(threads, backend, 8 << 20)
    }

    /// As [`ReducerPool::new`] with an explicit worker stack size.
    pub fn with_stack_size(threads: usize, backend: Backend, stack: usize) -> ReducerPool {
        let domain = Arc::new(DomainInner::new(backend));
        let base = match backend {
            Backend::Hypermap => "domain.hypermap",
            Backend::Mmap => "domain.mmap",
        };
        let weak = Arc::downgrade(&domain);
        cilkm_obs::metrics::global()
            .register(base, weak as std::sync::Weak<dyn cilkm_obs::MetricsSource>);
        let hooks: Arc<dyn HyperHooks> = match backend {
            Backend::Hypermap => Arc::new(crate::hypermap::HypermapHooks::new(Arc::clone(&domain))),
            Backend::Mmap => Arc::new(crate::mmap::MmapHooks::new(Arc::clone(&domain))),
        };
        let pool = PoolBuilder::new(threads)
            .hooks(hooks)
            .stack_size(stack)
            .build();
        ReducerPool { pool, domain }
    }

    /// Runs `f` as a parallel region; reducer final values are folded into
    /// leftmost storage before this returns.
    pub fn run<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.pool.run(f)
    }

    /// As [`ReducerPool::run`], additionally collecting the scheduler and
    /// reducer event trace of the region (empty without the `trace`
    /// feature; see `cilkm_runtime::Pool::run_traced` for caveats).
    pub fn run_traced<F, R>(&self, f: F) -> (R, cilkm_obs::Trace)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.pool.run_traced(f)
    }

    /// As [`ReducerPool::run`], additionally measuring work, span, and
    /// burdened span of the region with the online Cilkview-style
    /// accumulator (zeros without the `trace` feature; see
    /// `cilkm_runtime::Pool::run_profiled` for caveats).
    pub fn run_profiled<F, R>(&self, f: F) -> (R, cilkm_obs::ParallelismReport)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.pool.run_profiled(f)
    }

    /// Number of workers.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// Which backend this pool runs.
    pub fn backend(&self) -> Backend {
        self.domain.backend()
    }

    /// The shared domain (for creating reducers and reading instruments).
    pub fn domain(&self) -> &Arc<DomainInner> {
        &self.domain
    }

    /// Scheduler statistics (steals etc.).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Reducer-mechanism instrumentation totals.
    pub fn instrument(&self) -> InstrumentSnapshot {
        self.domain.instrument()
    }

    /// The four §8 overhead categories as latency distributions (the
    /// histogram sums are the [`InstrumentSnapshot`] nanosecond totals).
    pub fn overhead_histograms(&self) -> ReduceHistograms {
        self.domain.overhead_histograms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_recycled() {
        let d = DomainInner::new(Backend::Mmap);
        let a = d.alloc_slot();
        let b = d.alloc_slot();
        assert_ne!(a, b);
        d.free_slot(a);
        assert_eq!(d.alloc_slot(), a);
    }

    #[test]
    fn leftmost_registry_roundtrip() {
        let d = DomainInner::new(Backend::Hypermap);
        let s = d.alloc_slot();
        let view = Box::into_raw(Box::new(5u64)) as *mut u8;
        d.register_leftmost(s, view, std::ptr::null());
        assert_eq!(d.live_reducers(), 1);
        let e = d.leftmost_entry(s).unwrap();
        assert_eq!(e.view, view);
        let v = d.unregister_leftmost(s).unwrap();
        // SAFETY: the view was `Box::into_raw`ed above and unregistering
        // returned the sole remaining pointer to it.
        unsafe { drop(Box::from_raw(v as *mut u64)) };
        assert_eq!(d.live_reducers(), 0);
        assert!(d.leftmost_entry(s).is_none());
    }

    #[test]
    fn serial_word_is_released_on_drop() {
        let d = DomainInner::new(Backend::Mmap);
        let s = d.alloc_slot();
        let view = Box::into_raw(Box::new(0u64)) as *mut u8;
        d.register_leftmost(s, view, std::ptr::null());
        let b = d.serial_user(s);
        drop(b);
        let _b2 = d.serial_user(s);
        drop(_b2);
        let v = d.unregister_leftmost(s).unwrap();
        // SAFETY: sole remaining pointer, as registered above.
        unsafe { drop(Box::from_raw(v as *mut u64)) };
    }

    #[test]
    #[should_panic(expected = "concurrent serial access")]
    fn serial_borrow_panics_on_overlap() {
        let d = DomainInner::new(Backend::Mmap);
        let s = d.alloc_slot();
        let _a = d.serial_user(s);
        let _b = d.serial_user(s);
    }

    #[test]
    fn domain_appears_in_the_global_metrics_registry() {
        let pool = ReducerPool::new(2, Backend::Mmap);
        pool.run(|| ());
        let snap = cilkm_obs::metrics::global().snapshot();
        // Other tests register domains concurrently, so just require that
        // some mmap domain exports the expected counter and histogram
        // vocabulary (prefixes are uniquified as domain.mmap, #2, ...).
        assert!(
            snap.values
                .keys()
                .any(|k| k.starts_with("domain.mmap") && k.ends_with(".lookups")),
            "no domain.mmap*.lookups key in {:?}",
            snap.values.keys().collect::<Vec<_>>()
        );
        assert!(snap
            .values
            .keys()
            .any(|k| k.starts_with("domain.mmap") && k.ends_with(".merge_ns")));
        drop(pool);
    }

    /// The hooks of `domain`'s backend.
    fn hooks_for(domain: &Arc<DomainInner>) -> Box<dyn HyperHooks> {
        match domain.backend() {
            Backend::Hypermap => Box::new(crate::hypermap::HypermapHooks::new(Arc::clone(domain))),
            Backend::Mmap => Box::new(crate::mmap::MmapHooks::new(Arc::clone(domain))),
        }
    }

    /// The calling thread's view of reducer `slot` through `domain`'s
    /// backend lookup (the hypermap keys it by `inst`).
    fn lookup_in(
        domain: &DomainInner,
        slot: Slot,
        inst: &crate::monoid::MonoidInstance,
    ) -> Option<*mut u8> {
        let key = domain.reducer_key(slot);
        match domain.backend() {
            Backend::Hypermap => crate::hypermap::lookup(key, inst),
            Backend::Mmap => crate::mmap::lookup(key, inst),
        }
    }

    /// The scheduler drives both backends through the same two hooks,
    /// so the counters must read the same: a non-empty `detach` is one
    /// transferal of that many views — a leapfrog's as much as a stolen
    /// task's — and an empty one or an `attach` is none.
    #[test]
    fn nonempty_detach_counts_one_transferal_on_both_backends() {
        use crate::monoid::MonoidInstance;
        let counts = |backend: Backend| {
            let domain = Arc::new(DomainInner::new(backend));
            let monoid = Arc::new(crate::library::SumMonoid::<u64>::new());
            // The hypermap keys a view by its reducer's instance.
            let insts: Vec<MonoidInstance> = (0..5).map(|_| MonoidInstance::new(&monoid)).collect();
            let hooks = hooks_for(&domain);
            let mut state = hooks.make_worker_state(0);
            let mut seen = Vec::new();
            let mut note = || {
                let snap = domain.instrument();
                seen.push((snap.transferals, snap.transferal_views));
            };
            for (slot, inst) in insts.iter().enumerate() {
                lookup_in(&domain, slot as Slot, inst).expect("worker state");
            }
            let saved = hooks.detach(state.as_mut());
            note();
            let empty = hooks.detach(state.as_mut());
            note();
            hooks.discard(empty);
            hooks.attach(state.as_mut(), saved);
            note();
            hooks.discard(hooks.detach(state.as_mut()));
            note();
            seen
        };
        let mmap = counts(Backend::Mmap);
        assert_eq!(mmap, [(1, 5), (1, 5), (1, 5), (2, 10)]);
        assert_eq!(counts(Backend::Hypermap), mmap);
    }

    /// Two states made on one thread, as hook-level tests make them:
    /// dropping the older one leaves the newer one's fast path published
    /// (its lookups must not fall to the serial path), and dropping the
    /// newer one clears it.
    #[test]
    fn dropping_an_older_state_keeps_the_current_one_published() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let domain = Arc::new(DomainInner::new(backend));
            let monoid = Arc::new(crate::library::SumMonoid::<u64>::new());
            let inst = crate::monoid::MonoidInstance::new(&monoid);
            let hooks = hooks_for(&domain);
            let mut older = hooks.make_worker_state(0);
            hooks.discard(hooks.detach(older.as_mut()));
            let newer = hooks.make_worker_state(1);
            drop(older);
            assert!(lookup_in(&domain, 0, &inst).is_some(), "{backend:?}");
            drop(newer);
            assert!(lookup_in(&domain, 0, &inst).is_none(), "{backend:?}");
        }
    }

    #[test]
    fn pools_construct_for_both_backends() {
        let h = ReducerPool::new(2, Backend::Hypermap);
        let m = ReducerPool::new(2, Backend::Mmap);
        assert_eq!(h.backend(), Backend::Hypermap);
        assert_eq!(m.backend(), Backend::Mmap);
        assert_eq!(h.run(|| 1 + 1), 2);
        assert_eq!(m.run(|| 2 + 2), 4);
    }
}

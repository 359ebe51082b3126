//! The reducer *domain*: everything shared by all reducers of one pool —
//! its key (backend and id), the count of slots its reducers hold in the
//! process's one slot space (the `tlmm_addr` space of §6), the cell heap
//! every view a first touch creates lives in, and an arena of simulated
//! physical pages that only the probes and ablation programs use. Each
//! reducer keeps its own leftmost view in its [`MonoidInstance`].

use std::cell::Cell;
use std::sync::Arc;

use cilkm_obs::{MetricValue, MetricsSnapshot};
use cilkm_runtime::{HyperHooks, Pool, PoolBuilder, PoolStats};
use cilkm_spa::ViewPair;
use cilkm_tlmm::PageArena;

use crate::cells::{CellHeap, WorkerCells};
use crate::instrument::{Instrument, InstrumentSnapshot, ReduceHistograms};
use crate::monoid::MonoidInstance;
use crate::msync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::msync::Mutex;

/// Which reducer mechanism a pool runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Cilk Plus baseline: per-context hash tables (§3).
    Hypermap,
    /// The Cilk-M memory-mapping mechanism: TLMM + SPA maps (§4–§7).
    Mmap,
}

/// A reducer's identifier: its index in the process's slot space. For
/// the memory-mapped backend it names the paper's `tlmm_addr` (slot `s`
/// lives at byte `16·(s mod 248)` of SPA page `s div 248` in every
/// worker's slot space); the hypermap backend needs it only for the key.
pub(crate) type Slot = u32;

/// Slots the process can hand out, all pools together (one allocator
/// serves them all): 65 536, far above the "reasonable number of
/// reducers" the paper's footnote 9 assumes. The reducer past the limit
/// is refused with a panic ("slot space exhausted") that takes no slot.
pub(crate) const MAX_SLOTS: usize = 1 << 16;

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
/// each worker's TLS descriptor carries its domain's. The memory-mapped
/// hit reads only the address bits ([`ADDR_MASK`]): slots are unique
/// across pools, so a worker holds no view at another pool's slot, and
/// the domain bits are tested on the miss path ([`foreign`]).
pub(crate) const ADDR_BITS: u32 = 21;

/// The address bits of a key: the slot's `tlmm_addr`.
pub(crate) const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;

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

/// The refusal of a reducer access on a worker of another pool than the
/// reducer's: it has no view there, and its leftmost view belongs to the
/// serial code around its own pool's regions.
#[cold]
pub(crate) fn refuse_foreign_pool() -> ! {
    panic!("reducer used on a worker of a different pool")
}

/// The refusal of a reducer access from a `reduce` that the region-end
/// fold runs (DESIGN.md §13.2). Every view was drained before the fold,
/// so such an access always misses; both backends call this from their
/// miss path while their state's `folding` flag is set.
#[cold]
pub(crate) fn refuse_in_root_fold() -> ! {
    panic!("reducer accessed from a reduce run by the region-end fold")
}

/// The slot allocator: slots freed by dropped reducers, reused last in
/// first out, and the next never-used slot.
struct Slots {
    free: Vec<Slot>,
    fresh: Slot,
}

impl Slots {
    /// The last slot freed, else a fresh one; `None` when none is left.
    fn alloc(&mut self) -> Option<Slot> {
        let fresh = ((self.fresh as usize) < MAX_SLOTS).then_some(self.fresh);
        let slot = self.free.pop().or(fresh)?;
        if Some(slot) == fresh {
            self.fresh += 1;
        }
        Some(slot)
    }
}

/// The process's one slot allocator, which every pool's reducers draw
/// from. Its lock is taken only when a reducer is created or dropped.
static SLOTS: Mutex<Slots> = Mutex::new(Slots {
    free: Vec::new(),
    fresh: 0,
});

/// Shared state of a reducer domain. Usually reached through
/// [`ReducerPool`]; exposed so benches can instrument it directly.
///
/// Its reducers take their slots from the process's one allocator; the
/// cell heap's locks are taken to carve a chunk and to send freed cells
/// home.
pub struct DomainInner {
    /// The backend bit and the domain id, address bits zero (see
    /// [`ADDR_BITS`]).
    pub(crate) key: u64,
    pub(crate) instrument: Instrument,
    /// Slots this domain's reducers hold.
    live: AtomicUsize,
    /// The chunks every view made by a first touch lives in; each worker
    /// state holds its share as a [`WorkerCells`]. Freed with the domain,
    /// which every reducer and worker state keeps alive.
    pub(crate) cells: Arc<CellHeap>,
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
            live: AtomicUsize::new(0),
            cells: Arc::new(CellHeap::new()),
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

    /// Hands out a slot: the last one any pool freed, else a fresh one.
    /// Panics when all [`MAX_SLOTS`] are in use; the refusal takes none.
    pub(crate) fn alloc_slot(&self) -> Slot {
        let Some(slot) = SLOTS.lock().alloc() else {
            panic!("slot space exhausted ({MAX_SLOTS} slots, all pools together)");
        };
        self.live.fetch_add(1, Ordering::Relaxed);
        slot
    }

    pub(crate) fn free_slot(&self, slot: Slot) {
        SLOTS.lock().free.push(slot);
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// The region-end fold (both backends' `collect_root`): folds each of
    /// the root context's `views` into its reducer's leftmost view, which
    /// the pair's monoid pointer leads to, taking the reducer's serial
    /// word around each fold.
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
    /// `cells` are the calling worker's, which take the folded views'
    /// cells back.
    ///
    /// # Safety
    ///
    /// Every pair must hold a live view and the live instance that
    /// created it (views must not outlive their reducer); `cells` must
    /// point at the calling worker's live cells, borrowed by no
    /// reference.
    #[deny(clippy::indexing_slicing)]
    pub(crate) unsafe fn fold_root(
        &self,
        folding: &Cell<bool>,
        cells: *mut WorkerCells,
        views: impl Iterator<Item = ViewPair>,
    ) {
        struct Unfolded<'a, I: Iterator<Item = ViewPair>> {
            views: std::iter::Peekable<I>,
            folding: &'a Cell<bool>,
            cells: *mut WorkerCells,
        }
        impl<I: Iterator<Item = ViewPair>> Drop for Unfolded<'_, I> {
            fn drop(&mut self) {
                // Cleared first: a refusal out of a leftover view's
                // `Drop` below would panic while unwinding, an abort.
                self.folding.set(false);
                for pair in &mut self.views {
                    // SAFETY: fn contract — a live view and the instance
                    // that created it; the iterator yields each once.
                    unsafe {
                        MonoidInstance::from_erased(pair.monoid).drop_view(self.cells, pair.view)
                    };
                }
            }
        }
        folding.set(true);
        let mut rest = Unfolded {
            views: views.peekable(),
            folding,
            cells,
        };
        while let Some(&pair) = rest.views.peek() {
            // A refusal unwinds from here with `pair` still in `rest`.
            let borrow = MonoidInstance::from_erased(pair.monoid).serial_borrow();
            rest.views.next();
            // SAFETY: fn contract; the reduce consumes `pair.view`, also
            // when it unwinds.
            unsafe { borrow.fold(cells, pair.view) };
        }
    }

    /// Number of this domain's live reducers (slots they hold) — test
    /// aid.
    pub fn live_reducers(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The simulated physical-page arena (probes and ablation programs;
    /// its crossing counters read 0 on both backends).
    pub fn arena_handle(&self) -> &Arc<PageArena> {
        &self.arena
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
        let domain = Arc::new(DomainInner::new(backend));
        let hooks: Arc<dyn HyperHooks> = match backend {
            Backend::Hypermap => Arc::new(crate::hypermap::HypermapHooks::new(Arc::clone(&domain))),
            Backend::Mmap => Arc::new(crate::mmap::MmapHooks::new(Arc::clone(&domain))),
        };
        let pool = PoolBuilder::new(threads).hooks(hooks).build();
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

    /// This pool's counters since construction as one flat reading for
    /// [`cilkm_obs::export::write_metrics_json`]: [`ReducerPool::stats`]
    /// under `pool.`, [`ReducerPool::instrument`]'s counts and the
    /// [`ReducerPool::overhead_histograms`] under `domain.<backend>.`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let (s, i, h) = (self.stats(), self.instrument(), self.overhead_histograms());
        let d = match self.backend() {
            Backend::Hypermap => "domain.hypermap",
            Backend::Mmap => "domain.mmap",
        };
        let (c, hist) = (MetricValue::Counter, MetricValue::Histogram);
        let values = [
            ("pool", "steals", c(s.steals)),
            ("pool", "failed_steals", c(s.failed_steals)),
            ("pool", "steal_attempts", c(s.steal_attempts)),
            ("pool", "jobs_executed", c(s.jobs_executed)),
            ("pool", "inline_joins", c(s.inline_joins)),
            ("pool", "stolen_joins", c(s.stolen_joins)),
            ("pool", "parks", c(s.parks)),
            ("pool", "wakes", c(s.wakes)),
            ("pool", "deque_hwm", c(s.deque_hwm)),
            (d, "lookups", c(i.lookups)),
            (d, "view_creations", c(i.view_creations)),
            (d, "view_insertions", c(i.view_insertions)),
            (d, "transferals", c(i.transferals)),
            (d, "transferal_views", c(i.transferal_views)),
            (d, "merges", c(i.merges)),
            (d, "merge_pairs", c(i.merge_pairs)),
            (d, "log_overflows", c(i.log_overflows)),
            (d, "view_creation_ns", hist(h.view_creation)),
            (d, "view_insertion_ns", hist(h.view_insertion)),
            (d, "transferal_ns", hist(h.transferal)),
            (d, "merge_ns", hist(h.hypermerge)),
        ];
        MetricsSnapshot {
            values: values
                .map(|(prefix, name, v)| (format!("{prefix}.{name}"), v))
                .into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocator on an instance of its own (other tests share the
    /// process's): freed slots come back last in first out, before any
    /// fresh one.
    #[test]
    fn slots_are_recycled() {
        let mut slots = Slots {
            free: Vec::new(),
            fresh: 0,
        };
        let (a, b) = (slots.alloc(), slots.alloc());
        assert_ne!(a, b);
        slots.free.extend([b, a].map(Option::unwrap));
        assert_eq!(
            [slots.alloc(), slots.alloc(), slots.alloc()],
            [a, b, Some(2)]
        );
    }

    #[test]
    fn serial_word_is_released_on_drop() {
        let monoid = Arc::new(crate::library::SumMonoid::<u64>::new());
        let inst = MonoidInstance::new(&monoid);
        drop(inst.serial_borrow());
        drop(inst.serial_borrow());
    }

    #[test]
    #[should_panic(expected = "concurrent serial access")]
    fn serial_borrow_panics_on_overlap() {
        let monoid = Arc::new(crate::library::SumMonoid::<u64>::new());
        let inst = MonoidInstance::new(&monoid);
        let _a = inst.serial_borrow();
        let _b = inst.serial_borrow();
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
            Backend::Hypermap => Some(crate::hypermap::lookup(key, inst)).filter(|v| !v.is_null()),
            Backend::Mmap => crate::mmap::lookup_or_miss(key, inst),
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

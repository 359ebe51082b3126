//! The hypermap reducer backend — our re-implementation of the Cilk Plus
//! mechanism the paper uses as its baseline (§3).
//!
//! Each execution context owns a [`HyperMap`] (a chained hash table from
//! reducer id to view). Lookups hash and probe; first accesses after a
//! steal lazily create identity views and insert them; view transferal is
//! a pointer switch (the whole map moves); hypermerge sweeps the smaller
//! map into the larger, invoking the monoid reduce for keys present in
//! both.

mod table;

pub use table::HyperMap;

use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

use cilkm_runtime::{DetachedViews, HyperHooks};
use cilkm_spa::ViewPair;

use crate::cells::WorkerCells;
use crate::domain::{foreign, refuse_in_root_fold, DomainInner};
use crate::instrument::{bump, flush, Instrument};
use crate::monoid::MonoidInstance;
use cilkm_obs::profile::Burden;

/// Per-worker state: the current context's hypermap, the worker's view
/// cells, and its counts of lookups and first touches, which
/// `HypermapWorkerState::flush_counts` adds to the domain's totals.
///
/// The map is boxed because that is how Cilk Plus holds it too
/// (`w->reducer_map` is a pointer to a heap-allocated `cilkred_map`): the
/// lookup path pays one extra dependent load to reach the buckets, view
/// transferal switches the pointer, and a thief's fresh context is a
/// freshly allocated empty map (§3).
pub struct HypermapWorkerState {
    domain: Arc<DomainInner>,
    current: Box<HyperMap>,
    /// The cells this worker's first touches take and its merges free.
    cells: WorkerCells,
    lookups: Cell<u64>,
    view_creations: Cell<u64>,
    view_insertions: Cell<u64>,
    /// Set while `collect_root` folds the region's views: a reducer
    /// access from a `reduce` the fold runs is refused (DESIGN.md §13.2).
    folding: Cell<bool>,
}

// SAFETY: the state is owned by exactly one worker at a time and handed
// between threads only while quiescent (it travels as
// `Box<dyn Any + Send>`), and the views it owns are `M::View: Send`
// behind their type-erased pointers.
unsafe impl Send for HypermapWorkerState {}

/// The thread-local fast-path descriptor: the current state and the key
/// of the domain it serves, against which a lookup tests the reducer's.
#[derive(Copy, Clone)]
struct HypermapTls {
    state: *mut HypermapWorkerState,
    key: u64,
}

impl HypermapTls {
    /// No worker state: key 0 lacks the hypermap bit every hypermap
    /// reducer's key has, so every lookup takes the mismatch branch.
    const NULL: HypermapTls = HypermapTls {
        state: std::ptr::null_mut(),
        key: 0,
    };
}

thread_local! {
    static HYPERMAP_TLS: Cell<HypermapTls> = const { Cell::new(HypermapTls::NULL) };
}

/// Views drained out of a hypermap and owned by no context. Whatever is
/// still here on drop is destroyed, so a `reduce` that unwinds out of a
/// hypermerge loses no view.
struct Orphans(Vec<(u64, ViewPair)>);

impl Drop for Orphans {
    fn drop(&mut self) {
        for (_, pair) in self.0.drain(..) {
            // SAFETY: every pair a context's hypermap held stores the
            // erased address of the live `MonoidInstance` that created
            // `pair.view`, and draining removed it from the map, so the
            // view is dropped exactly once. No worker state is at hand:
            // its cell goes straight home.
            unsafe {
                MonoidInstance::from_erased(pair.monoid).drop_view(std::ptr::null_mut(), pair.view)
            };
        }
    }
}

impl HypermapWorkerState {
    /// Adds the worker's counts to the domain's totals and zeroes them:
    /// at every hook that ends or merges a context, and at `Drop`.
    fn flush_counts(&self) {
        let ins = &self.domain.instrument;
        flush(&self.lookups, &ins.lookups);
        flush(&self.view_creations, &ins.view_creations);
        flush(&self.view_insertions, &ins.view_insertions);
    }
}

impl Drop for HypermapWorkerState {
    fn drop(&mut self) {
        self.flush_counts();
        // Another state may have been made current on this thread since.
        HYPERMAP_TLS.with(|c| {
            if std::ptr::eq(c.get().state, self) {
                c.set(HypermapTls::NULL)
            }
        });
        // Any leftover views (a panicked region) are destroyed, not leaked.
        drop(Orphans(self.current.drain()));
    }
}

/// The reducer lookup, hypermap style, of the reducer with `key` and
/// instance `inst`: test the key's domain bits against the worker's,
/// hash the reducer's address, walk the bucket chain, lazily creating an
/// identity view on a miss.
///
/// Returns null when the calling thread is no worker of the reducer's
/// pool (the caller then takes its cold path: a refusal on a worker of
/// another pool, or the serial leftmost path).
///
/// Deliberately `#[inline(never)]`: in Cilk Plus every reducer access is
/// an opaque call into the runtime (`__cilkrts_hyper_lookup` through the
/// ABI of [17]), whereas the memory-mapped lookup of Cilk-M compiles to
/// straight-line loads because the "map" is the virtual-memory hardware.
/// Keeping the hypermap lookup out-of-line preserves that structural
/// difference, which is part of what Figure 1 measures. The miss stays
/// behind this one call, as in Cilk Plus, and not on `update`'s cold
/// path.
#[deny(clippy::indexing_slicing)]
#[inline(never)]
pub(crate) fn lookup(key: u64, inst: &MonoidInstance) -> *mut u8 {
    let tls = HYPERMAP_TLS.with(|c| c.get());
    if foreign(key, tls.key) {
        // No worker state here, or another pool's.
        return std::ptr::null_mut();
    }
    let ptr = tls.state;
    // The hash key is the reducer's address (§3), as in Cilk Plus.
    let hkey = inst.as_erased() as u64;
    // SAFETY: matching domain bits mean TLS holds the worker's live
    // state, installed by `make_worker_state`, and only this thread
    // dereferences it; no `&mut` overlaps because lookups never reenter
    // the scheduler.
    unsafe {
        let st = &*ptr;
        if crate::instrument::ENABLED {
            st.lookups.set(st.lookups.get() + 1);
        }
        if let Some(pair) = st.current.get(hkey) {
            return pair.view;
        }
    }
    lookup_miss(hkey, inst, ptr)
}

/// True when the calling thread is a worker of a hypermap pool other
/// than the one the reducer with `key` belongs to. Not `#[inline]`: a
/// caller in another crate would make the thread-local reachable from
/// there, and `lookup`'s access to it would take one more instruction.
pub(crate) fn on_foreign_worker(key: u64) -> bool {
    let tls = HYPERMAP_TLS.with(|c| c.get());
    !tls.state.is_null() && foreign(key, tls.key)
}

/// The outlined miss path: creates and inserts an identity view (at most
/// once per reducer per steal), counting both in the worker's state. An
/// access from a `reduce` the region-end fold runs is refused instead
/// ([`refuse_in_root_fold`]).
#[cold]
#[inline(never)]
fn lookup_miss(key: u64, inst: &MonoidInstance, ptr: *mut HypermapWorkerState) -> *mut u8 {
    // SAFETY: `ptr` is the caller's live TLS state; the borrow is
    // re-derived after the user `identity()` call rather than held
    // across it, so no aliasing `&mut` can exist. `domain` points into
    // the `Arc`'s allocation, not into the state, which keeps it alive.
    unsafe {
        if (*ptr).folding.get() {
            refuse_in_root_fold();
        }
        let domain = &*Arc::as_ptr(&(*ptr).domain);
        // Create an identity view (user code — no state borrow held).
        let t0 = Instrument::short_timer();
        let view = inst.identity(std::ptr::addr_of_mut!((*ptr).cells));
        bump(&(*ptr).view_creations);
        Instrument::add_short_ns(
            &domain.instrument.view_creation_ns,
            t0,
            Burden::ViewCreation,
        );

        let t1 = Instrument::short_timer();
        (*ptr).current.insert(
            key,
            ViewPair {
                view,
                monoid: inst.as_erased(),
            },
        );
        bump(&(*ptr).view_insertions);
        Instrument::add_short_ns(
            &domain.instrument.view_insertion_ns,
            t1,
            Burden::ViewInsertion,
        );
        view
    }
}

/// Removes (and returns) the current context's view of the reducer with
/// `key` and instance `inst`, if the calling thread is a worker of the
/// reducer's pool and holds one. Used by serial-point reads and reducer
/// destruction.
pub(crate) fn remove_current(key: u64, inst: &MonoidInstance) -> Option<*mut u8> {
    let tls = HYPERMAP_TLS.with(|c| c.get());
    if tls.state.is_null() || foreign(key, tls.key) {
        return None;
    }
    // SAFETY: as in `lookup` — thread-local state, no live borrows, and
    // no user code runs inside the block.
    unsafe {
        (*tls.state)
            .current
            .remove(inst.as_erased() as u64)
            .map(|p| p.view)
    }
}

/// The hypermap implementation of the scheduler hooks.
pub struct HypermapHooks {
    domain: Arc<DomainInner>,
}

impl HypermapHooks {
    /// Hooks for `domain`.
    pub fn new(domain: Arc<DomainInner>) -> HypermapHooks {
        HypermapHooks { domain }
    }

    fn ins(&self) -> &Instrument {
        &self.domain.instrument
    }
}

impl HyperHooks for HypermapHooks {
    fn make_worker_state(&self, index: usize) -> Box<dyn Any + Send> {
        let state = Box::new(HypermapWorkerState {
            domain: Arc::clone(&self.domain),
            current: Box::new(HyperMap::new()),
            cells: WorkerCells::new(&self.domain.cells, index),
            lookups: Cell::new(0),
            view_creations: Cell::new(0),
            view_insertions: Cell::new(0),
            folding: Cell::new(false),
        });
        // The Box's heap address is stable; publish it for the fast path.
        let raw = &*state as *const HypermapWorkerState as *mut HypermapWorkerState;
        HYPERMAP_TLS.with(|c| {
            c.set(HypermapTls {
                state: raw,
                key: self.domain.key,
            })
        });
        state
    }

    fn detach(&self, state: &mut dyn Any) -> DetachedViews {
        let st = state
            .downcast_mut::<HypermapWorkerState>()
            .expect("hypermap state");
        st.flush_counts();
        let t0 = Instrument::transferal_timer();
        // View transferal in the hypermap scheme: switch a few pointers —
        // the whole map is handed over, and the context gets a freshly
        // created empty map, as on a steal in Cilk Plus (§3, §7).
        let map = std::mem::replace(&mut st.current, Box::new(HyperMap::new()));
        let n = map.len() as u64;
        if n != 0 {
            self.ins().transferals.inc();
            self.ins().transferal_views.add(n);
        }
        self.ins().finish_transferal(t0);
        // `map` is already a heap allocation; hand it over as-is.
        map
    }

    fn attach(&self, state: &mut dyn Any, views: DetachedViews) {
        let st = state
            .downcast_mut::<HypermapWorkerState>()
            .expect("hypermap state");
        let map = views.downcast::<HyperMap>().expect("hypermap views");
        debug_assert!(st.current.is_empty(), "attach over non-empty context");
        st.current = map;
    }

    fn merge_right(&self, state: &mut dyn Any, right: DetachedViews) {
        // Raw pointer: monoid reduce is user code that may itself perform
        // reducer lookups through the TLS path, so no `&mut` to the state
        // may be live across those calls.
        let st: *mut HypermapWorkerState = state
            .downcast_mut::<HypermapWorkerState>()
            .expect("hypermap state");
        let mut right = right.downcast::<HyperMap>().expect("hypermap views");
        let t0 = Instrument::merge_timer();
        self.ins().merges.inc();
        let mut pairs_reduced = 0u64;

        // SAFETY: `st` is exclusively ours (see above); every `&mut` is
        // re-derived between `reduce_into` calls so user reduce code may
        // itself perform lookups through the TLS pointer. Each pair holds
        // a live view and the instance that created it; `reduce_into`
        // consumes its right operand, also when it unwinds.
        unsafe {
            if right.len() <= (*st).current.len() {
                // Sweep the smaller (right) set into the current map.
                let mut rest = Orphans(right.drain());
                while let Some((key, rpair)) = rest.0.pop() {
                    match (*st).current.get(key) {
                        Some(lpair) => {
                            pairs_reduced += 1;
                            MonoidInstance::from_erased(rpair.monoid).reduce_into(
                                std::ptr::addr_of_mut!((*st).cells),
                                lpair.view,
                                rpair.view,
                            );
                        }
                        None => {
                            (*st).current.insert(key, rpair);
                        }
                    }
                }
            } else {
                // Adopt the larger (right) map and sweep the smaller
                // (left) set into it. A left view takes its key's place
                // in the map before the reduce that keeps it as the
                // serially-earlier operand, so at every `reduce` each
                // view is owned by the map or by `rest`.
                let left = std::mem::replace(&mut (*st).current, right).drain();
                let mut rest = Orphans(left);
                while let Some((key, lpair)) = rest.0.pop() {
                    let rpair = (*st).current.remove(key);
                    (*st).current.insert(key, lpair);
                    if let Some(rpair) = rpair {
                        pairs_reduced += 1;
                        MonoidInstance::from_erased(lpair.monoid).reduce_into(
                            std::ptr::addr_of_mut!((*st).cells),
                            lpair.view,
                            rpair.view,
                        );
                    }
                }
            }
            // The owner of a region may never detach (it does only to
            // leapfrog): its first touches reach the totals here, at
            // every join that merges.
            (*st).flush_counts();
        }
        self.ins().merge_pairs.add(pairs_reduced);
        Instrument::add_merge_ns(&self.ins().merge_ns, t0);
    }

    fn collect_root(&self, state: &mut dyn Any) {
        let st: *mut HypermapWorkerState = state
            .downcast_mut::<HypermapWorkerState>()
            .expect("hypermap state");
        // SAFETY: exclusive access via the `&mut dyn Any` argument, and
        // no borrow of the state is live across the fold, whose user
        // `reduce` code may itself perform lookups through the TLS path.
        unsafe {
            (*st).flush_counts();
            let drained = (*st).current.drain();
            // SAFETY: each pair is a live view with the live
            // instance that created it (views must not outlive their
            // reducer).
            self.domain.fold_root(
                &(*st).folding,
                std::ptr::addr_of_mut!((*st).cells),
                drained.into_iter().map(|(_, pair)| pair),
            );
        }
    }

    fn discard(&self, views: DetachedViews) {
        // Discard runs on a panic path, where the current context may
        // unwind without ever reaching a detach/collect; flush the
        // calling worker's counts here so the domain totals stay exact
        // even when one side of a join panics.
        let ptr = HYPERMAP_TLS.with(|c| c.get()).state;
        if !ptr.is_null() {
            // SAFETY: the TLS pointer is the calling worker's live state;
            // `flush_counts` takes `&self` and only touches its `Cell`
            // counts and shared atomics.
            unsafe { (*ptr).flush_counts() };
        }
        let mut map = views.downcast::<HyperMap>().expect("hypermap views");
        drop(Orphans(map.drain()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Backend, Slot};
    use crate::monoid::testing::{Tally, TrackedConcat};
    use crate::msync::atomic::Ordering;

    /// A `reduce` that unwinds out of a hypermerge, in each sweep
    /// direction: every view — merged, not yet merged, or waiting on the
    /// other side — is destroyed exactly once, by the sweep's `Orphans`
    /// or with the worker state.
    #[test]
    fn reduce_panic_in_hypermerge_drops_every_view_once() {
        // Right no larger than left sweeps right into left; a larger
        // right is adopted and left swept into it.
        for (left, right) in [(5usize, 5usize), (2, 5)] {
            let domain = Arc::new(DomainInner::new(Backend::Hypermap));
            let tally = Arc::new(Tally::default());
            let monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
            // The hypermap keys a view by its reducer's instance.
            let insts: Vec<MonoidInstance> = (0..5).map(|_| MonoidInstance::new(&monoid)).collect();
            let hooks = HypermapHooks::new(Arc::clone(&domain));
            // First touch creates the view; the probe needs no more.
            let touch = |n: usize| {
                for (slot, inst) in insts.iter().enumerate().take(n) {
                    assert!(!lookup(domain.reducer_key(slot as Slot), inst).is_null());
                }
            };

            let det = {
                let mut state = hooks.make_worker_state(1);
                touch(right);
                hooks.detach(state.as_mut())
            };
            let mut state = hooks.make_worker_state(0);
            touch(left);
            tally.poisoned.store(true, Ordering::SeqCst);
            let merge = std::panic::AssertUnwindSafe(|| hooks.merge_right(state.as_mut(), det));
            assert!(std::panic::catch_unwind(merge).is_err(), "reduce panics");

            drop(state);
            let made = left + right;
            assert_eq!(tally.counts(), (made, made), "left {left}, right {right}");
        }
    }
}

//! The user-facing reducer handle.
//!
//! A [`Reducer`] corresponds to a Cilk Plus `cilk::reducer` object: it
//! owns the monoid, the *leftmost view* (which carries the initial value
//! and, after a region, the final value; kept in its [`MonoidInstance`]
//! beside the serial word that guards it), and its slot in the domain's
//! shared id space.
//!
//! The handle itself is the paper's reducer object: 16 bytes, a pointer
//! to the heap block that owns all of the above and a key that packs the
//! slot's `tlmm_addr` with the pool's backend and id (see
//! `domain::ADDR_BITS`). A lookup hit reads the key and nothing behind
//! the pointer: the memory-mapped backend indexes the worker's slot space
//! with the key's address bits; the hypermap backend takes its pool test
//! from the key and hashes the monoid instance's address, which is
//! computed from the pointer, not loaded through it.
//!
//! Accesses go through [`Reducer::update`] (or the typed wrappers in
//! [`crate::library`]): on a pool worker this resolves the current
//! execution context's local view through the backend's lookup path; on
//! any other thread it operates directly on the leftmost view (serial
//! semantics, checked against concurrent misuse).

use std::sync::Arc;

use crate::domain::{refuse_foreign_pool, DomainInner, ReducerPool, Slot, HYPERMAP_BIT};
use crate::monoid::{Monoid, MonoidInstance, SerialBorrow};
use crate::{hypermap, mmap};

struct ReducerInner<M: Monoid> {
    /// Type-erased ops, the leftmost view and the serial word; views in
    /// the runtime's maps point at this, and the hypermap backend hashes
    /// its address.
    instance: MonoidInstance,
    /// Keeps `instance.data` alive.
    monoid: Arc<M>,
    slot: Slot,
    domain: Arc<DomainInner>,
}

// SAFETY: `instance` is Send/Sync (see monoid.rs), `monoid` is only ever
// used through `&M` by the vtable shims, and the leftmost view is an
// `M::View: Send` reached only through the instance, so the owner
// thread can change.
unsafe impl<M: Monoid> Send for ReducerInner<M> {}
// SAFETY: cross-thread access during a parallel region goes through the
// per-context views (never the same view from two threads), and serial
// access to the leftmost view is excluded by the instance's serial word
// (`SerialBorrow`).
unsafe impl<M: Monoid> Sync for ReducerInner<M> {}

/// A reducer hyperobject over monoid `M`.
///
/// Create with [`Reducer::new`]; share across parallel branches by
/// reference (`&Reducer<M>` is `Send + Sync`); read the final value with
/// [`Reducer::get_cloned`], [`Reducer::take`], or [`Reducer::into_inner`].
///
/// # Lifetime rules (as in Cilk)
///
/// The reducer must outlive every parallel region that accesses it, and
/// serial-point operations (`get_cloned`/`take`/`read`) require that no
/// parallel branch is concurrently updating it — i.e. they are legal in
/// the serial spine of the computation, such as between the layers of
/// PBFS. Violations are detected where cheap (overlapping serial access
/// panics, and so does an update on a worker of another pool) but cannot
/// all be diagnosed.
///
/// # Layout
///
/// The handle is 16 bytes: the pointer to its shared state, and the key
/// a lookup reads in its place — the slot's `tlmm_addr`, the backend and
/// the pool's id in one word. A memory-mapped hit reads the key, the
/// base of the worker's slot space from TLS and one view pointer in that
/// space, and nothing behind the handle's pointer.
pub struct Reducer<M: Monoid> {
    inner: Arc<ReducerInner<M>>,
    key: u64,
}

/// True on a worker of any pool but the one the reducer with `key`
/// belongs to. Each backend's lookup and removal find no view there,
/// whatever the other pool's backend, so without this test the caller
/// would take the serial path and update the leftmost view from inside
/// a region. `update_cold` and `remove_current` refuse it; a hit never
/// reaches here.
#[inline]
fn on_foreign_worker(key: u64) -> bool {
    mmap::on_foreign_worker(key) || hypermap::on_foreign_worker(key)
}

#[cfg(debug_assertions)]
thread_local! {
    /// Debug-only reentrancy guard: views with a live `&mut` on this
    /// thread. `update(|v| same_reducer.update(..))` would alias `v`.
    static ACTIVE_VIEWS: std::cell::RefCell<Vec<*mut u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl<M: Monoid> Reducer<M> {
    /// Registers a new reducer with `pool`'s domain, with the given
    /// initial value as its leftmost view.
    pub fn new(pool: &ReducerPool, monoid: M, initial: M::View) -> Reducer<M> {
        let domain = pool.domain();
        let slot = domain.alloc_slot();
        let monoid = Arc::new(monoid);
        let leftmost = Box::into_raw(Box::new(initial)) as *mut u8;
        let inner = Arc::new(ReducerInner {
            instance: MonoidInstance::with_leftmost(&monoid, leftmost),
            monoid,
            slot,
            domain: Arc::clone(domain),
        });
        Reducer {
            inner,
            key: domain.reducer_key(slot),
        }
    }

    /// The reducer's slot id (its `tlmm_addr` analogue) — diagnostics.
    pub fn slot(&self) -> u32 {
        self.inner.slot
    }

    /// The monoid.
    pub fn monoid(&self) -> &M {
        &self.inner.monoid
    }

    /// Applies `f` to the current execution context's local view —
    /// *the* reducer access of the paper.
    ///
    /// On a pool worker this performs the backend lookup (hash probe for
    /// hypermaps; two loads and a branch inline for memory-mapped
    /// reducers), lazily creating an identity view on the first access
    /// after a steal. On a non-worker thread it addresses the leftmost
    /// view directly.
    ///
    /// `f` must not access *this* reducer reentrantly (checked in debug
    /// builds); accessing other reducers is fine.
    #[inline]
    pub fn update<R>(&self, f: impl FnOnce(&mut M::View) -> R) -> R {
        let view = if self.key & HYPERMAP_BIT == 0 {
            mmap::lookup(self.key)
        } else {
            // The instance's address, not a load through the pointer.
            hypermap::lookup(self.key, &self.inner.instance)
        };
        if view.is_null() {
            return self.update_cold(f);
        }
        // SAFETY: the backend returned this context's live view for our
        // slot, and only the current thread touches it.
        unsafe { Self::apply(view, f) }
    }

    #[inline]
    unsafe fn apply<R>(view: *mut u8, f: impl FnOnce(&mut M::View) -> R) -> R {
        #[cfg(debug_assertions)]
        {
            ACTIVE_VIEWS.with(|av| {
                let mut av = av.borrow_mut();
                assert!(
                    !av.contains(&view),
                    "reentrant access to the same reducer view"
                );
                av.push(view);
            });
            struct Pop(*mut u8);
            impl Drop for Pop {
                fn drop(&mut self) {
                    ACTIVE_VIEWS.with(|av| {
                        let mut av = av.borrow_mut();
                        let p = av.pop();
                        debug_assert_eq!(p, Some(self.0));
                    });
                }
            }
            let _pop = Pop(view);
            f(&mut *(view as *mut M::View))
        }
        #[cfg(not(debug_assertions))]
        f(&mut *(view as *mut M::View))
    }

    /// Everything of `update` but the hit, out of line so that the hit
    /// path keeps only the lookup and `f`: the memory-mapped miss (a
    /// first touch after a steal), the refusal of a worker of another
    /// pool, and the serial path off the workers, on the leftmost view.
    /// (The hypermap's miss stays inside its out-of-line lookup.) It
    /// takes `f` by value, so what `f` captures is passed in registers
    /// and nothing is spilled to the stack on a hit.
    #[cold]
    #[inline(never)]
    fn update_cold<R, F: FnOnce(&mut M::View) -> R>(&self, f: F) -> R {
        let inner = &*self.inner;
        if self.key & HYPERMAP_BIT == 0 {
            let view = mmap::lookup_miss(self.key, &inner.instance);
            if !view.is_null() {
                // SAFETY: as in `update`: the view the miss made for
                // this context.
                return unsafe { Self::apply(view, f) };
            }
        }
        // No worker state of this reducer's pool on this thread.
        if on_foreign_worker(self.key) {
            refuse_foreign_pool();
        }
        let borrow = inner.instance.serial_borrow();
        if crate::instrument::ENABLED {
            inner.domain.instrument.lookups.inc();
        }
        // SAFETY: the serial borrow excludes concurrent serial access,
        // and the leftmost view is live while the handle is.
        unsafe { Self::apply(borrow.leftmost(), f) }
    }

    /// Removes (and returns) the current worker context's view, if any.
    /// A worker of another pool is refused.
    fn remove_current(&self) -> Option<*mut u8> {
        let view = if self.key & HYPERMAP_BIT == 0 {
            mmap::remove_current(self.key)
        } else {
            hypermap::remove_current(self.key, &self.inner.instance)
        };
        if view.is_none() && on_foreign_worker(self.key) {
            refuse_foreign_pool();
        }
        view
    }

    /// Folds the *current worker context's* view (if any) into leftmost
    /// storage, under the reducer's serial `borrow`. Sound only at a
    /// serial point for this reducer. No worker state is at hand here,
    /// so the view's cell goes straight home.
    fn fold_current(&self, borrow: &SerialBorrow<'_>) {
        if let Some(v) = self.remove_current() {
            // SAFETY: `v` was removed from the current context (sole
            // owner now) and is a view of this reducer's monoid.
            unsafe { borrow.fold(std::ptr::null_mut(), v) };
        }
    }

    /// Destroys the current worker context's view (if any) unmerged; its
    /// cell goes straight home.
    fn discard_current(&self) {
        if let Some(v) = self.remove_current() {
            // SAFETY: removal made us the sole owner of this view, made
            // by this reducer's instance.
            unsafe { self.inner.instance.drop_view(std::ptr::null_mut(), v) };
        }
    }

    /// Reads the reducer's value at a serial point, after folding the
    /// current context view into the leftmost view.
    pub fn read<R>(&self, f: impl FnOnce(&M::View) -> R) -> R {
        let borrow = self.inner.instance.serial_borrow();
        self.fold_current(&borrow);
        // SAFETY: the leftmost view is a live `M::View` created by this
        // reducer, and the serial borrow excludes concurrent mutation.
        unsafe { f(&*(borrow.leftmost() as *const M::View)) }
    }

    /// Clones the reducer's value at a serial point.
    pub fn get_cloned(&self) -> M::View
    where
        M::View: Clone,
    {
        self.read(|v| v.clone())
    }

    /// Takes the accumulated value and resets the reducer to the monoid
    /// identity — the PBFS bag-swap operation: read a layer's bag and
    /// start the next layer empty, at the serial point between layers.
    ///
    /// The `identity` it runs may update other reducers; each such
    /// update lands where the `take` runs (see [`Monoid`]'s docs).
    pub fn take(&self) -> M::View {
        let inner = &*self.inner;
        let borrow = inner.instance.serial_borrow();
        self.fold_current(&borrow);
        let fresh = Box::into_raw(Box::new(inner.monoid.identity())) as *mut u8;
        let old = borrow.replace_leftmost(fresh);
        // SAFETY: `old` is the previous leftmost view — a
        // `Box<M::View>` this reducer created — and the swap removed the
        // only other pointer to it.
        unsafe { *Box::from_raw(old as *mut M::View) }
    }

    /// Replaces the reducer's value with `value` at a serial point,
    /// discarding whatever was accumulated — Cilk Plus's `move_in`.
    ///
    /// Any pending context view is destroyed unmerged, and the leftmost
    /// view is overwritten, so after `set` the reducer behaves as if
    /// freshly created with `value`.
    pub fn set(&self, value: M::View) {
        let borrow = self.inner.instance.serial_borrow();
        // Discard (not fold) the current context's view, per move_in.
        self.discard_current();
        let fresh = Box::into_raw(Box::new(value)) as *mut u8;
        let old = borrow.replace_leftmost(fresh);
        // SAFETY: as in `take` — the swap yields sole ownership of the
        // old boxed view.
        unsafe { drop(Box::from_raw(old as *mut M::View)) };
    }

    /// Consumes the reducer and returns its final value.
    pub fn into_inner(self) -> M::View {
        let borrow = self.inner.instance.serial_borrow();
        self.fold_current(&borrow);
        let view = borrow.replace_leftmost(std::ptr::null_mut());
        // SAFETY: the swap took the sole pointer to the boxed leftmost
        // view; the null it left tells `drop` there is none to destroy.
        unsafe { *Box::from_raw(view as *mut M::View) }
    }
}

impl<M: Monoid> Drop for Reducer<M> {
    fn drop(&mut self) {
        let inner = &*self.inner;
        // Remove any view the current (serial) context still holds, so
        // the slot can be recycled safely, then destroy the leftmost view
        // unless `into_inner` took it. A worker of another pool holds no
        // view of this reducer, and refusing it here would panic in a
        // drop, which aborts a thread that is unwinding from a refused
        // update of the same reducer.
        if !on_foreign_worker(self.key) {
            self.discard_current();
        }
        let view = inner
            .instance
            .serial_borrow()
            .replace_leftmost(std::ptr::null_mut());
        if !view.is_null() {
            // SAFETY: the swap took the sole pointer to the boxed
            // leftmost view.
            unsafe { drop(Box::from_raw(view as *mut M::View)) };
        }
        inner.domain.free_slot(inner.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Backend;
    use crate::library::SumMonoid;
    use cilkm_runtime::{join, parallel_for};

    const _: () = assert!(std::mem::size_of::<Reducer<SumMonoid<u64>>>() == 16);

    fn both_backends() -> Vec<ReducerPool> {
        vec![
            ReducerPool::new(2, Backend::Hypermap),
            ReducerPool::new(2, Backend::Mmap),
        ]
    }

    /// The text of a caught panic.
    fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default()
    }

    /// A reducer of pool A used inside pool B's region is refused with a
    /// panic that reaches the caller of B's `run`, whichever backend
    /// each pool runs: an update alone and under `parallel_for`, and
    /// the serial-point `read`, `take` and `set`. A reducer refused
    /// there drops while the panic unwinds, without a second panic. The
    /// refused calls leave A's reducer as it was, B's reducer keeps the
    /// update each region made before the refusal, and afterwards both
    /// pools and both reducers work as before.
    #[test]
    fn a_reducer_updated_on_a_worker_of_another_pool_is_refused() {
        const BACKENDS: [Backend; 2] = [Backend::Hypermap, Backend::Mmap];
        for (backend_a, backend_b) in BACKENDS.into_iter().flat_map(|a| BACKENDS.map(|b| (a, b))) {
            let a = ReducerPool::new(2, backend_a);
            let b = ReducerPool::new(2, backend_b);
            let ra = Reducer::new(&a, SumMonoid::<u64>::new(), 7);
            let rb = Reducer::new(&b, SumMonoid::<u64>::new(), 0);
            let uses: [(&str, &(dyn Fn() + Sync)); 6] = [
                ("update", &|| ra.add(1)),
                ("parallel update", &|| {
                    parallel_for(0..1000, 1, &|range| {
                        for _ in range {
                            ra.add(1);
                        }
                    })
                }),
                ("update, then drop", &|| {
                    let fresh = Reducer::new(&a, SumMonoid::<u64>::new(), 0);
                    fresh.add(1);
                }),
                ("read", &|| ra.read(|_| ())),
                ("take", &|| {
                    ra.take();
                }),
                ("set", &|| ra.set(0)),
            ];
            for (i, (name, use_a)) in uses.into_iter().enumerate() {
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    b.run(|| {
                        rb.add(1);
                        use_a();
                    })
                }))
                .expect_err("a foreign reducer's use must panic");
                let msg = panic_text(&*refused);
                assert!(
                    msg.contains("reducer used on a worker of a different pool"),
                    "{backend_a:?} reducer, {name} on a {backend_b:?} worker: {msg:?}"
                );
                // B's own update before the refusal is kept.
                assert_eq!(
                    rb.get_cloned(),
                    i as u64 + 1,
                    "{backend_a:?} reducer, {name} on a {backend_b:?} worker"
                );
            }
            assert_eq!(ra.get_cloned(), 7, "{backend_a:?} on {backend_b:?}");
            for (pool, r) in [(&a, &ra), (&b, &rb)] {
                pool.run(|| {
                    parallel_for(0..1000, 16, &|range| {
                        for _ in range {
                            r.add(1);
                        }
                    });
                });
            }
            assert_eq!(ra.into_inner(), 1007, "{backend_a:?} on {backend_b:?}");
            assert_eq!(rb.into_inner(), 1006, "{backend_a:?} on {backend_b:?}");
        }
    }

    /// `update` down each of its paths, on both backends: the serial
    /// path off the workers, a first-touch miss, a hit, and an `f` that
    /// panics on a hit. Each returns `f`'s value and runs `f` once. After
    /// the panic the reducer goes on working and ends at the serial
    /// elision of the updates that completed, and in debug builds the
    /// stack of views in use is empty again.
    #[test]
    fn update_runs_f_once_and_returns_its_value_on_every_path() {
        use crate::msync::atomic::{AtomicU32, Ordering};
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            let calls = AtomicU32::new(0);
            // Adds `x` and returns the view's new value.
            let add = |x: u64| {
                r.update(|v| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    *v += x;
                    *v
                })
            };
            assert_eq!(add(1), 1, "serial path");
            assert_eq!(calls.load(Ordering::Relaxed), 1);
            pool.run(|| {
                assert_eq!(add(2), 2, "first touch: an identity view, then f");
                assert_eq!(add(4), 6, "hit");
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    r.update(|_| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        panic!("f panics on a hit")
                    })
                }));
                assert!(panicked.is_err());
                #[cfg(debug_assertions)]
                ACTIVE_VIEWS.with(|av| assert!(av.borrow().is_empty(), "views left in use"));
                assert_eq!(add(8), 14, "a hit after the panic");
            });
            assert_eq!(calls.load(Ordering::Relaxed), 5, "{:?}", pool.backend());
            assert_eq!(add(16), 31, "serial path after the region");
            assert_eq!(r.into_inner(), 31, "{:?}", pool.backend());
        }
    }

    /// Pools made and dropped one after another get distinct keys: the
    /// id comes from a counter, not from the domain's address, which the
    /// allocator may hand to the next pool.
    #[test]
    fn pools_made_and_dropped_in_turn_get_distinct_keys() {
        let mut keys = std::collections::HashSet::new();
        for i in 0..1000 {
            let backend = [Backend::Hypermap, Backend::Mmap][i % 2];
            let pool = ReducerPool::new(1, backend);
            assert!(keys.insert(pool.domain().key), "pool {i}");
        }
    }

    #[test]
    fn serial_updates_hit_leftmost() {
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 10);
            r.update(|v| *v += 5);
            assert_eq!(r.get_cloned(), 15);
            assert_eq!(r.into_inner(), 15);
        }
    }

    #[test]
    fn parallel_sum_matches_serial() {
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            pool.run(|| {
                parallel_for(0..10_000, 64, &|range| {
                    for i in range {
                        r.update(|v| *v += i as u64);
                    }
                });
            });
            assert_eq!(r.get_cloned(), (0..10_000u64).sum::<u64>());
        }
    }

    #[test]
    fn initial_value_participates() {
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 1000);
            pool.run(|| {
                let (_, _) = join(|| r.update(|v| *v += 1), || r.update(|v| *v += 2));
            });
            assert_eq!(r.into_inner(), 1003);
        }
    }

    #[test]
    fn take_resets_to_identity() {
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            pool.run(|| {
                parallel_for(0..100, 4, &|range| {
                    for _ in range {
                        r.update(|v| *v += 1);
                    }
                });
            });
            assert_eq!(r.take(), 100);
            assert_eq!(r.get_cloned(), 0);
            pool.run(|| r.update(|v| *v += 7));
            assert_eq!(r.take(), 7);
        }
    }

    #[test]
    fn many_regions_accumulate() {
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            for _ in 0..10 {
                pool.run(|| {
                    parallel_for(0..100, 8, &|range| {
                        for _ in range {
                            r.update(|v| *v += 1);
                        }
                    });
                });
            }
            assert_eq!(r.into_inner(), 1000);
        }
    }

    /// Reducers made after others were dropped take their slots (other
    /// tests share the process's allocator, so this is judged over a
    /// batch), and a recycled slot starts with no view.
    #[test]
    fn dropping_midway_recycles_slot() {
        for pool in both_backends() {
            let new = || Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            let first: Vec<_> = (0..8).map(|_| new()).collect();
            pool.run(|| first.iter().for_each(|r| r.add(1)));
            let freed: Vec<Slot> = first.iter().map(Reducer::slot).collect();
            drop(first);
            let second: Vec<_> = (0..8).map(|_| new()).collect();
            assert!(second.iter().any(|r| freed.contains(&r.slot())));
            pool.run(|| second.iter().for_each(|r| r.add(3)));
            assert!(second.into_iter().all(|r| r.into_inner() == 3));
        }
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "instrument"))]
    fn lookup_instrument_counts() {
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            pool.run(|| {
                for _ in 0..500 {
                    r.update(|v| *v += 1);
                }
            });
            let snap = pool.instrument();
            assert!(snap.lookups >= 500, "lookups={}", snap.lookups);
        }
    }

    /// The per-worker count `Cell`s must be flushed on the `discard`
    /// (panic) path too, so the domain totals are *exact* even when one
    /// side of a join panics: the lookups with the switch on, and in
    /// every build the two views, one on each side.
    #[test]
    fn lookup_totals_exact_when_one_side_of_a_join_panics() {
        use crate::msync::atomic::{AtomicBool, Ordering};
        for pool in both_backends() {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            let running = AtomicBool::new(false);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|| {
                    join(
                        || {
                            // Hold the owner in user code until the right
                            // side runs on the thief, so its views come
                            // back as a deposit and the failed merge takes
                            // the `discard` path.
                            while !running.load(Ordering::Acquire) {
                                std::hint::spin_loop();
                            }
                            for _ in 0..500 {
                                r.update(|v| *v += 1);
                            }
                            panic!("left dies after 500 lookups");
                        },
                        || {
                            running.store(true, Ordering::Release);
                            for _ in 0..300 {
                                r.update(|v| *v += 1);
                            }
                        },
                    );
                })
            }));
            assert!(res.is_err(), "the left panic must propagate");
            let snap = pool.instrument();
            if crate::instrument::ENABLED {
                assert_eq!(
                    snap.lookups, 800,
                    "500 owner + 300 thief lookups must all be flushed"
                );
            }
            assert_eq!(
                (snap.view_creations, snap.view_insertions),
                (2, 2),
                "one view on each side of the join"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reentrant access")]
    fn reentrant_update_panics_in_debug() {
        let pool = ReducerPool::new(1, Backend::Mmap);
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        pool.run(|| {
            r.update(|_| {
                r.update(|v| *v += 1);
            });
        });
    }

    #[test]
    fn many_reducers_at_once() {
        for pool in both_backends() {
            let rs: Vec<_> = (0..300)
                .map(|i| Reducer::new(&pool, SumMonoid::<u64>::new(), i as u64))
                .collect();
            pool.run(|| {
                parallel_for(0..300, 8, &|range| {
                    for i in range {
                        rs[i].update(|v| *v += 1);
                    }
                });
            });
            for (i, r) in rs.iter().enumerate() {
                assert_eq!(r.get_cloned(), i as u64 + 1, "reducer {i}");
            }
        }
    }
}

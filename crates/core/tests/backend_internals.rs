//! White-box-ish tests of the backend machinery through the public API:
//! no TLMM crossings on either backend, view integrity under leapfrogging
//! (a `detach` before the foreign job and an `attach` after it) and under
//! page-array growth inside user code, the end of the slot space, SPA
//! log overflow in vivo, and `set`/`move_in` semantics. (The page arrays
//! themselves are checked inside the crate, in `mmap`'s tests.)

#![expect(
    clippy::disallowed_types,
    reason = "test-side counters and flags observe the run through the public API, where the doc-hidden msync facade is not offered"
)]

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use cilkm_core::library::{ListMonoid, StringMonoid, SumMonoid};
use cilkm_core::{Backend, Monoid, Reducer, ReducerPool};
use cilkm_runtime::{join, parallel_for};

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn no_backend_touches_the_simulated_tlmm() {
    // Neither reducer mechanism allocates, maps or frees a page of the
    // simulated TLMM: the mmap backend keeps its SPA maps in a page
    // array of its own, and the hypermap backend has none. The domain's
    // arena counters (what the `tlmm.*` metrics read) stay exactly zero
    // across a region with steals.
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(2, backend);
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        pool.run(|| {
            parallel_for(0..10_000, 64, &|range| {
                for _ in range {
                    r.add(1);
                }
            });
        });
        assert_eq!(r.into_inner(), 10_000);
        let arena = pool.domain().arena_handle();
        assert_eq!(arena.crossings().snapshot().total_crossings(), 0);
        assert_eq!(arena.stats().peak_live_pages, 0, "{backend:?}");
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn spa_log_overflow_happens_in_vivo_past_120_reducers() {
    // More than LOG_CAPACITY (120) reducers live on one private page:
    // a context that touches them all overflows its SPA log. The final
    // values must be exact regardless.
    let pool = ReducerPool::new(2, Backend::Mmap);
    let rs: Vec<Reducer<SumMonoid<u64>>> = (0..200)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    for _ in 0..5 {
        pool.run(|| {
            parallel_for(0..200, 1, &|range| {
                for i in range {
                    rs[i].add(1);
                }
            });
        });
    }
    for (i, r) in rs.iter().enumerate() {
        assert_eq!(r.get_cloned(), 5, "reducer {i}");
    }
    // Overflows are likely but depend on stealing; only assert the
    // instrument is consistent (no negative-looking wrap).
    let snap = pool.instrument();
    assert!(snap.view_insertions >= snap.log_overflows);
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn deep_leapfrogging_preserves_suspended_views() {
    // A worker waiting at a join executes other stolen work
    // (leapfrogging); its suspended context's views must come back
    // intact. Nested joins + a non-commutative reducer make any
    // detach/attach corruption visible as a wrong final string.
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(4, backend);
        let s = Reducer::new(&pool, StringMonoid::new(), String::new());

        fn go(depth: u32, s: &Reducer<StringMonoid>) {
            if depth == 0 {
                s.append("x");
                return;
            }
            s.append("(");
            join(|| go(depth - 1, s), || go(depth - 1, s));
            s.append(")");
        }

        pool.run(|| go(10, &s));

        fn expect(depth: u32, out: &mut String) {
            if depth == 0 {
                out.push('x');
                return;
            }
            out.push('(');
            expect(depth - 1, out);
            expect(depth - 1, out);
            out.push(')');
        }
        let mut want = String::new();
        expect(10, &mut want);
        assert_eq!(s.into_inner(), want, "backend {backend:?}");
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn set_replaces_and_discards() {
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(2, backend);
        let r = Reducer::new(&pool, ListMonoid::<u32>::new(), vec![1, 2]);
        pool.run(|| {
            parallel_for(0..100, 4, &|range| {
                for i in range {
                    r.push(i as u32);
                }
            });
        });
        // move_in: everything accumulated is discarded.
        r.set(vec![42]);
        assert_eq!(r.get_cloned(), vec![42]);
        // And the reducer is fully usable afterwards.
        pool.run(|| r.push(7));
        assert_eq!(r.into_inner(), vec![42, 7], "backend {backend:?}");
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn set_mid_region_at_serial_point() {
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(2, backend);
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        let final_value = pool.run(|| {
            parallel_for(0..50, 4, &|range| {
                for _ in range {
                    r.add(1);
                }
            });
            r.set(1000); // serial point in the spine
            parallel_for(0..50, 4, &|range| {
                for _ in range {
                    r.add(1);
                }
            });
            r.take()
        });
        assert_eq!(final_value, 1050, "backend {backend:?}");
    }
}

/// Views made and dropped.
#[derive(Default)]
struct Tally {
    made: AtomicUsize,
    dropped: AtomicUsize,
}

/// Leaf marks in serial order, counted in and out of existence.
struct Marks {
    marks: Vec<u32>,
    tally: Arc<Tally>,
}

impl Marks {
    fn new(tally: &Arc<Tally>) -> Marks {
        tally.made.fetch_add(1, Ordering::SeqCst);
        Marks {
            marks: Vec::new(),
            tally: Arc::clone(tally),
        }
    }
}

impl Drop for Marks {
    fn drop(&mut self) {
        self.tally.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// Concatenation of leaf marks whose `identity` and `reduce` each also
/// add one to a counter reducer of their own. The counters sit on SPA
/// pages past the marks reducer's, so the first `identity` a worker runs
/// grows its page array inside the lookup miss that called it, and the
/// first `reduce` inside the hypermerge that called it. `reduce` spills
/// only while `in_joins` is set: the region-end fold refuses a nested
/// access.
struct Spilling {
    tally: Arc<Tally>,
    identities: Reducer<SumMonoid<u64>>,
    reduces: Reducer<SumMonoid<u64>>,
    in_joins: AtomicBool,
}

impl Monoid for Spilling {
    type View = Marks;
    fn identity(&self) -> Marks {
        self.identities.add(1);
        Marks::new(&self.tally)
    }
    fn reduce(&self, left: &mut Marks, mut right: Marks) {
        if self.in_joins.load(Ordering::Relaxed) {
            self.reduces.add(1);
        }
        left.marks.append(&mut right.marks);
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn growth_inside_identity_and_reduce_keeps_the_serial_result() {
    // A forced-steal spine: every leaf waits until all K right sides
    // have started, so each of them runs on the thief, in a fresh pool
    // per run so every worker's first identity and first reduce grow
    // its array.
    const K: u32 = 4;
    const PAGE: usize = 248;
    fn spine(k: u32, started: &AtomicU32, marks: &Reducer<Spilling>) {
        if k == 0 {
            marks.update(|m| m.marks.push(0));
            while started.load(Ordering::Acquire) < K {
                std::thread::yield_now();
            }
            return;
        }
        join(
            || spine(k - 1, started, marks),
            || {
                started.fetch_add(1, Ordering::Release);
                marks.update(|m| m.marks.push(k));
            },
        );
    }

    for backend in [Backend::Hypermap, Backend::Mmap] {
        for run in 0..50 {
            let pool = ReducerPool::new(2, backend);
            // Counters at slots 2·248 (page 2) and 4·248 (page 4); the
            // others go back last-first, so the marks take slot 0.
            let mut sums: Vec<_> = (0..=4 * PAGE)
                .map(|_| Reducer::new(&pool, SumMonoid::<u64>::new(), 0))
                .collect();
            let reduces = sums.pop().unwrap();
            let identities = sums.remove(2 * PAGE);
            sums.into_iter().rev().for_each(drop);
            let tally = Arc::new(Tally::default());
            let monoid = Spilling {
                tally: Arc::clone(&tally),
                identities,
                reduces,
                in_joins: AtomicBool::new(true),
            };
            let marks = Reducer::new(&pool, monoid, Marks::new(&tally));
            assert_eq!(marks.slot(), 0);

            let started = AtomicU32::new(0);
            pool.run(|| {
                spine(K, &started, &marks);
                marks.monoid().in_joins.store(false, Ordering::Relaxed);
            });
            assert_eq!(pool.stats().stolen_joins, u64::from(K));
            // Every nested update happened inside the joins, so the
            // region folded it.
            let reduces = marks.monoid().reduces.get_cloned();
            assert_eq!(
                reduces,
                u64::from(K),
                "{backend:?} run {run}: one pair a merge"
            );
            let identities = marks.monoid().identities.get_cloned();
            let want: Vec<u32> = (0..=K).collect();
            assert_eq!(marks.into_inner().marks, want, "{backend:?} run {run}");
            let (made, dropped) = (
                tally.made.load(Ordering::SeqCst),
                tally.dropped.load(Ordering::SeqCst),
            );
            assert_eq!(identities as usize, made - 1, "every identity counted");
            assert_eq!(
                made, dropped,
                "{backend:?} run {run}: each view dropped once"
            );
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn the_last_slot_folds_and_the_one_past_it_is_refused() {
    // Slot 65 535 is element 63 of SPA page 264, the last page a page
    // array can reach. Both workers update it inside one region (the
    // left side waits until the thief has started the right one), and
    // the fold keeps serial order. The 65 537th reducer is refused with
    // the slot allocator's panic, the pool stays usable, and a dropped
    // reducer's slot is the next one handed out.
    const SLOTS: usize = 65_536;
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(2, backend);
        let mut fillers: Vec<_> = (0..SLOTS - 1)
            .map(|_| Reducer::new(&pool, SumMonoid::<u64>::new(), 0))
            .collect();
        let last = Reducer::new(&pool, ListMonoid::<u32>::new(), Vec::new());
        assert_eq!(last.slot() as usize, SLOTS - 1);
        let both_workers = || {
            let started = AtomicBool::new(false);
            join(
                || {
                    while !started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    last.push(1);
                },
                || {
                    started.store(true, Ordering::Release);
                    last.push(2);
                },
            );
        };
        pool.run(both_workers);
        assert_eq!(last.get_cloned(), [1, 2], "{backend:?}");
        assert_eq!(pool.stats().stolen_joins, 1);

        let one_more = || Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(one_more))
            .map(drop)
            .expect_err("the 65 537th reducer must be refused");
        let message = refused.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("slot space exhausted"), "{message}");
        // The refusal took no slot, and the count still reads.
        assert_eq!(pool.domain().live_reducers(), SLOTS, "{backend:?}");
        pool.run(both_workers);
        assert_eq!(last.get_cloned(), [1, 2, 1, 2], "{backend:?}");

        let freed = fillers.swap_remove(1000).slot();
        let recycled = Reducer::new(&pool, SumMonoid::<u64>::new(), 5);
        assert_eq!(recycled.slot(), freed);
        pool.run(|| recycled.add(1));
        assert_eq!(recycled.into_inner(), 6, "{backend:?}");
    }
}

/// A view type with leaf marks that is too large, or too aligned, for a
/// view cell, so both backends keep it in a `Box`.
trait BoxedMarks: Send + 'static {
    fn new(tally: &Arc<Tally>) -> Self;
    fn marks(&mut self) -> &mut Vec<u32>;
}

/// 128 bytes: over the largest cell.
struct Big {
    marks: Marks,
    _pad: [u64; 12],
}

/// 32-byte aligned: beyond a cell's 16.
#[repr(align(32))]
struct Wide {
    marks: Marks,
}

const _: () = assert!(std::mem::size_of::<Big>() == 128);
const _: () = assert!(std::mem::align_of::<Wide>() == 32);

impl BoxedMarks for Big {
    fn new(tally: &Arc<Tally>) -> Big {
        Big {
            marks: Marks::new(tally),
            _pad: [0; 12],
        }
    }
    fn marks(&mut self) -> &mut Vec<u32> {
        &mut self.marks.marks
    }
}

impl BoxedMarks for Wide {
    fn new(tally: &Arc<Tally>) -> Wide {
        Wide {
            marks: Marks::new(tally),
        }
    }
    fn marks(&mut self) -> &mut Vec<u32> {
        &mut self.marks.marks
    }
}

/// Concatenation of leaf marks over view type `V`.
struct Concat<V>(Arc<Tally>, std::marker::PhantomData<fn() -> V>);

impl<V: BoxedMarks> Monoid for Concat<V> {
    type View = V;
    fn identity(&self) -> V {
        V::new(&self.0)
    }
    fn reduce(&self, left: &mut V, mut right: V) {
        left.marks().append(right.marks());
    }
}

/// Under a forced-steal spine on both backends, views that take the
/// `Box` path keep the serial result and their alignment, and each is
/// dropped once. No benchmark workload has such a view.
fn boxed_views_keep_the_serial_result<V: BoxedMarks>() {
    const K: u32 = 4;
    fn spine<V: BoxedMarks>(k: u32, started: &AtomicU32, r: &Reducer<Concat<V>>) {
        let mark = |m: u32| {
            r.update(|v| {
                let addr = v as *const V as usize;
                assert_eq!(addr % std::mem::align_of::<V>(), 0, "misaligned view");
                v.marks().push(m);
            })
        };
        if k == 0 {
            mark(0);
            while started.load(Ordering::Acquire) < K {
                std::thread::yield_now();
            }
            return;
        }
        join(
            || spine(k - 1, started, r),
            || {
                started.fetch_add(1, Ordering::Release);
                mark(k);
            },
        );
    }

    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(2, backend);
        let tally = Arc::new(Tally::default());
        let monoid = Concat::<V>(Arc::clone(&tally), std::marker::PhantomData);
        let r = Reducer::new(&pool, monoid, V::new(&tally));
        let mut want = Vec::new();
        for _ in 0..3 {
            let started = AtomicU32::new(0);
            pool.run(|| spine(K, &started, &r));
            want.extend(0..=K);
        }
        assert_eq!(pool.stats().stolen_joins, 3 * u64::from(K), "{backend:?}");
        assert_eq!(r.into_inner().marks(), &want, "{backend:?}");
        assert_eq!(
            tally.made.load(Ordering::SeqCst),
            tally.dropped.load(Ordering::SeqCst),
            "{backend:?}: each view dropped once"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn views_over_a_cell_keep_the_serial_result() {
    boxed_views_keep_the_serial_result::<Big>();
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn views_aligned_beyond_a_cell_keep_the_serial_result() {
    boxed_views_keep_the_serial_result::<Wide>();
}

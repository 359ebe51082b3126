//! White-box-ish tests of the backend machinery through the public API:
//! no TLMM crossings on either backend, view integrity under leapfrogging
//! (a `detach` before the foreign job and an `attach` after it) and under
//! first touches of new pages inside user code, SPA log overflow in vivo,
//! and `set`/`move_in` semantics. (The slot spaces themselves are checked
//! inside the crate, in `mmap`'s tests; the end of the slot space, which
//! needs the whole process's, in `slot_space.rs`.)

#![expect(
    clippy::disallowed_types,
    reason = "test-side counters and flags observe the run through the public API, where the doc-hidden msync facade is not offered"
)]

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cilkm_core::library::{ListMonoid, StringMonoid, SumMonoid};
use cilkm_core::{Backend, Monoid, Reducer, ReducerPool};
use cilkm_runtime::{join, parallel_for};

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn no_backend_touches_the_simulated_tlmm() {
    // Neither reducer mechanism allocates, maps or frees a page of the
    // simulated TLMM: the mmap backend keeps its SPA maps in a slot
    // space of its own, and the hypermap backend has none. The domain's
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
/// add one to a counter reducer of their own: `[identities, reduces]`,
/// set once the marks reducer has its slot, on two other SPA pages. The
/// first `identity` a worker runs then touches a new page inside the
/// lookup miss that called it, and the first `reduce` inside the
/// hypermerge that called it. `reduce` spills only while `in_joins` is
/// set: the region-end fold refuses a nested access.
struct Spilling {
    tally: Arc<Tally>,
    counters: OnceLock<[Reducer<SumMonoid<u64>>; 2]>,
    in_joins: AtomicBool,
}

impl Spilling {
    fn counters(&self) -> &[Reducer<SumMonoid<u64>>; 2] {
        self.counters.get().expect("counters set before the region")
    }
}

impl Monoid for Spilling {
    type View = Marks;
    fn identity(&self) -> Marks {
        self.counters()[0].add(1);
        Marks::new(&self.tally)
    }
    fn reduce(&self, left: &mut Marks, mut right: Marks) {
        if self.in_joins.load(Ordering::Relaxed) {
            self.counters()[1].add(1);
        }
        left.marks.append(&mut right.marks);
    }
}

/// The SPA page a slot lives on.
fn page(slot: u32) -> usize {
    slot as usize / 248
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn first_touches_inside_identity_and_reduce_keep_the_serial_result() {
    // A forced-steal spine: every leaf waits until all K right sides
    // have started, so each of them runs on the thief, in a fresh pool
    // per run so every worker's first identity and first reduce touch a
    // page it has not reached.
    const K: u32 = 4;
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
            let tally = Arc::new(Tally::default());
            let monoid = Spilling {
                tally: Arc::clone(&tally),
                counters: OnceLock::new(),
                in_joins: AtomicBool::new(true),
            };
            let marks = Reducer::new(&pool, monoid, Marks::new(&tally));
            // The counters take slots on two pages other than the marks'
            // and each other's, picked from what the allocator hands out
            // (four pages' worth of slots span at least four pages).
            let mut sums: Vec<_> = (0..4 * 248)
                .map(|_| Reducer::new(&pool, SumMonoid::<u64>::new(), 0))
                .collect();
            let mut take_on_a_new_page = |not: &[usize]| {
                let at = sums
                    .iter()
                    .position(|r| !not.contains(&page(r.slot())))
                    .expect("a slot on another page");
                sums.swap_remove(at)
            };
            let identities = take_on_a_new_page(&[page(marks.slot())]);
            let reduces = take_on_a_new_page(&[page(marks.slot()), page(identities.slot())]);
            drop(sums);
            assert!(marks.monoid().counters.set([identities, reduces]).is_ok());

            let started = AtomicU32::new(0);
            pool.run(|| {
                spine(K, &started, &marks);
                marks.monoid().in_joins.store(false, Ordering::Relaxed);
            });
            assert_eq!(pool.stats().stolen_joins, u64::from(K));
            // Every nested update happened inside the joins, so the
            // region folded it.
            let reduces = marks.monoid().counters()[1].get_cloned();
            assert_eq!(
                reduces,
                u64::from(K),
                "{backend:?} run {run}: one pair a merge"
            );
            let identities = marks.monoid().counters()[0].get_cloned();
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

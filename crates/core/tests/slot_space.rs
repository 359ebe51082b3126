//! The process's one slot space, which serves every pool. These tests
//! need it to themselves, to fill all 65 536 slots or to know which slots
//! a pool takes next: they live in a test binary of their own, and take
//! `SPACE` so that they never run at the same time.

#![expect(
    clippy::disallowed_types,
    reason = "test-side flags and the lock that serializes the tests observe the run through the public API, where the doc-hidden msync facade is not offered"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use cilkm_core::library::{ListMonoid, SumMonoid};
use cilkm_core::{Backend, Reducer, ReducerPool};
use cilkm_runtime::join;

const SLOTS: usize = 65_536;

/// Held by each test while it uses the slot space.
static SPACE: Mutex<()> = Mutex::new(());

fn whole_space() -> MutexGuard<'static, ()> {
    SPACE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fills the slot space with reducers of `pool`: `SLOTS - 1` sums, and
/// `last`'s reducer on slot 65 535, element 63 of SPA page 264, the last
/// page of a worker's slot space.
fn fill<M: cilkm_core::Monoid>(
    pool: &ReducerPool,
    last: impl FnOnce() -> Reducer<M>,
) -> (Vec<Reducer<SumMonoid<u64>>>, Reducer<M>) {
    let mut fillers: Vec<_> = (0..SLOTS)
        .map(|_| Reducer::new(pool, SumMonoid::<u64>::new(), 0))
        .collect();
    let at = fillers
        .iter()
        .position(|r| r.slot() as usize == SLOTS - 1)
        .expect("the slot space is full, its last slot among them");
    drop(fillers.swap_remove(at));
    let last = last();
    assert_eq!(last.slot() as usize, SLOTS - 1, "the slot just freed");
    (fillers, last)
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn the_last_slot_folds_and_the_one_past_it_is_refused() {
    // Both workers update the reducer on the last slot inside one region
    // (the left side waits until the thief has started the right one),
    // and the fold keeps serial order. The 65 537th reducer is refused
    // with the slot allocator's panic, the pool stays usable, and a
    // dropped reducer's slot is the next one handed out.
    let _space = whole_space();
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(2, backend);
        let (mut fillers, last) = fill(&pool, || {
            Reducer::new(&pool, ListMonoid::<u32>::new(), Vec::new())
        });
        let both_workers = || on_both_workers(&|| last.push(1), &|| last.push(2));
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

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn the_last_slot_page_misses_off_the_memory_mapped_workers() {
    // A thread with no memory-mapped worker state reads the reducer on
    // slot 65 535 in the all-zero static slot space, at the end of its
    // last page: on a thread that is no worker the update takes the
    // serial path, and on a worker of a hypermap pool it is refused.
    let _space = whole_space();
    let pool = ReducerPool::new(2, Backend::Mmap);
    let (fillers, last) = fill(&pool, || Reducer::new(&pool, SumMonoid::<u64>::new(), 0));
    std::thread::scope(|s| {
        s.spawn(|| last.add(3));
    });
    assert_eq!(
        last.get_cloned(),
        3,
        "the serial path, on the leftmost view"
    );

    let hypermap = ReducerPool::new(2, Backend::Hypermap);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        hypermap.run(|| last.add(1))
    }))
    .expect_err("a memory-mapped reducer on a hypermap worker must be refused");
    let message = refused.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(
        message.contains("reducer used on a worker of a different pool"),
        "{message:?}"
    );

    pool.run(|| last.add(1));
    assert_eq!(last.into_inner(), 4, "its own pool's workers update it");
    drop(fillers);
}

/// Runs `left` on the owner and `right` on the other worker of a
/// two-worker pool: the left side waits until the right one has
/// started, which only a steal can do.
fn on_both_workers(left: &(dyn Fn() + Sync), right: &(dyn Fn() + Sync)) {
    let started = AtomicBool::new(false);
    join(
        || {
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            left();
        },
        || {
            started.store(true, Ordering::Release);
            right();
        },
    );
}

/// Slots are one space for all pools, so the hit tests no pool. Here
/// both workers of pool A hold views at a set of slots, in a region
/// that completes and in one that panics; A's reducers drop, and pool
/// B's reducers take those slots. Each use of such a reducer of B from
/// both of A's workers is refused, also right after they touched A's
/// live reducers in the same region, and every total stays exact, also
/// when the two pools then run regions at once.
#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn a_slot_another_pool_held_views_at_is_refused_there() {
    let _space = whole_space();
    const BACKENDS: [Backend; 2] = [Backend::Hypermap, Backend::Mmap];
    const N: usize = 16;
    for (backend_a, backend_b) in BACKENDS.into_iter().flat_map(|a| BACKENDS.map(|b| (a, b))) {
        let a = ReducerPool::new(2, backend_a);
        let b = ReducerPool::new(2, backend_b);
        let ras: Vec<_> = (0..N)
            .map(|_| Reducer::new(&a, SumMonoid::<u64>::new(), 0))
            .collect();
        let touch_a = || ras.iter().for_each(|r| r.add(1));
        a.run(|| on_both_workers(&touch_a, &touch_a));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.run(|| {
                on_both_workers(&touch_a, &|| {
                    touch_a();
                    panic!("the thief's side dies holding views");
                })
            })
        }));
        assert!(panicked.is_err(), "the region panicked");
        let held: Vec<u32> = ras.iter().map(Reducer::slot).collect();
        assert_eq!(ras[0].get_cloned(), 3, "two sides, then the owner's side");
        drop(ras);

        let rbs: Vec<_> = (0..N)
            .map(|_| Reducer::new(&b, SumMonoid::<u64>::new(), 0))
            .collect();
        let taken: Vec<_> = rbs.iter().filter(|r| held.contains(&r.slot())).collect();
        assert_eq!(taken.len(), N, "B takes the slots A freed");
        let ras: Vec<_> = (0..N)
            .map(|_| Reducer::new(&a, SumMonoid::<u64>::new(), 0))
            .collect();
        let touch_b = || rbs.iter().for_each(|r| r.add(1));
        b.run(|| on_both_workers(&touch_b, &touch_b));
        for rb in &taken {
            let use_b = || {
                ras.iter().for_each(|r| r.add(1));
                rb.add(1);
            };
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                a.run(|| on_both_workers(&use_b, &use_b))
            }))
            .expect_err("a foreign reducer's use must panic");
            let msg = refused.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(
                msg.contains("reducer used on a worker of a different pool"),
                "{backend_b:?} reducer on a {backend_a:?} worker: {msg:?}"
            );
        }
        let touch_a = || ras.iter().for_each(|r| r.add(1));
        std::thread::scope(|s| {
            s.spawn(|| b.run(|| on_both_workers(&touch_b, &touch_b)));
            a.run(|| on_both_workers(&touch_a, &touch_a));
        });
        // The owner's side of each refused region is folded, the thief's
        // destroyed with its panic.
        let refusals = taken.len() as u64;
        for ra in ras {
            assert_eq!(ra.into_inner(), refusals + 2, "{backend_a:?}");
        }
        for rb in rbs {
            assert_eq!(rb.into_inner(), 4, "{backend_b:?} on {backend_a:?}");
        }
    }
}

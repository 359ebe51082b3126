//! Cross-crate scenario tests for the reducer mechanism: lifecycles,
//! serial points, failure injection, and multi-pool isolation.

#![expect(
    clippy::disallowed_types,
    reason = "test-side counters and flags observe the run through the public API, where the doc-hidden msync facade is not offered"
)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

use cilkm::prelude::*;

fn backends() -> [Backend; 2] {
    [Backend::Hypermap, Backend::Mmap]
}

#[test]
fn thousand_reducers_spanning_spa_pages() {
    for backend in backends() {
        let pool = ReducerPool::new(4, backend);
        // 1000 slots = 5 private SPA pages in the mmap backend.
        let rs: Vec<Reducer<SumMonoid<u64>>> = (0..1000)
            .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
            .collect();
        pool.run(|| {
            parallel_for(0..100_000, 512, &|range| {
                for i in range {
                    rs[i % 1000].add(1);
                }
            });
        });
        for (k, r) in rs.iter().enumerate() {
            assert_eq!(r.get_cloned(), 100, "backend {backend:?} reducer {k}");
        }
    }
}

#[test]
fn take_between_layers_like_pbfs() {
    for backend in backends() {
        let pool = ReducerPool::new(2, backend);
        let r = Reducer::new(&pool, ListMonoid::<u32>::new(), Vec::new());
        let layers: Vec<Vec<u32>> = pool.run(|| {
            let mut out = Vec::new();
            for layer in 0..5u32 {
                parallel_for(0..64, 4, &|range| {
                    for i in range {
                        r.push(layer * 1000 + i as u32);
                    }
                });
                // Serial point in the region spine: harvest and reset.
                let mut got = r.take();
                got.sort_unstable();
                out.push(got);
            }
            out
        });
        for (layer, got) in layers.iter().enumerate() {
            let expect: Vec<u32> = (0..64).map(|i| layer as u32 * 1000 + i).collect();
            assert_eq!(got, &expect, "backend {backend:?} layer {layer}");
        }
        assert!(r.into_inner().is_empty());
    }
}

#[test]
fn panic_in_region_destroys_views_and_pool_survives() {
    for backend in backends() {
        let pool = ReducerPool::new(2, backend);
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| {
                parallel_for(0..1000, 8, &|range| {
                    for i in range {
                        r.add(1);
                        if i == 700 {
                            panic!("injected failure");
                        }
                    }
                });
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        // The reducer survives with *some* prefix of updates folded; the
        // pool remains fully usable and a fresh region is exact again.
        let after_panic = r.take();
        assert!(after_panic >= 5, "leftmost (initial 5) must survive");
        pool.run(|| {
            parallel_for(0..100, 8, &|range| {
                for _ in range {
                    r.add(1);
                }
            });
        });
        assert_eq!(r.into_inner(), 100, "backend {backend:?}");
    }
}

#[test]
fn panicking_monoid_reduce_is_contained() {
    // A reduce operation that panics on a poisoned value: the region
    // panics, the pool survives.
    for backend in backends() {
        let pool = ReducerPool::new(4, backend);
        let r = Reducer::new(
            &pool,
            FnMonoid::new(
                || 0u64,
                |l: &mut u64, r: u64| {
                    if r == u64::MAX {
                        panic!("poisoned view");
                    }
                    *l += r;
                },
            ),
            0,
        );
        // No poison: works.
        pool.run(|| {
            parallel_for(0..500, 4, &|range| {
                for _ in range {
                    r.update(|v| *v += 1);
                }
            });
        });
        assert_eq!(r.take(), 500, "backend {backend:?}");
    }
}

#[test]
fn two_pools_of_different_backends_coexist() {
    let pool_m = ReducerPool::new(2, Backend::Mmap);
    let pool_h = ReducerPool::new(2, Backend::Hypermap);
    let rm = Reducer::new(&pool_m, SumMonoid::<u64>::new(), 0);
    let rh = Reducer::new(&pool_h, SumMonoid::<u64>::new(), 0);

    std::thread::scope(|s| {
        s.spawn(|| {
            pool_m.run(|| {
                parallel_for(0..10_000, 64, &|range| {
                    for _ in range {
                        rm.add(1);
                    }
                });
            });
        });
        s.spawn(|| {
            pool_h.run(|| {
                parallel_for(0..10_000, 64, &|range| {
                    for _ in range {
                        rh.add(2);
                    }
                });
            });
        });
    });

    assert_eq!(rm.into_inner(), 10_000);
    assert_eq!(rh.into_inner(), 20_000);
}

#[test]
fn concurrent_runs_on_one_pool_serialize() {
    // Two threads calling run() on the same pool must not overlap
    // regions (region end folds into shared leftmost storage); the pool
    // serializes them and both regions' updates land exactly.
    for backend in backends() {
        let pool = ReducerPool::new(2, backend);
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    pool.run(|| {
                        parallel_for(0..5000, 64, &|range| {
                            for _ in range {
                                r.add(1);
                            }
                        });
                    });
                });
            }
        });
        assert_eq!(r.into_inner(), 20_000, "backend {backend:?}");
    }
}

#[test]
fn cross_pool_reducer_use_is_rejected() {
    // A reducer belongs to one domain; using it on a worker of another
    // pool must fail loudly (slot spaces are per-domain, so silently
    // proceeding would alias another reducer's views, and on a worker of
    // the other backend would update the leftmost view from a region).
    for (mine, other) in [
        (Backend::Mmap, Backend::Mmap),
        (Backend::Hypermap, Backend::Hypermap),
        (Backend::Mmap, Backend::Hypermap),
        (Backend::Hypermap, Backend::Mmap),
    ] {
        let pool_a = ReducerPool::new(1, mine);
        let pool_b = ReducerPool::new(1, other);
        let r = Reducer::new(&pool_a, SumMonoid::<u64>::new(), 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool_b.run(|| r.add(1));
        }));
        assert!(
            caught.is_err(),
            "{mine:?} reducer on {other:?} pool must panic"
        );
    }
}

#[test]
fn serial_access_outside_any_region() {
    for backend in backends() {
        let pool = ReducerPool::new(1, backend);
        let r = Reducer::new(&pool, StringMonoid::new(), String::from("a"));
        r.append("b"); // not on a worker: leftmost path
        pool.run(|| r.append("c"));
        r.append("d");
        assert_eq!(r.into_inner(), "abcd", "backend {backend:?}");
    }
}

#[test]
fn slot_recycling_is_clean_across_regions() {
    for backend in backends() {
        let pool = ReducerPool::new(2, backend);
        for round in 0..20 {
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), round);
            pool.run(|| {
                parallel_for(0..200, 8, &|range| {
                    for _ in range {
                        r.add(1);
                    }
                });
            });
            assert_eq!(r.into_inner(), round + 200);
        }
        assert_eq!(pool.domain().live_reducers(), 0);
    }
}

/// Reducers made, updated and consumed on pool workers inside regions:
/// the slot allocator's only concurrent callers. Every leaf of each
/// region creates a reducer, updates it ten times and `into_inner`s it.
#[test]
fn reducers_created_and_consumed_on_workers_inside_regions() {
    for backend in backends() {
        let pool = ReducerPool::new(2, backend);
        let total = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        let live = pool.domain().live_reducers();
        for _ in 0..50 {
            pool.run(|| {
                parallel_for(0..256, 1, &|range| {
                    for i in range {
                        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), i as u64);
                        for _ in 0..10 {
                            r.add(1);
                        }
                        total.add(r.into_inner());
                    }
                });
            });
        }
        // 50 regions of Σ (i + 10) over 0..256.
        assert_eq!(total.into_inner(), 1_760_000, "{backend:?}");
        assert_eq!(pool.domain().live_reducers(), live - 1, "{backend:?}");
    }
}

#[test]
fn nested_joins_with_shared_counter_and_reducer() {
    // Reducers and ordinary atomics coexist; the reducer avoids the
    // contention the atomic suffers.
    for backend in backends() {
        let pool = ReducerPool::new(4, backend);
        let red = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        let atomic = AtomicU64::new(0);
        fn go(depth: u32, red: &Reducer<SumMonoid<u64>>, atomic: &AtomicU64) {
            if depth == 0 {
                red.add(1);
                atomic.fetch_add(1, Ordering::Relaxed);
                return;
            }
            join(|| go(depth - 1, red, atomic), || go(depth - 1, red, atomic));
        }
        pool.run(|| go(12, &red, &atomic));
        assert_eq!(red.into_inner(), 1 << 12);
        assert_eq!(atomic.into_inner(), 1 << 12);
    }
}

#[test]
fn instrument_reports_parallel_machinery() {
    // A steal-rich run must report view transferal and merges on the
    // instrumented counters — the machinery Figures 7/8 are built on.
    for backend in backends() {
        let pool = ReducerPool::new(4, backend);
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        for _ in 0..20 {
            pool.run(|| {
                parallel_for(0..20_000, 64, &|range| {
                    let mut acc = 0u64;
                    for i in range {
                        acc = acc.wrapping_add(i as u64).rotate_left(5);
                        r.add(1);
                    }
                    std::hint::black_box(acc);
                });
            });
        }
        let snap = pool.instrument();
        assert!(snap.lookups >= 400_000);
        let stats = pool.stats();
        if stats.steals > 0 {
            assert!(
                snap.view_creations > 0,
                "steals without view creations ({backend:?})"
            );
        }
        assert_eq!(r.into_inner(), 400_000);
    }
}

/// Creations and drops of [`Counted`] views.
#[derive(Default)]
struct Tally {
    created: AtomicU64,
    dropped: AtomicU64,
}

impl Tally {
    fn counts(&self) -> (u64, u64) {
        (
            self.created.load(Ordering::SeqCst),
            self.dropped.load(Ordering::SeqCst),
        )
    }
}

/// A view that counts its own creation and drop.
struct Counted {
    n: u64,
    tally: Arc<Tally>,
}

impl Counted {
    fn new(tally: &Arc<Tally>) -> Counted {
        tally.created.fetch_add(1, Ordering::SeqCst);
        Counted {
            n: 0,
            tally: Arc::clone(tally),
        }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.tally.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// Sums [`Counted`] views; `reduce` panics while `poisoned` is set.
struct CountedSum {
    tally: Arc<Tally>,
    poisoned: Arc<AtomicBool>,
}

impl Monoid for CountedSum {
    type View = Counted;
    fn identity(&self) -> Counted {
        Counted::new(&self.tally)
    }
    fn reduce(&self, left: &mut Counted, right: Counted) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("reduce refuses at region end");
        }
        left.n += right.n;
    }
}

/// The message of a `panic!("literal")` payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload.downcast_ref::<&str>().copied().unwrap_or("?")
}

/// `n` [`CountedSum`] reducers on `pool`, sharing a tally and a poison
/// flag, shareable with a helper thread.
fn counted_sums(
    pool: &ReducerPool,
    n: usize,
    tally: &Arc<Tally>,
    poisoned: &Arc<AtomicBool>,
) -> Arc<Vec<Reducer<CountedSum>>> {
    let reducer = |_| {
        let monoid = CountedSum {
            tally: Arc::clone(tally),
            poisoned: Arc::clone(poisoned),
        };
        Reducer::new(pool, monoid, Counted::new(tally))
    };
    Arc::new((0..n).map(reducer).collect())
}

#[test]
fn reduce_panic_at_region_end_reaches_the_caller() {
    for backend in backends() {
        let tally = Arc::new(Tally::default());
        let poisoned = Arc::new(AtomicBool::new(true));
        let pool = Arc::new(ReducerPool::new(2, backend));
        // Two reducers: whichever folds first panics, and the other's
        // view is then one the fold never reached.
        let rs = counted_sums(&pool, 2, &tally, &poisoned);

        // Driven from a helper thread that is not joined on failure: a
        // region that never returns must fail this test, not hang it.
        let (tx, rx) = mpsc::channel();
        let (pool2, rs2) = (Arc::clone(&pool), Arc::clone(&rs));
        let helper = std::thread::spawn(move || {
            let region = || pool2.run(|| rs2.iter().for_each(|r| r.update(|v| v.n += 1)));
            let _ = tx.send(catch_unwind(AssertUnwindSafe(region)));
        });
        let payload = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{backend:?}: Pool::run never returned"))
            .expect_err("the reduce panic must reach the caller of run");
        // It has sent, so it ends; its handles on the reducers go with it.
        helper.join().unwrap();
        assert_eq!(panic_message(&*payload), "reduce refuses at region end");

        // Same pool, same workers: the context was left empty, so this
        // region folds exactly its own two views.
        poisoned.store(false, Ordering::SeqCst);
        let answer = pool.run(|| {
            rs.iter().for_each(|r| r.update(|v| v.n += 10));
            7
        });
        assert_eq!(answer, 7, "backend {backend:?}");
        for r in rs.iter() {
            assert_eq!(r.read(|v| v.n), 10, "backend {backend:?}");
        }

        drop(rs);
        let (created, dropped) = tally.counts();
        assert_eq!(created, 6, "2 initial + 2 views in each region");
        assert_eq!(dropped, created, "backend {backend:?}: every view once");
    }
}

/// A `reduce` that panics in the hypermerge of a stolen join, mid-region:
/// the left side waits until the right side runs elsewhere, then poisons
/// the monoid, so the join's merge of the thief's deposit is the first
/// `reduce` to run. The payload reaches the caller of `Pool::run`, the
/// deposit's views not yet merged are destroyed with it, and the pool
/// runs the next region.
#[test]
fn reduce_panic_in_a_stolen_joins_hypermerge_reaches_the_caller() {
    for backend in backends() {
        let tally = Arc::new(Tally::default());
        let poisoned = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(ReducerPool::new(2, backend));
        let rs = counted_sums(&pool, 3, &tally, &poisoned);

        // From a helper thread, as above: a hang must fail, not block.
        let (tx, rx) = mpsc::channel();
        let (pool2, rs2, poisoned2) = (Arc::clone(&pool), Arc::clone(&rs), Arc::clone(&poisoned));
        let helper = std::thread::spawn(move || {
            let stolen = AtomicBool::new(false);
            let region = || {
                pool2.run(|| {
                    join(
                        || {
                            rs2.iter().for_each(|r| r.update(|v| v.n += 1));
                            // Yield, not spin: on a one-CPU host the
                            // thief needs the processor.
                            while !stolen.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                            poisoned2.store(true, Ordering::SeqCst);
                        },
                        || {
                            stolen.store(true, Ordering::Release);
                            rs2.iter().for_each(|r| r.update(|v| v.n += 1));
                        },
                    )
                })
            };
            let _ = tx.send(catch_unwind(AssertUnwindSafe(region)));
        });
        let payload = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{backend:?}: Pool::run never returned"))
            .expect_err("the reduce panic must reach the caller of run");
        helper.join().unwrap();
        assert_eq!(panic_message(&*payload), "reduce refuses at region end");
        assert_eq!(pool.stats().stolen_joins, 1, "backend {backend:?}");
        let snap = pool.instrument();
        assert_eq!((snap.merges, snap.transferal_views), (1, 3), "{backend:?}");

        poisoned.store(false, Ordering::SeqCst);
        let answer = pool.run(|| {
            rs.iter().for_each(|r| r.update(|v| v.n += 10));
            7
        });
        assert_eq!(answer, 7, "backend {backend:?}");
        for r in rs.iter() {
            assert_eq!(r.read(|v| v.n), 10, "backend {backend:?}");
        }

        drop(rs);
        let (created, dropped) = tally.counts();
        assert_eq!(created, 12, "3 initial, 3 on each side of the join, 3 more");
        assert_eq!(dropped, created, "backend {backend:?}: every view once");
    }
}

#[test]
fn serial_access_overlapping_region_end_is_refused() {
    for backend in backends() {
        let tally = Arc::new(Tally::default());
        let pool = ReducerPool::new(2, backend);
        let monoid = CountedSum {
            tally: Arc::clone(&tally),
            poisoned: Arc::new(AtomicBool::new(false)),
        };
        let r = Reducer::new(&pool, monoid, Counted::new(&tally));

        // The serial access `read` is still in progress when the region
        // that updated `r` ends: its fold is refused, not deferred.
        let inner =
            r.read(|_| catch_unwind(AssertUnwindSafe(|| pool.run(|| r.update(|v| v.n += 1)))));
        let payload = inner.expect_err("the overlapped region-end fold must be refused");
        assert!(
            panic_message(&*payload).contains("concurrent serial access"),
            "backend {backend:?}: {}",
            panic_message(&*payload)
        );
        assert_eq!(
            tally.counts(),
            (2, 1),
            "backend {backend:?}: the refused view is destroyed exactly once"
        );

        pool.run(|| r.update(|v| v.n += 5));
        assert_eq!(r.read(|v| v.n), 5, "backend {backend:?}");
        drop(r);
        let (created, dropped) = tally.counts();
        assert_eq!(created, 3);
        assert_eq!(dropped, created, "backend {backend:?}: every view once");
    }
}

/// Sums [`Counted`] views; `reduce` also adds one to `spills` while
/// `spill` is set: a nested update of another reducer from user code the
/// runtime runs.
struct SpillingSum {
    tally: Arc<Tally>,
    spills: Arc<Reducer<SumMonoid<u64>>>,
    spill: Arc<AtomicBool>,
}

impl Monoid for SpillingSum {
    type View = Counted;
    fn identity(&self) -> Counted {
        Counted::new(&self.tally)
    }
    fn reduce(&self, left: &mut Counted, right: Counted) {
        if self.spill.load(Ordering::SeqCst) {
            self.spills.add(1);
        }
        left.n += right.n;
    }
}

/// A [`SpillingSum`] reducer on `pool` and the counter it spills into.
fn spilling_sum(
    pool: &ReducerPool,
    tally: &Arc<Tally>,
    spill: &Arc<AtomicBool>,
) -> (Reducer<SpillingSum>, Arc<Reducer<SumMonoid<u64>>>) {
    let spills = Arc::new(Reducer::new(pool, SumMonoid::new(), 0));
    let monoid = SpillingSum {
        tally: Arc::clone(tally),
        spills: Arc::clone(&spills),
        spill: Arc::clone(spill),
    };
    (Reducer::new(pool, monoid, Counted::new(tally)), spills)
}

/// A `reduce` run by the region-end fold that updates another reducer is
/// refused: every view was drained before the fold, so the update could
/// only land in a view no region folds. The refusal reaches the caller of
/// `Pool::run`, the pool runs the next region, and every view made is
/// dropped once.
#[test]
fn nested_access_from_the_region_end_fold_is_refused() {
    for backend in backends() {
        let tally = Arc::new(Tally::default());
        let spill = Arc::new(AtomicBool::new(true));
        let pool = ReducerPool::new(2, backend);
        let (r, spills) = spilling_sum(&pool, &tally, &spill);

        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(|| r.update(|v| v.n += 1))))
            .expect_err("a nested access from the region-end fold must be refused");
        assert_eq!(
            panic_message(&*payload),
            "reducer accessed from a reduce run by the region-end fold",
            "{backend:?}"
        );

        spill.store(false, Ordering::SeqCst);
        pool.run(|| r.update(|v| v.n += 10));
        assert_eq!(
            r.read(|v| v.n),
            10,
            "{backend:?}: the refused fold lost its view"
        );
        assert_eq!(spills.get_cloned(), 0, "{backend:?}");

        drop(r);
        let (created, dropped) = tally.counts();
        assert_eq!(created, 3, "{backend:?}: 1 initial + 1 view in each region");
        assert_eq!(dropped, created, "{backend:?}: every view once");
    }
}

/// The allowed half of the contract: a `reduce` that a stolen join's
/// hypermerge runs may update another reducer. The update lands in the
/// continuation's context, and the region folds it into the result.
#[test]
fn nested_update_from_a_stolen_joins_merge_lands_in_the_result() {
    for backend in backends() {
        let tally = Arc::new(Tally::default());
        let spill = Arc::new(AtomicBool::new(true));
        let pool = ReducerPool::new(2, backend);
        let (r, spills) = spilling_sum(&pool, &tally, &spill);
        let stolen = AtomicBool::new(false);

        pool.run(|| {
            join(
                || {
                    r.update(|v| v.n += 1);
                    // Yield, not spin: on a one-CPU host the thief needs
                    // the processor.
                    while !stolen.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                },
                || {
                    stolen.store(true, Ordering::Release);
                    r.update(|v| v.n += 2);
                },
            );
            // The merge is done; the region-end fold must not spill.
            spill.store(false, Ordering::SeqCst);
        });
        assert_eq!(pool.stats().stolen_joins, 1, "{backend:?}");
        assert_eq!(r.read(|v| v.n), 3, "{backend:?}");
        assert_eq!(
            spills.get_cloned(),
            1,
            "{backend:?}: the merge's one reduce"
        );

        drop(r);
        let (created, dropped) = tally.counts();
        assert_eq!(created, 3, "{backend:?}: 1 initial + 1 on each side");
        assert_eq!(dropped, created, "{backend:?}: every view once");
    }
}

/// Sums `u64` views; `identity` also adds one to `spills` while `spill`
/// is set: a nested update from the `identity` that `Reducer::take`
/// runs.
struct SpillingIdentity {
    spills: Arc<Reducer<SumMonoid<u64>>>,
    spill: Arc<AtomicBool>,
}

impl Monoid for SpillingIdentity {
    type View = u64;
    fn identity(&self) -> u64 {
        if self.spill.load(Ordering::SeqCst) {
            self.spills.add(1);
        }
        0
    }
    fn reduce(&self, left: &mut u64, right: u64) {
        *left += right;
    }
}

/// The `identity` that `Reducer::take` runs may update another reducer,
/// and the update lands where the `take` runs: off the pool in the other
/// reducer's leftmost view, at a spine point inside a region in the
/// current context, which the region folds. The flag is set around the
/// `take` alone, so no first touch after a steal adds to the count.
#[test]
fn nested_update_from_takes_identity_lands_where_the_take_runs() {
    for backend in backends() {
        let pool = ReducerPool::new(2, backend);
        let spills = Arc::new(Reducer::new(&pool, SumMonoid::<u64>::new(), 0));
        let spill = Arc::new(AtomicBool::new(false));
        let monoid = SpillingIdentity {
            spills: Arc::clone(&spills),
            spill: Arc::clone(&spill),
        };
        let r = Reducer::new(&pool, monoid, 0);
        let take = || {
            spill.store(true, Ordering::SeqCst);
            let taken = r.take();
            spill.store(false, Ordering::SeqCst);
            taken
        };

        // Off the pool: the leftmost view, and no view is made.
        r.update(|v| *v += 3);
        assert_eq!(take(), 3, "{backend:?}");
        assert_eq!(spills.get_cloned(), 1, "{backend:?}");
        assert_eq!(pool.instrument().view_creations, 0, "{backend:?}");

        // At a spine point: in the context of the worker that runs the
        // `take`, a view the region then folds. Two views are made, the
        // first touch of `r` and the nested update's view of `spills`;
        // a write to the leftmost view would make only the first.
        let taken = pool.run(|| {
            r.update(|v| *v += 5);
            take()
        });
        assert_eq!(taken, 5, "{backend:?}");
        assert_eq!(pool.instrument().view_creations, 2, "{backend:?}");
        assert_eq!(spills.get_cloned(), 2, "{backend:?}");

        // The same after a parallel loop, whose steals make views of
        // `r` with the flag clear.
        let taken = pool.run(|| {
            parallel_for(0..1000, 8, &|range| {
                for _ in range {
                    r.update(|v| *v += 1);
                }
            });
            take()
        });
        assert_eq!(taken, 1000, "{backend:?}");
        assert_eq!(spills.get_cloned(), 3, "{backend:?}");
        assert_eq!(r.into_inner(), 0, "{backend:?}");
    }
}

/// Sums `u64` views; `identity` first adds one to `identities`, which is
/// set after the reducer is made so that it can sit on a page of its own.
#[derive(Default)]
struct CountingIdentity {
    identities: OnceLock<Reducer<SumMonoid<u64>>>,
}

impl Monoid for CountingIdentity {
    type View = u64;
    fn identity(&self) -> u64 {
        self.identities.get().expect("set before any region").add(1);
        0
    }
    fn reduce(&self, left: &mut u64, right: u64) {
        *left += right;
    }
}

/// A first touch of a slot on a page no context has reached, made from
/// inside a user `identity` while an outer `update` holds its view: the
/// nested miss inserts into the worker's slot space while the outer miss
/// and the outer closure are both still running. Both results are the
/// serial elision's.
#[test]
fn a_first_touch_of_a_far_page_inside_identity_under_an_outer_update() {
    const PAGE: usize = 248;
    let page = |slot: u32| slot as usize / PAGE;
    for backend in backends() {
        let pool = ReducerPool::new(2, backend);
        let outer = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        let r = Reducer::new(&pool, CountingIdentity::default(), 0);
        // The counter goes on a page neither `outer` nor `r` is on. Two
        // pages' worth of other slots cannot all lie on those two pages,
        // which hold `outer` and `r`.
        let near = [page(outer.slot()), page(r.slot())];
        let mut spare: Vec<_> = (0..2 * PAGE)
            .map(|_| Reducer::new(&pool, SumMonoid::<u64>::new(), 0))
            .collect();
        let far = spare
            .iter()
            .position(|c| !near.contains(&page(c.slot())))
            .expect("a slot on a far page");
        assert!(r.monoid().identities.set(spare.swap_remove(far)).is_ok());
        drop(spare);

        pool.run(|| {
            parallel_for(0..1000, 1, &|range| {
                for i in range {
                    outer.update(|o| {
                        r.update(|v| *v += i as u64);
                        *o += 1;
                    });
                }
            });
        });
        assert_eq!(outer.into_inner(), 1000, "{backend:?}");
        assert_eq!(r.get_cloned(), (0..1000).sum::<u64>(), "{backend:?}");
        let identities = r.monoid().identities.get().unwrap().get_cloned();
        assert!(identities >= 1, "{backend:?}: first touches ran identity");
    }
}

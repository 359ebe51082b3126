//! White-box-ish tests of the backend machinery through the public API:
//! TLMM page accounting (crossings, a bound on the pages a worker holds,
//! reclamation at teardown), view integrity under leapfrogging (a
//! `detach` before the foreign job and an `attach` after it), SPA log
//! overflow in vivo, and `set`/`move_in` semantics.

use cilkm_core::library::{ListMonoid, StringMonoid, SumMonoid};
use cilkm_core::{Backend, Reducer, ReducerPool};
use cilkm_runtime::{join, parallel_for};

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn mmap_backend_performs_pmaps_and_pallocs() {
    let pool = ReducerPool::new(2, Backend::Mmap);
    // Per-domain counters: the pool's own arena, so concurrent tests
    // cannot bleed into the deltas.
    let before = pool.domain().arena_handle().crossings().snapshot();
    let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
    pool.run(|| {
        parallel_for(0..10_000, 64, &|range| {
            for _ in range {
                r.add(1);
            }
        });
    });
    assert_eq!(r.into_inner(), 10_000);
    let delta = pool
        .domain()
        .arena_handle()
        .crossings()
        .snapshot()
        .since(&before);
    assert!(delta.palloc_calls >= 1, "private pages must be allocated");
    assert!(delta.pmap_calls >= 1, "pages must be mapped via sys_pmap");
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn hypermap_backend_touches_no_tlmm() {
    // Serial region only: steals could not occur, but more importantly
    // the hypermap backend must never use the TLMM substrate at all —
    // its domain's arena counters must stay exactly zero.
    let pool = ReducerPool::new(1, Backend::Hypermap);
    let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
    pool.run(|| {
        for _ in 0..10_000 {
            r.add(1);
        }
    });
    assert_eq!(r.into_inner(), 10_000);
    let delta = pool.domain().arena_handle().crossings().snapshot();
    assert_eq!(delta.pmap_calls, 0);
    assert_eq!(delta.palloc_calls, 0);
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
fn leapfrogging_over_three_spa_pages_keeps_order_and_pages_bounded() {
    // 600 non-commutative reducers fill three private SPA pages (248
    // slots each); every leaf of a nested-join tree appends its index
    // to one reducer on each page, so a waiting worker that leapfrogs
    // sets aside and takes back views on all three. Serial order must
    // survive, and on the mmap backend no worker may ever hold more
    // than the three pages its region maps: pages never leave a worker.
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
        let arena = std::sync::Arc::clone(pool.domain().arena_handle());
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
                return;
            }
            let mid = lo + (hi - lo) / 2;
            join(|| go(lo, mid, rs), || go(mid, hi, rs));
        }
        let rs = Rs {
            strings: &strings,
            lists: &lists,
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
        let peak = arena.stats().peak_live_pages;
        match backend {
            Backend::Hypermap => assert_eq!(peak, 0),
            Backend::Mmap => assert!(peak <= WORKERS * 3, "{peak} pages at peak"),
        }
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

#[test]
#[cfg_attr(miri, ignore = "spawns OS worker threads")]
fn arena_pages_are_reclaimed_when_pool_drops() {
    let pool = ReducerPool::new(4, Backend::Mmap);
    let arena = std::sync::Arc::clone(pool.domain().arena_handle());
    let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
    pool.run(|| {
        parallel_for(0..10_000, 32, &|range| {
            for _ in range {
                r.add(1);
            }
        });
    });
    assert_eq!(r.into_inner(), 10_000);
    assert!(arena.live_pages() > 0, "workers hold private pages");
    drop(pool);
    assert_eq!(
        arena.live_pages(),
        0,
        "all simulated physical pages freed at pool teardown"
    );
}

//! The reducer guarantee, end to end: for an associative (even
//! non-commutative) monoid, the parallel result equals the serial result
//! regardless of scheduling — on both backends, under randomized fork
//! trees and steal-heavy schedules.

#![expect(
    clippy::disallowed_types,
    reason = "the steal spine's start counter observes the run through the public API, where the doc-hidden msync facade is not offered"
)]

use cilkm::prelude::*;
use cilkm_base::rng::{cases, Xoshiro256};

/// A little fork-tree program: leaves append tokens to a string reducer;
/// internal nodes fork. Its serial semantics are an in-order walk.
#[derive(Debug, Clone)]
enum Tree {
    Leaf(u16),
    Fork(Box<Tree>, Box<Tree>),
}

impl Tree {
    fn serial(&self, out: &mut String) {
        match self {
            Tree::Leaf(t) => {
                out.push_str(&format!("{t},"));
            }
            Tree::Fork(l, r) => {
                l.serial(out);
                r.serial(out);
            }
        }
    }

    fn parallel(&self, s: &Reducer<StringMonoid>, spin: u32) {
        match self {
            Tree::Leaf(t) => {
                // A little uneven spinning encourages steals.
                for _ in 0..(*t as u32 % 7) * spin {
                    std::hint::spin_loop();
                }
                s.append(&format!("{t},"));
            }
            Tree::Fork(l, r) => {
                join(|| l.parallel(s, spin), || r.parallel(s, spin));
            }
        }
    }
}

/// A random fork tree of at most `depth` levels. Each level is a leaf
/// two times in three, so sizes stay small even at full depth.
fn gen_tree(rng: &mut Xoshiro256, depth: u32) -> Tree {
    if depth == 0 || rng.below(3) < 2 {
        return Tree::Leaf(rng.next_u64() as u16);
    }
    let l = gen_tree(rng, depth - 1);
    Tree::Fork(Box::new(l), Box::new(gen_tree(rng, depth - 1)))
}

#[test]
fn string_append_equals_serial_order() {
    cases(1, 24, |rng| {
        let tree = gen_tree(rng, 8);
        let workers = 1 + rng.below(4) as usize;
        let mut expected = String::new();
        tree.serial(&mut expected);

        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(workers, backend);
            let s = Reducer::new(&pool, StringMonoid::new(), String::new());
            pool.run(|| tree.parallel(&s, 50));
            assert_eq!(
                s.into_inner(),
                expected,
                "backend {backend:?}, {workers} workers"
            );
        }
    });
}

#[test]
fn sum_is_exact_under_random_trees() {
    fn run(tree: &Tree, r: &Reducer<SumMonoid<u64>>) {
        match tree {
            Tree::Leaf(t) => r.add(*t as u64),
            Tree::Fork(l, r2) => {
                join(|| run(l, r), || run(r2, r));
            }
        }
    }
    fn serial_sum(tree: &Tree) -> u64 {
        match tree {
            Tree::Leaf(t) => *t as u64,
            Tree::Fork(l, r) => serial_sum(l) + serial_sum(r),
        }
    }
    cases(2, 24, |rng| {
        let tree = gen_tree(rng, 8);
        let expected = serial_sum(&tree);
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(3, backend);
            let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
            pool.run(|| run(&tree, &r));
            assert_eq!(r.into_inner(), expected);
        }
    });
}

/// A deterministic steal-heavy schedule: deep left spine with expensive
/// right branches, repeated many times — stolen joins are all but
/// guaranteed with ≥2 workers, and each steal exercises view transferal
/// and hypermerge with a non-commutative monoid.
#[test]
fn steal_heavy_ordering_both_backends() {
    fn spine(depth: u32, s: &Reducer<StringMonoid>) {
        if depth == 0 {
            return;
        }
        s.append(&format!("[{depth}"));
        join(
            || spine(depth - 1, s),
            || {
                // Expensive right branch: prime steal bait.
                let mut acc = 0u64;
                for i in 0..20_000u64 {
                    acc = acc.wrapping_add(i).rotate_left(3);
                }
                std::hint::black_box(acc);
                s.append(&format!("{depth}]"));
            },
        );
    }

    let mut expected = String::new();
    for d in (1..=24u32).rev() {
        expected.push_str(&format!("[{d}"));
    }
    for d in 1..=24u32 {
        expected.push_str(&format!("{d}]"));
    }

    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(4, backend);
        let s = Reducer::new(&pool, StringMonoid::new(), String::new());
        pool.run(|| spine(24, &s));
        assert_eq!(s.into_inner(), expected, "backend {backend:?}");
        // The schedule must actually have exercised the parallel path
        // over the repetitions of this test; steals are probabilistic per
        // run, so only assert the join accounting is sane.
        let stats = pool.stats();
        assert_eq!(stats.inline_joins + stats.stolen_joins, 24);
    }
}

/// Guaranteed steals on full pages: `f(k) = join(f(k-1), leaf_k)` whose
/// base case waits until every leaf has started, so all K leaves are
/// stolen in every run. 496 list reducers fill two SPA pages (248 slots
/// each, logs overflowed), so each steal's transferal copies two dense
/// pages and each hypermerge folds 496 non-commutative pairs.
#[test]
fn forced_steals_on_full_pages_both_backends() {
    use std::sync::atomic::{AtomicU32, Ordering};
    const K: u32 = 16;
    const REDUCERS: usize = 496;

    fn spine(k: u32, started: &AtomicU32, lists: &[Reducer<ListMonoid<u32>>]) {
        if k == 0 {
            lists.iter().for_each(|l| l.push(0));
            // Yield, not spin: on a one-CPU host the thief needs the
            // processor to take the leaves.
            while started.load(Ordering::Acquire) < K {
                std::thread::yield_now();
            }
            return;
        }
        join(
            || spine(k - 1, started, lists),
            || {
                started.fetch_add(1, Ordering::Release);
                lists.iter().for_each(|l| l.push(k));
            },
        );
    }

    let expected: Vec<u32> = (0..=K).collect();
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(2, backend);
        let lists: Vec<Reducer<ListMonoid<u32>>> = (0..REDUCERS)
            .map(|_| Reducer::new(&pool, ListMonoid::new(), Vec::new()))
            .collect();
        let started = AtomicU32::new(0);
        pool.run(|| spine(K, &started, &lists));
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(
                list.get_cloned(),
                expected,
                "backend {backend:?} reducer {i}"
            );
        }
        assert_eq!(
            pool.stats().stolen_joins,
            u64::from(K),
            "backend {backend:?}"
        );
    }
}

/// Lists across page-many reducers: ordering holds per reducer even when
/// the slot space spans several SPA pages.
#[test]
fn many_list_reducers_keep_their_own_order() {
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(4, backend);
        // 300 reducers > 248 slots: the mmap backend needs two private
        // SPA pages per worker.
        let lists: Vec<Reducer<ListMonoid<usize>>> = (0..300)
            .map(|_| Reducer::new(&pool, ListMonoid::new(), Vec::new()))
            .collect();
        pool.run(|| {
            parallel_for(0..3000, 16, &|range| {
                for i in range {
                    lists[i % 300].push(i);
                }
            });
        });
        for (k, list) in lists.iter().enumerate() {
            let got = list.get_cloned();
            let expect: Vec<usize> = (0..3000).filter(|i| i % 300 == k).collect();
            assert_eq!(got, expect, "backend {backend:?} reducer {k}");
        }
    }
}

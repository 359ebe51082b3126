//! The §8 min-n vs max-n anecdote, pinned down.
//!
//! The paper observes that every min-n run was slower than its max-n
//! counterpart and attributes it to "the artifact of how reducer min and
//! max libraries are implemented [in Cilk Plus]: more updates are
//! performed on a given view in the execution of min-n than that in the
//! execution of max-n for the same n".
//!
//! Our library implements min and max *symmetrically*, so this suite
//! documents (a) that the inherent update counts of the two problems are
//! statistically equal on uniform random streams — the asymmetry was not
//! mathematical — and (b) that our implementation performs exactly the
//! inherent number of view mutations, for both.

#![expect(
    clippy::disallowed_types,
    reason = "write counters observe the views through the public API, where the doc-hidden msync facade is not offered"
)]

use cilkm::prelude::*;
use cilkm_base::rng::{mix64, GAMMA};
use std::sync::atomic::{AtomicU64, Ordering};

/// The splitmix64 output for counter `i`, as used by the min/max benches.
fn pseudo_random(i: u64) -> u64 {
    mix64(i.wrapping_add(GAMMA))
}

#[test]
fn inherent_update_counts_are_symmetric() {
    // Running-extreme change counts over the same uniform stream: both
    // are ~H(x) = ln x + γ in expectation; neither should exceed the
    // other by more than noise.
    let x = 200_000u64;
    let (mut min_changes, mut max_changes) = (0u64, 0u64);
    let (mut cur_min, mut cur_max) = (u64::MAX, 0u64);
    for i in 0..x {
        let v = pseudo_random(i);
        if v < cur_min {
            cur_min = v;
            min_changes += 1;
        }
        if v > cur_max {
            cur_max = v;
            max_changes += 1;
        }
    }
    // H(200000) ≈ 12.8; allow generous slack either way.
    assert!(min_changes <= 40, "min changes {min_changes}");
    assert!(max_changes <= 40, "max changes {max_changes}");
    assert!(
        min_changes.abs_diff(max_changes) <= 25,
        "uniform stream must not favor min over max: {min_changes} vs {max_changes}"
    );
}

#[test]
fn our_reducers_mutate_views_symmetrically() {
    // Instrumented monoids: count every view *write* (not lookup). With
    // a symmetric library the two counts track the inherent counts; the
    // paper's Cilk Plus library wrote more often for min.
    for backend in [Backend::Hypermap, Backend::Mmap] {
        let pool = ReducerPool::new(1, backend);
        let min_writes = AtomicU64::new(0);
        let max_writes = AtomicU64::new(0);

        let min = Reducer::new(&pool, MinMonoid::<u64>::new(), None);
        let max = Reducer::new(&pool, MaxMonoid::<u64>::new(), None);

        let x = 100_000u64;
        pool.run(|| {
            for i in 0..x {
                let v = pseudo_random(i);
                min.update(|cur| match cur {
                    Some(c) if *c <= v => {}
                    _ => {
                        *cur = Some(v);
                        min_writes.fetch_add(1, Ordering::Relaxed);
                    }
                });
                max.update(|cur| match cur {
                    Some(c) if *c >= v => {}
                    _ => {
                        *cur = Some(v);
                        max_writes.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        let mn = min_writes.into_inner();
        let mx = max_writes.into_inner();
        assert!(mn > 0 && mx > 0);
        assert!(
            mn.abs_diff(mx) <= 25,
            "backend {backend:?}: symmetric library must write symmetrically \
             ({mn} min writes vs {mx} max writes)"
        );
        // And the final extremes are correct.
        let expect_min = (0..x).map(pseudo_random).min();
        let expect_max = (0..x).map(pseudo_random).max();
        assert_eq!(min.into_inner(), expect_min);
        assert_eq!(max.into_inner(), expect_max);
    }
}

//! Each pool reports its own metrics: of two live pools, one mmap and
//! one hypermap, one runs a forced-steal spine, and each pool's
//! `metrics()` holds only its own keys, with its own counters' values.

#![expect(
    clippy::disallowed_types,
    reason = "the steal spine's start counter observes the run through the public API, where the doc-hidden msync facade is not offered"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

use cilkm::obs::{MetricValue, MetricsSnapshot};
use cilkm::prelude::*;

/// Leaves of the spine, each one stolen.
const K: u32 = 8;

/// `f(k) = join(f(k-1), leaf_k)` whose base case waits until every leaf
/// has started, so all `K` leaves are stolen on a two-worker pool.
fn spine(k: u32, started: &AtomicU32, sum: &Reducer<SumMonoid<u64>>) {
    if k == 0 {
        // Yield, not spin: on a one-CPU host the thief needs the
        // processor to take the leaves.
        while started.load(Ordering::Acquire) < K {
            std::thread::yield_now();
        }
        return;
    }
    join(
        || spine(k - 1, started, sum),
        || {
            started.fetch_add(1, Ordering::Release);
            sum.add(1);
        },
    );
}

/// Asserts that `pool.metrics()` is exactly the pool's own `stats()`,
/// `instrument()` counts and histograms, once two readings around those
/// agree (idle workers may still sweep or park), and returns it.
fn check(pool: &ReducerPool, d: &str) -> MetricsSnapshot {
    for _ in 0..1_000 {
        let m = pool.metrics();
        let (s, i, h) = (pool.stats(), pool.instrument(), pool.overhead_histograms());
        if pool.metrics() != m {
            std::thread::sleep(std::time::Duration::from_millis(1));
            continue;
        }
        let (c, hist) = (MetricValue::Counter, MetricValue::Histogram);
        let expected = [
            ("pool.steals", c(s.steals)),
            ("pool.failed_steals", c(s.failed_steals)),
            ("pool.steal_attempts", c(s.steal_attempts)),
            ("pool.jobs_executed", c(s.jobs_executed)),
            ("pool.inline_joins", c(s.inline_joins)),
            ("pool.stolen_joins", c(s.stolen_joins)),
            ("pool.parks", c(s.parks)),
            ("pool.wakes", c(s.wakes)),
            ("pool.deque_hwm", c(s.deque_hwm)),
            (&format!("{d}.lookups"), c(i.lookups)),
            (&format!("{d}.view_creations"), c(i.view_creations)),
            (&format!("{d}.view_insertions"), c(i.view_insertions)),
            (&format!("{d}.transferals"), c(i.transferals)),
            (&format!("{d}.transferal_views"), c(i.transferal_views)),
            (&format!("{d}.merges"), c(i.merges)),
            (&format!("{d}.merge_pairs"), c(i.merge_pairs)),
            (&format!("{d}.log_overflows"), c(i.log_overflows)),
            (&format!("{d}.view_creation_ns"), hist(h.view_creation)),
            (&format!("{d}.view_insertion_ns"), hist(h.view_insertion)),
            (&format!("{d}.transferal_ns"), hist(h.transferal)),
            (&format!("{d}.merge_ns"), hist(h.hypermerge)),
        ]
        .map(|(k, v)| (k.to_owned(), v));
        assert_eq!(m.values, BTreeMap::from(expected), "{d}");
        return m;
    }
    panic!("the {d} pool's metrics never settled");
}

#[test]
fn each_pool_reports_only_itself() {
    let busy = ReducerPool::new(2, Backend::Mmap);
    let idle = ReducerPool::new(2, Backend::Hypermap);
    let sum = Reducer::new(&busy, SumMonoid::<u64>::new(), 0);
    let started = AtomicU32::new(0);
    busy.run(|| spine(K, &started, &sum));
    assert_eq!(sum.into_inner(), u64::from(K));

    let b = check(&busy, "domain.mmap");
    assert_eq!(b.counter("pool.stolen_joins"), Some(u64::from(K)));
    assert!(b.counter("domain.mmap.lookups") >= Some(u64::from(K)));
    assert!(b.counter("domain.mmap.merges") > Some(0));

    let i = check(&idle, "domain.hypermap");
    assert_eq!(i.counter("pool.steals"), Some(0));
    assert_eq!(i.counter("pool.jobs_executed"), Some(0));
}

//! Clean-run control: the transferal/hypermerge machinery itself must produce
//! **zero** sanitizer findings. Any finding here is either a real bug in the
//! runtime/reducer layers or a false positive in the detectors — both block.
//!
//! Findings are process-global, so this binary must not share a process with
//! the seeded negative controls (`sanitize_negative.rs`).
#![cfg(all(feature = "sanitize", not(feature = "model")))]

use cilkm::prelude::*;
use cilkm::san;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn transferal_and_hypermerge_stress_reports_no_findings() {
    for backend in [Backend::Mmap, Backend::Hypermap] {
        let pool = ReducerPool::new(4, backend);

        // Contended view transferal: many reducers, deep fork-join nesting,
        // every strand touching every reducer so hypermerges happen on both
        // sides of stolen joins.
        let sums: Vec<Reducer<SumMonoid<u64>>> = (0..64)
            .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
            .collect();
        pool.run(|| {
            parallel_for(0..2_000usize, 16, &|r| {
                for i in r {
                    for s in &sums {
                        s.add(i as u64);
                    }
                }
            });
        });
        let expect: u64 = (0..2_000u64).sum();
        for s in sums {
            assert_eq!(s.into_inner(), expect);
        }

        // Ordered hypermerge: a list reducer must observe serial order even
        // under steals, exercising detach/deposit/merge_right heavily.
        let list = Reducer::new(&pool, ListMonoid::new(), Vec::new());
        pool.run(|| {
            parallel_for(0..512usize, 4, &|r| {
                for i in r {
                    list.update(|v| v.push(i));
                }
            });
        });
        assert_eq!(list.into_inner(), (0..512usize).collect::<Vec<_>>());

        // Irregular fork-join (fib) plus a grain-1 fan-out mixed with
        // reducers.
        let touched = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        pool.run(|| {
            assert_eq!(fib(16), 987);
            parallel_for(0..32, 1, &|r| {
                for _ in r {
                    touched.add(1);
                }
            });
        });
        assert_eq!(touched.into_inner(), 32);

        drop(pool);
    }

    let report = san::snapshot();
    assert!(
        report.findings.is_empty(),
        "clean stress run produced sanitizer findings: {}",
        report.to_json()
    );
}

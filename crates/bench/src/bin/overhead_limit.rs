//! The regime the paper's footnote 9 warns about: "It is possible to
//! write an application to use [a] large number of reducers in such a way
//! that the reduce overhead dominates the total work in the computation.
//! In such case, the reduce overhead will affect scalability." (§8,
//! investigated further in Lee's thesis, ch. 5.)
//!
//! This harness constructs exactly that pathology — thousands of live
//! reducers, only a handful of updates each per region, with steals
//! forcing a view creation + insertion + merge per reducer per steal —
//! and reports what fraction of the region's CPU time is reduce overhead
//! under each backend. It shows (a) that the pathology is real on both
//! mechanisms, and (b) that the memory-mapped mechanism pushes the
//! cliff out by a constant factor but does not remove it: the paper's
//! "as long as the number of reducers used is reasonable" caveat,
//! quantified.
//!
//! Env: CILKM_BENCH_WORKERS (default 8), CILKM_OVERHEAD_ROUNDS (default
//! 30 regions per point).

use std::time::{Duration, Instant};

use cilkm_bench::output::Table;
use cilkm_core::library::SumMonoid;
use cilkm_core::{Backend, Reducer, ReducerPool};
use cilkm_runtime::parallel_for;

struct Point {
    total: Duration,
    overhead_ns: u64,
    steals: u64,
}

fn measure(backend: Backend, workers: usize, n: usize, rounds: usize) -> Point {
    let pool = ReducerPool::new(workers, backend);
    let reducers: Vec<Reducer<SumMonoid<u64>>> = (0..n)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    // Tiny work per reducer per region: every touched reducer costs a
    // view creation + insertion on the first touch after each steal,
    // so overhead scales with n while useful work barely does.
    let updates_per_reducer = 4u64;
    let before = pool.instrument();
    let steals0 = pool.stats().steals;
    let t0 = Instant::now();
    for _ in 0..rounds {
        pool.run(|| {
            parallel_for(0..n, 8, &|range| {
                for i in range {
                    for _ in 0..updates_per_reducer {
                        reducers[i].add(1);
                    }
                }
            });
        });
    }
    let total = t0.elapsed();
    let snap = pool.instrument().since(&before);
    let steals = pool.stats().steals - steals0;
    for (i, r) in reducers.iter().enumerate() {
        assert_eq!(
            r.get_cloned(),
            updates_per_reducer * rounds as u64,
            "reducer {i} under {backend:?}"
        );
    }
    Point {
        total,
        overhead_ns: snap.reduce_overhead_ns(),
        steals,
    }
}

fn main() {
    let workers = cilkm_bench::env_workers(8);
    let rounds: usize = std::env::var("CILKM_OVERHEAD_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    let mut t = Table::new(
        &format!(
            "Footnote 9 — reduce overhead dominating total work \
             ({workers} workers, {rounds} regions/point, 4 updates/reducer/region)"
        ),
        &[
            "reducers",
            "backend",
            "total",
            "overhead",
            "overhead %",
            "steals",
            "ns/steal",
        ],
    );

    for n in [256usize, 1024, 4096, 16384] {
        for backend in [Backend::Mmap, Backend::Hypermap] {
            let p = measure(backend, workers, n, rounds);
            let total_ns = p.total.as_nanos() as f64;
            let share = p.overhead_ns as f64 / total_ns * 100.0;
            t.row(&[
                n.to_string(),
                format!("{backend:?}"),
                cilkm_bench::output::fmt_duration(p.total),
                cilkm_bench::output::fmt_duration(Duration::from_nanos(p.overhead_ns)),
                format!("{share:.1}%"),
                p.steals.to_string(),
                if p.steals > 0 {
                    format!("{:.0}", p.overhead_ns as f64 / p.steals as f64)
                } else {
                    "-".into()
                },
            ]);
        }
    }
    t.emit("overhead_limit");

    println!(
        "Reading: as the live-reducer count grows with work held constant per\n\
         reducer, the per-steal cost (one lazy view creation + insertion per\n\
         touched reducer, then a hypermerge over all of them) grows linearly and\n\
         the overhead share climbs — the scalability limit footnote 9 describes.\n\
         The memory-mapped mechanism's cheaper insertions and compact SPA sweeps\n\
         lower the curve but cannot change its slope."
    );
}

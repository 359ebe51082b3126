//! The paper's motivating comparison (§1): strategies for updating a
//! *nonlocal variable* from parallel code, measured on the same workload.
//!
//! "Although existing reducer mechanisms are generally faster than other
//! solutions for updating nonlocal variables, such as locking and
//! atomic-update, they are still relatively slow." — this harness puts
//! numbers on all of them, on this machine:
//!
//! * **reducer (memory-mapped)** — Cilk-M's mechanism;
//! * **reducer (hypermap)** — Cilk Plus's mechanism;
//! * **atomic-update** — `AtomicU64::fetch_add` on shared counters;
//! * **locking** — one spinlock per counter;
//! * **manual split** — rayon-style `parallel_reduce` (each subtree
//!   returns a value, reduced structurally: the "rewrite your code"
//!   alternative reducers exist to avoid).
//!
//! All run the add-n workload: x updates spread over n counters, on P
//! workers. Correctness of every strategy is asserted.
//!
//! Env: CILKM_BENCH_SCALE (default 512), CILKM_BENCH_WORKERS (default 4).

#![expect(
    clippy::disallowed_types,
    reason = "this benchmark measures the shared-atomic-counter *alternative* to reducers — the contended std primitive is the subject under test, and substituting a recorded one would measure the checker instead"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cilkm_bench::output::{fmt_duration, Table};
use cilkm_core::library::SumMonoid;
use cilkm_core::{Backend, Reducer, ReducerPool};
use cilkm_runtime::sync::SpinLock;
use cilkm_runtime::{join, parallel_for};

fn run_atomic(pool: &ReducerPool, n: usize, x: usize, grain: usize) -> Duration {
    let counters: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mask = n - 1;
    let t0 = Instant::now();
    pool.run(|| {
        parallel_for(0..x, grain, &|r| {
            for i in r {
                counters[i & mask].fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    let dt = t0.elapsed();
    let total: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(total, x as u64);
    dt
}

fn run_locked(pool: &ReducerPool, n: usize, x: usize, grain: usize) -> Duration {
    let counters: Vec<SpinLock<u64>> = (0..n).map(|_| SpinLock::new(0)).collect();
    let mask = n - 1;
    let t0 = Instant::now();
    pool.run(|| {
        parallel_for(0..x, grain, &|r| {
            for i in r {
                *counters[i & mask].lock() += 1;
            }
        });
    });
    let dt = t0.elapsed();
    let total: u64 = counters.iter().map(|c| *c.lock()).sum();
    assert_eq!(total, x as u64);
    dt
}

/// The manual alternative: restructure the computation so each branch
/// returns its own partial sums, combined on the way up. No shared
/// mutable state at all — but the code had to change shape.
fn run_manual_split(pool: &ReducerPool, n: usize, x: usize, grain: usize) -> Duration {
    fn go(lo: usize, hi: usize, grain: usize, n: usize) -> Vec<u64> {
        if hi - lo <= grain {
            let mut part = vec![0u64; n];
            let mask = n - 1;
            for i in lo..hi {
                part[i & mask] += 1;
            }
            return part;
        }
        let mid = lo + (hi - lo) / 2;
        let (mut a, b) = join(|| go(lo, mid, grain, n), || go(mid, hi, grain, n));
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }
    let t0 = Instant::now();
    let result = pool.run(|| go(0, x, grain, n));
    let dt = t0.elapsed();
    assert_eq!(result.iter().sum::<u64>(), x as u64);
    dt
}

fn run_reducer(backend: Backend, workers: usize, n: usize, x: usize, grain: usize) -> Duration {
    let pool = ReducerPool::new(workers, backend);
    let rs: Vec<Reducer<SumMonoid<u64>>> = (0..n)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    let mask = n - 1;
    let t0 = Instant::now();
    pool.run(|| {
        parallel_for(0..x, grain, &|r| {
            for i in r {
                rs[i & mask].add(1);
            }
        });
    });
    let dt = t0.elapsed();
    assert_eq!(rs.iter().map(|r| r.get_cloned()).sum::<u64>(), x as u64);
    dt
}

fn main() {
    let scale = cilkm_bench::env_scale(512.0);
    let workers = cilkm_bench::env_workers(4);
    let x = ((1024.0 * 1024.0 * 1024.0 / scale) as usize).max(100_000);
    let grain = 8192;

    let mut t = Table::new(
        &format!("Nonlocal-variable update strategies (add-n, x = {x}, {workers} workers)"),
        &[
            "n",
            "reducer (mmap)",
            "reducer (hyper)",
            "atomic",
            "locking",
            "manual split",
        ],
    );

    for n in [4usize, 64, 1024] {
        let mmap = run_reducer(Backend::Mmap, workers, n, x, grain);
        let hyper = run_reducer(Backend::Hypermap, workers, n, x, grain);
        let aux_pool = ReducerPool::new(workers, Backend::Mmap);
        let atomic = run_atomic(&aux_pool, n, x, grain);
        let locked = run_locked(&aux_pool, n, x, grain);
        let manual = run_manual_split(&aux_pool, n, x, grain);
        t.row(&[
            n.to_string(),
            fmt_duration(mmap),
            fmt_duration(hyper),
            fmt_duration(atomic),
            fmt_duration(locked),
            fmt_duration(manual),
        ]);
    }
    t.emit("comparison");

    println!(
        "Notes: atomics/locks contend on shared cache lines as P grows and give no\n\
         ordering guarantee for non-commutative combining; the manual split gives\n\
         determinism but required restructuring the program and materializes O(n)\n\
         partials per branch. Reducers keep the serial code shape (Figure 2 of the\n\
         paper) and serial semantics; the memory-mapped mechanism makes that\n\
         abstraction nearly as cheap as the raw update."
    );
}

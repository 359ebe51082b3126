//! Criterion microbenchmarks of the single-operation costs behind
//! Figure 1: one reducer update per iteration under each mechanism, plus
//! the L1 and locking baselines, and the same update over working sets
//! of 2 to 16 384 reducers against a plain vector.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use cilkm_core::library::SumMonoid;
use cilkm_core::{Backend, Reducer, ReducerPool};
use cilkm_runtime::sync::SpinLock;

fn reducer_lookup(c: &mut Criterion, name: &str, backend: Backend) {
    let pool = ReducerPool::new(1, backend);
    let reducers: Vec<Reducer<SumMonoid<u64>>> = (0..4)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    c.bench_function(name, |b| {
        b.iter_custom(|iters| {
            // Measure inside the region so updates take the worker fast
            // path; the region entry cost amortizes over `iters`.
            pool.run(|| {
                let t0 = Instant::now();
                for i in 0..iters {
                    reducers[(i & 3) as usize].add(1);
                }
                t0.elapsed()
            })
        })
    });
}

/// Repeated access to one reducer: the pattern a typical reduction loop
/// produces, and the one a last-lookup cache would serve.
fn repeated_lookup(c: &mut Criterion, name: &str, backend: Backend) {
    let pool = ReducerPool::new(1, backend);
    let reducer: Reducer<SumMonoid<u64>> = Reducer::new(&pool, SumMonoid::new(), 0);
    c.bench_function(name, |b| {
        b.iter_custom(|iters| {
            pool.run(|| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    reducer.add(1);
                }
                t0.elapsed()
            })
        })
    });
}

/// Strict alternation between two reducers: the pattern a last-lookup
/// cache would miss on every access; both lookups run the same path as
/// in `repeated_lookup`.
fn alternating_lookup(c: &mut Criterion, name: &str, backend: Backend) {
    let pool = ReducerPool::new(1, backend);
    let reducers: Vec<Reducer<SumMonoid<u64>>> = (0..2)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    c.bench_function(name, |b| {
        b.iter_custom(|iters| {
            pool.run(|| {
                let t0 = Instant::now();
                for i in 0..iters {
                    reducers[(i & 1) as usize].add(1);
                }
                t0.elapsed()
            })
        })
    });
}

/// First access after a steal: every timed update misses and pays lazy
/// identity-view creation plus insertion. Between timed batches the views
/// are folded back (untimed), so each reducer's next access misses again
/// — the same state a thief's fresh context is in.
fn first_miss_lookup(c: &mut Criterion, name: &str, backend: Backend) {
    const BATCH: u64 = 64;
    let pool = ReducerPool::new(1, backend);
    let reducers: Vec<Reducer<SumMonoid<u64>>> = (0..BATCH)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    c.bench_function(name, |b| {
        b.iter_custom(|iters| {
            pool.run(|| {
                let mut total = Duration::ZERO;
                let rounds = iters.div_ceil(BATCH);
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    for r in reducers.iter() {
                        r.add(1);
                    }
                    total += t0.elapsed();
                    // Untimed: fold the context views back into leftmost
                    // storage so the next round misses again.
                    for r in reducers.iter() {
                        r.read(|_| ());
                    }
                }
                // Scale to the requested iteration count.
                total.mul_f64(iters as f64 / (rounds * BATCH) as f64)
            })
        })
    });
}

/// The lookup's working set: `n` reducers updated in turn on one worker,
/// against `add-n`'s serial elision, the same loop over a `Vec<u64>`
/// (one `black_box` load and store an update). A reducer brings its
/// handle, its view pointer and its boxed view; the vector brings eight
/// bytes. Each region first touches every reducer untimed, so the timed
/// loop measures hits only (a region's end folds its views away).
fn working_set(c: &mut Criterion, n: usize) {
    assert!(n.is_power_of_two());
    for (arm, backend) in [
        ("memory-mapped", Backend::Mmap),
        ("hypermap", Backend::Hypermap),
    ] {
        let pool = ReducerPool::new(1, backend);
        let reducers: Vec<Reducer<SumMonoid<u64>>> = (0..n)
            .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
            .collect();
        c.bench_function(&format!("lookup/working-set/{n}/{arm}"), |b| {
            b.iter_custom(|iters| {
                pool.run(|| {
                    reducers.iter().for_each(|r| r.add(0));
                    let t0 = Instant::now();
                    for i in 0..iters as usize {
                        reducers[i & (n - 1)].add(1);
                    }
                    t0.elapsed()
                })
            })
        });
    }
    let mut plain = vec![0u64; n];
    c.bench_function(&format!("lookup/working-set/{n}/vec"), |b| {
        b.iter_custom(|iters| {
            let t0 = Instant::now();
            for i in 0..iters as usize {
                *black_box(&mut plain[i & (n - 1)]) += 1;
            }
            t0.elapsed()
        })
    });
}

fn bench_lookups(c: &mut Criterion) {
    reducer_lookup(c, "lookup/memory-mapped", Backend::Mmap);
    reducer_lookup(c, "lookup/hypermap", Backend::Hypermap);

    repeated_lookup(c, "lookup/repeated/memory-mapped", Backend::Mmap);
    repeated_lookup(c, "lookup/repeated/hypermap", Backend::Hypermap);
    alternating_lookup(c, "lookup/alternating/memory-mapped", Backend::Mmap);
    alternating_lookup(c, "lookup/alternating/hypermap", Backend::Hypermap);
    first_miss_lookup(c, "lookup/first-miss/memory-mapped", Backend::Mmap);
    first_miss_lookup(c, "lookup/first-miss/hypermap", Backend::Hypermap);
    for n in [2, 64, 1024, 16384] {
        working_set(c, n);
    }

    c.bench_function("lookup/l1-baseline", |b| {
        let cells: Vec<std::cell::UnsafeCell<u64>> =
            (0..4).map(|_| std::cell::UnsafeCell::new(0)).collect();
        b.iter_custom(|iters| {
            let t0 = Instant::now();
            for i in 0..iters {
                // SAFETY: the cells are only touched from this bench
                // thread; the pointer comes from a live UnsafeCell.
                unsafe {
                    let p = cells[(i & 3) as usize].get();
                    std::ptr::write_volatile(p, std::ptr::read_volatile(p) + 1);
                }
            }
            t0.elapsed()
        })
    });

    c.bench_function("lookup/locking", |b| {
        let locks: Vec<SpinLock<u64>> = (0..4).map(|_| SpinLock::new(0)).collect();
        b.iter_custom(|iters| {
            let t0 = Instant::now();
            for i in 0..iters {
                *locks[(i & 3) as usize].lock() += 1;
            }
            t0.elapsed()
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_lookups
}
criterion_main!(benches);

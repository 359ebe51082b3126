//! The §8 microbenchmarks (Figure 4 of the paper) and the Figure 1
//! comparators.
//!
//! * `add-n` — summing 1 to x into n add-reducers in parallel;
//! * `min-n` / `max-n` — processing x pseudo-random values in parallel,
//!   accumulating into n min-/max-reducers;
//! * `add-base-n` — the control: the same loop over a plain array, no
//!   reducers, so `time(add-n) − time(add-base-n)` isolates lookup cost
//!   (Figure 6);
//! * `locking` — one spinlock per location, lock/unlock around each
//!   update (Figure 1);
//! * `l1` — plain (compiler-barriered) memory accesses: the unit of
//!   Figure 1's normalization.
//!
//! For each benchmark, iteration `i` touches location `i mod n`, and `x`
//! is chosen per `n` so every configuration performs the same number of
//! lookups, exactly as §8 prescribes.

use std::cell::UnsafeCell;
use std::time::{Duration, Instant};

use cilkm_base::rng::{mix64, GAMMA};
use cilkm_core::library::{MaxMonoid, MinMonoid, SumMonoid};
use cilkm_core::{Backend, Reducer, ReducerPool};
use cilkm_runtime::parallel_for;
use cilkm_runtime::sync::SpinLock;

/// Shared settings for one microbenchmark run.
#[derive(Copy, Clone, Debug)]
pub struct MicroConfig {
    /// Worker count (1 for serial experiments, 16 for parallel ones).
    pub workers: usize,
    /// Reducer mechanism under test.
    pub backend: Backend,
    /// Number of reducers / locations (`n`; must be a power of two).
    pub reducers: usize,
    /// Total lookups to perform (`x`).
    pub lookups: u64,
    /// parallel_for grain (iterations per serial leaf).
    pub grain: usize,
}

impl MicroConfig {
    /// A config with the defaults used across the figures.
    pub fn new(workers: usize, backend: Backend, reducers: usize, lookups: u64) -> MicroConfig {
        assert!(reducers.is_power_of_two(), "n must be a power of two");
        MicroConfig {
            workers,
            backend,
            reducers,
            lookups,
            grain: 8192,
        }
    }
}

/// A cheap per-iteration pseudo-random value (the splitmix64 output for
/// counter `i`), so min/max runs process "x random values" without RNG
/// state in the hot loop.
#[inline]
pub fn pseudo_random(i: u64) -> u64 {
    mix64(i.wrapping_add(GAMMA))
}

/// Runs `add-n`: returns wall time. Panics if the reducer total does not
/// equal the iteration count (a correctness check on every benchmark run).
pub fn run_add(cfg: MicroConfig) -> Duration {
    let pool = ReducerPool::new(cfg.workers, cfg.backend);
    run_add_on(&pool, cfg)
}

/// The Figure 1 variant of add-n: the paper's literal "tight for loop"
/// on one worker, timed *inside* the region so neither region entry nor
/// loop-scheduling machinery is charged to the per-update cost.
pub fn run_add_tight(backend: Backend, reducers: usize, lookups: u64) -> Duration {
    let pool = ReducerPool::new(1, backend);
    let mask = reducers - 1;
    let rs: Vec<Reducer<SumMonoid<u64>>> = (0..reducers)
        .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
        .collect();
    let x = lookups as usize;
    let dt = pool.run(|| {
        let t0 = Instant::now();
        for i in 0..x {
            rs[i & mask].add(1);
        }
        t0.elapsed()
    });
    let total: u64 = rs.iter().map(|r| r.get_cloned()).sum();
    assert_eq!(total, lookups, "add-n (tight) lost updates");
    dt
}

/// As [`run_add`], but over an existing pool (used when a figure measures
/// several points against one pool, e.g. the reduce-overhead study).
pub fn run_add_on(pool: &ReducerPool, cfg: MicroConfig) -> Duration {
    let n = cfg.reducers;
    let mask = n - 1;
    let reducers: Vec<Reducer<SumMonoid<u64>>> = (0..n)
        .map(|_| Reducer::new(pool, SumMonoid::new(), 0))
        .collect();
    let x = cfg.lookups as usize;
    let t0 = Instant::now();
    pool.run(|| {
        parallel_for(0..x, cfg.grain, &|r| {
            for i in r {
                reducers[i & mask].add(1);
            }
        });
    });
    let dt = t0.elapsed();
    let total: u64 = reducers.iter().map(|r| r.get_cloned()).sum();
    assert_eq!(total, cfg.lookups, "add-n lost updates");
    dt
}

/// Runs `min-n` over pseudo-random values; checks the result against a
/// serial fold over the same value stream.
pub fn run_min(cfg: MicroConfig) -> Duration {
    let pool = ReducerPool::new(cfg.workers, cfg.backend);
    let n = cfg.reducers;
    let mask = n - 1;
    let reducers: Vec<Reducer<MinMonoid<u64>>> = (0..n)
        .map(|_| Reducer::new(&pool, MinMonoid::new(), None))
        .collect();
    let x = cfg.lookups as usize;
    let t0 = Instant::now();
    pool.run(|| {
        parallel_for(0..x, cfg.grain, &|r| {
            for i in r {
                reducers[i & mask].observe(pseudo_random(i as u64));
            }
        });
    });
    let dt = t0.elapsed();
    // Spot-check reducer 0 against a serial fold.
    let expect = (0..x)
        .filter(|i| i & mask == 0)
        .map(|i| pseudo_random(i as u64))
        .min();
    assert_eq!(reducers[0].get_cloned(), expect, "min-n wrong extreme");
    dt
}

/// Runs `max-n` symmetrically to [`run_min`].
pub fn run_max(cfg: MicroConfig) -> Duration {
    let pool = ReducerPool::new(cfg.workers, cfg.backend);
    let n = cfg.reducers;
    let mask = n - 1;
    let reducers: Vec<Reducer<MaxMonoid<u64>>> = (0..n)
        .map(|_| Reducer::new(&pool, MaxMonoid::new(), None))
        .collect();
    let x = cfg.lookups as usize;
    let t0 = Instant::now();
    pool.run(|| {
        parallel_for(0..x, cfg.grain, &|r| {
            for i in r {
                reducers[i & mask].observe(pseudo_random(i as u64));
            }
        });
    });
    let dt = t0.elapsed();
    let expect = (0..x)
        .filter(|i| i & mask == 0)
        .map(|i| pseudo_random(i as u64))
        .max();
    assert_eq!(reducers[0].get_cloned(), expect, "max-n wrong extreme");
    dt
}

/// A cache-line-spread array of locations for the no-reducer controls.
struct Locations {
    cells: Vec<UnsafeCell<u64>>,
}

// SAFETY: only ever written single-threaded (the controls run on one
// worker); the parallel phases partition the index space disjointly.
unsafe impl Sync for Locations {}

impl Locations {
    /// Raw pointer to location `i` (keeps closures capturing the whole
    /// `Sync` struct rather than the inner non-`Sync` vector).
    #[inline]
    fn ptr(&self, i: usize) -> *mut u64 {
        self.cells[i].get()
    }
}

/// Runs `add-base-n`: the same scheduled loop as `add-n`, updating a
/// plain array instead of reducers. **Single-worker only** (the paper
/// runs it on one processor; with more workers the plain writes would
/// race).
pub fn run_add_base(workers: usize, reducers: usize, lookups: u64, grain: usize) -> Duration {
    assert_eq!(workers, 1, "add-base-n is a single-processor control");
    let pool = ReducerPool::new(1, Backend::Mmap); // backend irrelevant: no reducers
    let mask = reducers - 1;
    let locs = Locations {
        cells: (0..reducers).map(|_| UnsafeCell::new(0u64)).collect(),
    };
    let x = lookups as usize;
    let t0 = Instant::now();
    pool.run(|| {
        parallel_for(0..x, grain, &|r| {
            for i in r {
                // Volatile, like the paper's `volatile` declarations: the
                // compiler may not cache the location in a register.
                // SAFETY: `ptr` points into the live cells vector, and
                // `parallel_for` hands each index to exactly one task.
                unsafe {
                    let p = locs.ptr(i & mask);
                    std::ptr::write_volatile(p, std::ptr::read_volatile(p) + 1);
                }
            }
        });
    });
    let dt = t0.elapsed();
    // SAFETY: the parallel region is over; this thread is the only one
    // left touching the cells.
    let total: u64 = locs.cells.iter().map(|c| unsafe { *c.get() }).sum();
    assert_eq!(total, lookups, "add-base-n lost updates");
    dt
}

/// The Figure 1 "L1-memory" baseline: the tight volatile-update loop with
/// no scheduling at all.
pub fn run_l1(reducers: usize, lookups: u64) -> Duration {
    let mask = reducers - 1;
    let locs: Vec<UnsafeCell<u64>> = (0..reducers).map(|_| UnsafeCell::new(0u64)).collect();
    let x = lookups as usize;
    let t0 = Instant::now();
    for i in 0..x {
        // SAFETY: single-threaded loop over locally owned cells.
        unsafe {
            let p = locs[i & mask].get();
            std::ptr::write_volatile(p, std::ptr::read_volatile(p) + 1);
        }
    }
    let dt = t0.elapsed();
    // SAFETY: as above — no other thread exists here.
    let total: u64 = locs.iter().map(|c| unsafe { *c.get() }).sum();
    assert_eq!(total, lookups);
    dt
}

/// The Figure 1 locking comparator: one spinlock per location, lock and
/// unlock around each update.
pub fn run_locking(reducers: usize, lookups: u64) -> Duration {
    let mask = reducers - 1;
    let locks: Vec<SpinLock<u64>> = (0..reducers).map(|_| SpinLock::new(0)).collect();
    let x = lookups as usize;
    let t0 = Instant::now();
    for i in 0..x {
        *locks[i & mask].lock() += 1;
    }
    let dt = t0.elapsed();
    let total: u64 = locks.iter().map(|l| *l.lock()).sum();
    assert_eq!(total, lookups);
    dt
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: u64 = 40_000;

    #[test]
    fn add_n_is_exact_on_both_backends() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            for workers in [1, 4] {
                let d = run_add(MicroConfig::new(workers, backend, 16, X));
                assert!(d.as_nanos() > 0);
            }
        }
    }

    #[test]
    fn min_max_controls_agree() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            run_min(MicroConfig::new(2, backend, 4, X));
            run_max(MicroConfig::new(2, backend, 4, X));
        }
    }

    #[test]
    fn baselines_run_and_count() {
        run_add_base(1, 4, X, 8192);
        run_l1(4, X);
        run_locking(4, X);
    }

    #[test]
    fn pseudo_random_is_deterministic_and_spread() {
        assert_eq!(pseudo_random(1), pseudo_random(1));
        assert_ne!(pseudo_random(1), pseudo_random(2));
        // Rough spread check over 1000 draws.
        let high = (0..1000)
            .filter(|&i| pseudo_random(i) > u64::MAX / 2)
            .count();
        assert!((300..700).contains(&high));
    }
}

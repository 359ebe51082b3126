//! The lookup hit, for reading in the disassembly.
//!
//! `hit_path` issues `n` `add(1)`s to one reducer. The first goes down
//! the miss path and creates the worker's view; every later one is a
//! hit. It is `#[no_mangle]` and `#[inline(never)]`, so `objdump` finds
//! it by name, and `main` runs it on a one-worker pool of each backend
//! and checks the sum, so both loops counted are code that runs.
//!
//! Build it the way the benchmark's gated pass builds the library, with
//! the `instrument` counter compiled out, and count the instructions,
//! loads, stores and branches of each loop's body against the committed
//! budget:
//!
//! ```sh
//! cargo build -p cilkm-core --release --example hit_path
//! bash crates/core/examples/hit_path.sh target/release/examples/hit_path
//! ```

use cilkm_core::library::SumMonoid;
use cilkm_core::{Backend, Reducer, ReducerPool};

/// `n` hits (after the first touch) on one reducer. `update` tests the
/// key's backend bit, and the compiler unswitches this loop on it, so
/// the body holds one loop per backend.
#[no_mangle]
#[inline(never)]
pub fn hit_path(r: &Reducer<SumMonoid<u64>>, n: u64) {
    for _ in 0..n {
        r.add(1);
    }
}

fn main() {
    const N: u64 = 1 << 20;
    for backend in [Backend::Mmap, Backend::Hypermap] {
        let pool = ReducerPool::new(1, backend);
        let r = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
        let t0 = std::time::Instant::now();
        pool.run(|| hit_path(&r, N));
        let ns = t0.elapsed().as_nanos() as f64 / N as f64;
        assert_eq!(r.into_inner(), N, "{backend:?}");
        println!("✓ {backend:?}: {N} updates on one worker, {ns:.2} ns each");
    }
}

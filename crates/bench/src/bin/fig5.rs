//! Regenerates Figure 5(a) and 5(b): microbenchmark execution times with
//! varying numbers of reducers, serial and parallel.
//!
//! Env: CILKM_BENCH_SCALE (iteration divisor), CILKM_BENCH_WORKERS
//! (parallel worker count, default 16).

fn main() {
    let opts = cilkm_bench::figures::FigureOpts::default();
    println!(
        "fig5: scale divisor = {}, workers = {}\n",
        opts.scale, opts.workers
    );
    cilkm_bench::figures::fig5(opts, 1);
    cilkm_bench::figures::fig5(opts, opts.workers);
}

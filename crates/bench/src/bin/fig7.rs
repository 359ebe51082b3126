//! Regenerates Figure 7: the reduce overhead (view creation + insertion +
//! transferal + hypermerge) during parallel execution, per backend.
//!
//! Env: CILKM_BENCH_SCALE, CILKM_BENCH_WORKERS.

fn main() {
    let opts = cilkm_bench::figures::FigureOpts::default();
    println!(
        "fig7: scale divisor = {}, workers = {}\n",
        opts.scale, opts.workers
    );
    cilkm_bench::figures::fig7(opts);
}

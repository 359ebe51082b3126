//! # cilkm-bench — the SPAA 2012 evaluation, regenerated
//!
//! One module per concern:
//!
//! * [`micro`] — the §8 microbenchmarks (`add-n`, `min-n`, `max-n`, the
//!   `add-base-n` no-reducer control, the locking comparator, and the
//!   plain L1-access baseline);
//! * [`figures`] — one function per table/figure of the paper, each
//!   returning typed rows and printing the same series the paper plots;
//! * [`output`] — table printing and CSV persistence into `bench_out/`.
//!
//! The CSVs are the paper's reproduction artifacts, not a cross-commit
//! record: the repo benchmark under `benchmark/` is the one measurement
//! compared between commits.
//!
//! Scale: every figure accepts a *divisor* applied to the paper's
//! iteration counts (1024 M lookups does not belong on a laptop). The
//! default comes from `CILKM_BENCH_SCALE` (default 256); `cargo bench`
//! uses a larger divisor still. Shapes, not absolute times, are the
//! reproduction target — see `EXPERIMENTS.md`.

pub mod figures;
pub mod micro;
pub mod output;

/// Reads the global scale divisor (≥ 1) from `CILKM_BENCH_SCALE`.
pub fn env_scale(default: f64) -> f64 {
    std::env::var("CILKM_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s >= 1.0)
        .unwrap_or(default)
}

/// Reads the graph-size divisor for the PBFS experiment from
/// `CILKM_GRAPH_SCALE` (default 500: |V| in the thousands). Separate from
/// the lookup-count scale because graph generation cost is memory-bound,
/// not iteration-bound.
pub fn env_graph_scale(default: f64) -> f64 {
    std::env::var("CILKM_GRAPH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s >= 1.0)
        .unwrap_or(default)
}

/// Reads the worker count for "16-processor" experiments from
/// `CILKM_BENCH_WORKERS` (default 16, as in the paper; workers are
/// oversubscribed on smaller machines).
pub fn env_workers(default: usize) -> usize {
    std::env::var("CILKM_BENCH_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(default)
}

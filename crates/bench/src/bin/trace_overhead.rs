//! CI gate: event tracing must be (nearly) free where it matters.
//!
//! ```sh
//! cargo run --release --features trace --bin trace_overhead
//! ```
//!
//! Runs the repeated-lookup microbenchmark (the Figure 1 tight loop,
//! one add-reducer on one worker — the hottest path in the system) in
//! interleaved pairs, one run with tracing disabled and one enabled,
//! alternating which side of a pair runs first so that drift in the
//! host lands on both sides. It **fails** if the median of the per-pair
//! traced/untraced ratios is 3% or more above 1, and prints the
//! quartiles of those ratios as the measurement's spread. The tracer
//! deliberately emits no event on the lookup fast path, so the only
//! admissible cost is ambient (cache pressure from other emit sites);
//! this binary is the regression fence for that design decision.
//!
//! Without the `trace` feature the two runs compile to identical code
//! (emit is a no-op); the comparison still runs and the absolute
//! ns/lookup printed is the number to check against the repeated-lookup
//! baseline (~2.25 ns on the reference host).

use std::process::ExitCode;

use cilkm_bench::micro::run_add_tight;
use cilkm_core::Backend;
use cilkm_obs::trace;

const PAIRS: usize = 101;
const LOOKUPS: u64 = 1 << 22;
const MAX_PCT: f64 = 3.0;

/// One run with tracing forced to `on`, in ns per lookup.
fn ns_per_lookup(on: bool) -> f64 {
    trace::set_enabled(on);
    let d = run_add_tight(Backend::Mmap, 1, LOOKUPS);
    trace::set_enabled(false);
    d.as_nanos() as f64 / LOOKUPS as f64
}

fn main() -> ExitCode {
    println!(
        "trace feature compiled: {} (emit is {} on the lookup path)",
        trace::compiled(),
        if trace::compiled() {
            "one relaxed load when disabled, nothing when enabled"
        } else {
            "a no-op"
        }
    );

    // One throwaway warm-up round so neither arm pays first-touch costs.
    let _ = run_add_tight(Backend::Mmap, 1, LOOKUPS / 4);

    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let mut untraced = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let (off, on) = if i % 2 == 0 {
            let off = ns_per_lookup(false);
            (off, ns_per_lookup(true))
        } else {
            let on = ns_per_lookup(true);
            (ns_per_lookup(false), on)
        };
        untraced.push(off);
        ratios.push(on / off);
    }
    untraced.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    println!("untraced: median {:.3} ns/lookup", untraced[PAIRS / 2]);
    let median = pct(ratios[PAIRS / 2]);
    println!(
        "overhead: median {median:+.2}% over {PAIRS} pairs of {LOOKUPS} lookups, \
         quartiles {:+.2}% .. {:+.2}% (gate: median <{MAX_PCT}%)",
        pct(ratios[PAIRS / 4]),
        pct(ratios[3 * PAIRS / 4])
    );

    if median >= MAX_PCT {
        eprintln!("FAIL: tracing adds {median:.2}% to the repeated-lookup hot path");
        return ExitCode::FAILURE;
    }
    println!("PASS");
    ExitCode::SUCCESS
}

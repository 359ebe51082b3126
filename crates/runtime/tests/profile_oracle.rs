//! The online work/span profiler against an analytic oracle: two
//! computations whose work, span and spawn/sync counts follow from their
//! shape, with busy leaves long enough that scheduler bookkeeping is
//! noise beside them.
//!
//! Compiled out without the `trace` feature (the profiler is
//! feature-gated to keep the hot path free).
#![cfg(feature = "trace")]
#![expect(
    clippy::disallowed_types,
    reason = "a std mutex serializes the profiler sessions of concurrent test threads; it takes no part in a runtime protocol"
)]

use cilkm_obs::ParallelismReport;
use cilkm_runtime::{join, scope, Pool};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One leaf's wall time.
const LEAF_NS: u64 = 2_000_000;

/// The profiling session is process-wide, so the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spins for ~`ns` so every leaf strand has hand-computable weight that
/// dwarfs scheduler bookkeeping.
fn busy(ns: u64) -> u64 {
    let start = Instant::now();
    let mut acc = 0u64;
    while (start.elapsed().as_nanos() as u64) < ns {
        acc = acc.wrapping_add(1);
        std::hint::spin_loop();
    }
    acc
}

/// fib with one `join` per internal node and a busy leaf: for n = 6 that
/// is 13 leaves, 12 spawns and 12 syncs, and a span of one leaf plus the
/// spine to it.
fn fib_busy(n: u32) -> u64 {
    if n < 2 {
        busy(LEAF_NS);
        return n as u64;
    }
    let (a, b) = join(|| fib_busy(n - 1), || fib_busy(n - 2));
    a.wrapping_add(b)
}

/// Work is `leaves` busy leaves, give or take bookkeeping: within
/// [0.95, 1.5] of their sum.
fn assert_work_is_leaves(report: &ParallelismReport, leaves: u64) {
    let ideal = (leaves * LEAF_NS) as f64;
    let work = report.work_ns as f64;
    assert!(
        (0.95 * ideal..=1.5 * ideal).contains(&work),
        "work {} ns against {leaves} leaves of {LEAF_NS} ns\n{}",
        report.work_ns,
        report.render()
    );
}

#[test]
fn fib_join_tree_matches_its_analytic_work_and_span() {
    let _turn = serial();
    let pool = Pool::new(2);
    let (value, report) = pool.run_profiled(|| fib_busy(6));
    assert_eq!(value, 8, "fib(6)");
    let text = report.render();

    assert_eq!(report.spawns, 12, "{text}");
    assert_eq!(report.syncs, 12, "{text}");
    assert_work_is_leaves(&report, 13);
    // The longest path holds one leaf; three would mean the fold added
    // sibling leaves instead of taking their max.
    assert!(report.span_ns >= LEAF_NS, "{text}");
    assert!(report.span_ns < 3 * LEAF_NS, "{text}");
    assert!(report.burdened_span_ns >= report.span_ns, "{text}");
    assert!(report.parallelism() > 4.0, "{text}");
}

#[test]
fn scope_fan_out_matches_its_analytic_work_and_span() {
    let _turn = serial();
    let pool = Pool::new(2);
    let ((), report) = pool.run_profiled(|| {
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    busy(LEAF_NS);
                });
            }
        })
    });
    let text = report.render();

    assert_eq!(report.spawns, 8, "{text}");
    assert_eq!(report.syncs, 1, "{text}");
    assert_work_is_leaves(&report, 8);
    // Every task starts from its spawn point, and the close takes the
    // latest: the span is one leaf past the last spawn.
    assert!(report.span_ns >= LEAF_NS, "{text}");
    assert!(report.span_ns < 3 * LEAF_NS, "{text}");
    assert!(report.burdened_span_ns >= report.span_ns, "{text}");
}

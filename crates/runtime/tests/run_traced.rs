//! `Pool::run_traced` end to end: the events of one traced region, and
//! the tracer switched back off when the region panics. A binary of its
//! own, because tracing is process-wide: any region another test of the
//! process ran meanwhile would land in the trace. The tests take turns.
//! Compiled out without the `trace` feature (no event is recorded).
#![cfg(feature = "trace")]
#![expect(
    clippy::disallowed_types,
    reason = "a std mutex serializes the traced regions of concurrent test threads; it takes no part in a runtime protocol"
)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use cilkm_obs::{trace, EventKind};
use cilkm_runtime::{join, Pool};

/// The tracer is process-wide, so the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
}

#[test]
fn run_traced_captures_region_and_worker_events() {
    let _turn = serial();
    let pool = Pool::new(4);
    let (val, trace) = pool.run_traced(|| fib(16));
    assert_eq!(val, 987);
    assert_eq!(trace.count(EventKind::RegionBegin), 1);
    assert_eq!(trace.count(EventKind::RegionEnd), 1);
    // JobEnd is emitted inside `execute`, before the completion
    // latch — so even though this drain runs the instant the root
    // latch fires, every begun job has its end in the rings.
    let begins = trace.count(EventKind::JobBegin);
    let ends = trace.count(EventKind::JobEnd);
    assert!(begins >= 1);
    assert_eq!(
        begins, ends,
        "unbalanced job events: {begins} begins, {ends} ends"
    );
    // Every stolen-join merge brackets properly.
    assert_eq!(
        trace.count(EventKind::MergeBegin),
        trace.count(EventKind::MergeEnd)
    );
    // Worker rings carry the pool's thread names.
    assert!(trace
        .threads
        .iter()
        .any(|t| t.label.starts_with("cilkm-worker-")));

    // A second traced region does not re-see the first one's events.
    let (_, trace2) = pool.run_traced(|| fib(10));
    assert_eq!(trace2.count(EventKind::RegionBegin), 1);
}

#[test]
fn a_panicking_traced_region_switches_the_tracer_back_off() {
    let _turn = serial();
    let pool = Pool::new(2);
    assert!(!trace::enabled());
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.run_traced(|| panic!("traced region boom"))
    }));
    assert!(caught.is_err(), "the region's panic reaches the caller");
    assert!(
        !trace::enabled(),
        "every later region in the process would record events"
    );
    assert_eq!(pool.run(|| fib(10)), 55);
}

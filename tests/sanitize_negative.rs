//! Negative control: the SP determinacy-race detector must flag logically
//! parallel unsynchronized writes that ride through the *real* scheduler.
//!
//! The racy-counter and AB/BA lock-inversion controls live in
//! `crates/san/tests/negative.rs`; this binary covers the piece that needs the
//! full runtime: offset-span labels threaded through `join` by the spawn/sync
//! hooks. Both branches of a `join` write the same location with no
//! synchronization. Whether or not the right branch is actually stolen, the
//! two strands carry sibling SP labels, so the determinacy detector fires
//! even on the serial (no-steal) execution where FastTrack alone would not.
//!
//! Findings are process-global, so this lives in its own test binary and the
//! clean-run suite lives in another (`sanitize_clean.rs`).
#![cfg(all(feature = "sanitize", not(feature = "model")))]

use cilkm::prelude::*;
use cilkm::san;

#[test]
fn join_branches_racing_on_plain_location_are_reported() {
    // Leaked so the address is never reused by another allocation.
    let cell: &'static mut u64 = Box::leak(Box::new(0));
    let addr = cell as *mut u64 as usize;

    let pool = ReducerPool::new(2, Backend::Mmap);
    pool.run(|| {
        join(
            || {
                san::plain_write(addr, "negative.sp-counter");
            },
            || {
                san::plain_write(addr, "negative.sp-counter");
            },
        );
    });
    drop(pool);

    let report = san::snapshot();
    let hit = report.findings.iter().any(|f| {
        f.detector == san::report::Detector::DeterminacyRace && f.site == "negative.sp-counter"
    });
    assert!(
        hit,
        "expected a determinacy-race finding at negative.sp-counter, got: {}",
        report.to_json()
    );
}
